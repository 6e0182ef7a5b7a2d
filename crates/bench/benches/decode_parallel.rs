//! The parallel decode plane: sequential vs restart-segment-parallel
//! JPEG decode, with and without the fast AAN iDCT, across restart
//! intervals and pool thread counts.
//!
//! This is the software mirror of the paper's Fig. 4 decoder: the
//! restart segments play the role of the 4-way parallel Huffman unit's
//! independent input streams. Reports land in
//! `target/figure-reports/decode_parallel.json` (the source for
//! `BENCH_decode.json` at the repo root).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlb_bench::{print_report, save_reports};
use dlb_codec::simd::{force_scalar, simd_active};
use dlb_codec::synth::{generate, SynthStyle};
use dlb_codec::{JpegDecoder, JpegEncoder};
use dlb_workflows::report::{FigureReport, Row};
use std::hint::black_box;
use std::time::Instant;

/// Restart interval (in MCUs) the parallel corpus is framed with; 8 MCUs
/// per segment keeps per-segment work large enough to amortise scatter.
const CORPUS_RESTART_INTERVAL: u16 = 8;

fn corpus(interval: u16) -> Vec<Vec<u8>> {
    let enc = JpegEncoder::new(92)
        .unwrap()
        .with_restart_interval(interval);
    (0..8u64)
        .map(|seed| {
            let img = generate(500, 375, SynthStyle::Photo, seed);
            enc.clone().encode(&img).unwrap()
        })
        .collect()
}

/// Decodes the whole corpus `rounds` times, returning images/second.
fn rate(dec: &JpegDecoder, corpus: &[Vec<u8>], parallel: bool, rounds: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for bytes in corpus {
            let img = if parallel {
                dec.decode_parallel(black_box(bytes)).unwrap()
            } else {
                dec.decode(black_box(bytes)).unwrap()
            };
            black_box(img);
        }
    }
    (rounds * corpus.len()) as f64 / t0.elapsed().as_secs_f64()
}

fn report_thread_sweep() -> FigureReport {
    let mut rep = FigureReport::new(
        "Decode plane",
        "Restart-segment-parallel decode, 500x375 photo corpus",
        &["variant", "threads", "images/s", "speedup vs seq"],
    );
    let corpus8 = corpus(CORPUS_RESTART_INTERVAL);
    let fast = JpegDecoder::new();
    let reference = JpegDecoder::new()
        .with_reference_entropy(true)
        .with_reference_idct(true);
    let rounds = 4;

    // Baselines: the pre-SIMD decoder (sequential + reference iDCT +
    // bit-at-a-time entropy + scalar kernels), the fast path pinned to
    // the scalar kernels, and the full fast path (reservoir Huffman +
    // SIMD where the host supports it). The three are measured in
    // interleaved passes so clock/thermal drift on shared CI runners
    // hits every variant equally instead of penalising whichever one
    // happens to run last.
    let variants: [(&JpegDecoder, bool); 3] = [(&reference, true), (&fast, true), (&fast, false)];
    let mut elapsed = [0f64; 3];
    for _ in 0..rounds {
        for (slot, (dec, scalar_only)) in variants.iter().enumerate() {
            force_scalar(*scalar_only);
            let t0 = Instant::now();
            for bytes in &corpus8 {
                black_box(dec.decode(black_box(bytes)).unwrap());
            }
            elapsed[slot] += t0.elapsed().as_secs_f64();
        }
    }
    force_scalar(false);
    let imgs = (rounds * corpus8.len()) as f64;
    let [seq_ref, seq_scalar, seq_fast] = elapsed.map(|secs| imgs / secs);
    rep.push_row(Row::new(&[
        "sequential, reference scalar decoder (old)".to_string(),
        "1".to_string(),
        format!("{seq_ref:.1}"),
        "1.00x".to_string(),
    ]));
    rep.push_row(Row::new(&[
        "sequential, fast path, forced scalar".to_string(),
        "1".to_string(),
        format!("{seq_scalar:.1}"),
        format!("{:.2}x", seq_scalar / seq_ref),
    ]));
    rep.push_row(Row::new(&[
        if simd_active() {
            "sequential, fast path, SIMD".to_string()
        } else {
            "sequential, fast path (no SIMD on host)".to_string()
        },
        "1".to_string(),
        format!("{seq_fast:.1}"),
        format!("{:.2}x", seq_fast / seq_ref),
    ]));

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut par4_fast = None;
    for threads in [1usize, 2, 4, 8] {
        rayon::set_num_threads(Some(threads));
        let par_ref = rate(&reference, &corpus8, true, rounds);
        let par_fast = rate(&fast, &corpus8, true, rounds);
        if threads == 4 {
            par4_fast = Some(par_fast);
        }
        rep.push_row(Row::new(&[
            "parallel, reference iDCT".to_string(),
            threads.to_string(),
            format!("{par_ref:.1}"),
            format!("{:.2}x", par_ref / seq_ref),
        ]));
        rep.push_row(Row::new(&[
            "parallel, fast iDCT".to_string(),
            threads.to_string(),
            format!("{par_fast:.1}"),
            format!("{:.2}x", par_fast / seq_ref),
        ]));
    }
    rayon::set_num_threads(None);
    rep.note(format!(
        "host cores: {host_cores}; restart interval {CORPUS_RESTART_INTERVAL} MCUs; \
         speedups relative to the old sequential reference scalar decoder"
    ));

    // Neither fast-path flavour may regress single-thread decode versus
    // the old all-scalar reference decoder. On AVX2 hosts the SIMD path
    // should win by >2x; the forced-scalar path wins modestly (reservoir
    // Huffman + AAN iDCT) so it gets a noise-tolerant margin — shared CI
    // runners show double-digit swings even between interleaved passes.
    assert!(
        seq_fast >= seq_ref * 0.95,
        "sequential fast-path decode regressed: {seq_fast:.1} vs {seq_ref:.1} img/s"
    );
    assert!(
        seq_scalar >= seq_ref * 0.85,
        "forced-scalar fast path regressed: {seq_scalar:.1} vs {seq_ref:.1} img/s"
    );
    // The >=2x parallel win needs real cores to show up; a 1-core CI
    // container can only run the sweep for the record.
    if host_cores >= 4 {
        let par4 = par4_fast.unwrap();
        assert!(
            par4 >= seq_ref * 2.0,
            "parallel decode at 4 threads must be >=2x sequential: {par4:.1} vs {seq_ref:.1} img/s"
        );
    } else {
        rep.note(format!(
            "SKIPPED >=2x assertion: host has {host_cores} core(s), need >=4"
        ));
    }
    rep
}

fn report_restart_intervals() -> FigureReport {
    let mut rep = FigureReport::new(
        "Decode plane RI",
        "Parallelism vs restart interval (4 threads, fast iDCT)",
        &["restart interval (MCUs)", "segments/image", "images/s"],
    );
    let dec = JpegDecoder::new();
    rayon::set_num_threads(Some(4));
    for interval in [0u16, 1, 8, 64] {
        let corpus = corpus(interval);
        let (_, stats) = dec.decode_parallel_with_stats(&corpus[0]).unwrap();
        let r = rate(&dec, &corpus, true, 2);
        rep.push_row(Row::new(&[
            interval.to_string(),
            stats.restart_segments.to_string(),
            format!("{r:.1}"),
        ]));
    }
    rayon::set_num_threads(None);
    rep.note("interval 0 = no restart markers: parallel decode falls back to sequential");
    rep
}

fn report_stage_timers() -> FigureReport {
    let mut rep = FigureReport::new(
        "Decode stages",
        "Per-stage decode cost (sequential, one 500x375 image)",
        &[
            "variant",
            "huffman ns/image",
            "idct ns/image",
            "color ns/image",
        ],
    );
    let corpus = corpus(CORPUS_RESTART_INTERVAL);
    for (label, scalar_only, dec) in [
        (
            "fast entropy + SIMD kernels",
            false,
            JpegDecoder::new().with_stage_timing(true),
        ),
        (
            "fast entropy, forced scalar",
            true,
            JpegDecoder::new().with_stage_timing(true),
        ),
        (
            "reference entropy + fast AAN",
            false,
            JpegDecoder::new()
                .with_stage_timing(true)
                .with_reference_entropy(true),
        ),
        (
            "reference entropy + reference iDCT",
            false,
            JpegDecoder::new()
                .with_stage_timing(true)
                .with_reference_entropy(true)
                .with_reference_idct(true),
        ),
    ] {
        force_scalar(scalar_only);
        let mut huff = 0u64;
        let mut idct = 0u64;
        let mut color = 0u64;
        for bytes in &corpus {
            let (_, stats) = dec.decode_with_stats(bytes).unwrap();
            huff += stats.huffman_ns;
            idct += stats.idct_ns;
            color += stats.color_ns;
        }
        force_scalar(false);
        rep.push_row(Row::new(&[
            label.to_string(),
            (huff / corpus.len() as u64).to_string(),
            (idct / corpus.len() as u64).to_string(),
            (color / corpus.len() as u64).to_string(),
        ]));
    }
    rep
}

fn bench(c: &mut Criterion) {
    let reports = vec![
        report_thread_sweep(),
        report_restart_intervals(),
        report_stage_timers(),
    ];
    for r in &reports {
        print_report(r);
    }
    match save_reports("decode_parallel", &reports) {
        Ok(path) => println!("reports -> {}", path.display()),
        Err(e) => eprintln!("could not save reports: {e}"),
    }

    // Criterion regression tracking on one representative image.
    let bytes = corpus(CORPUS_RESTART_INTERVAL).swap_remove(0);
    let mut group = c.benchmark_group("decode_parallel");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("sequential", "500x375"),
        &bytes,
        |b, bytes| {
            let dec = JpegDecoder::new();
            b.iter(|| dec.decode(black_box(bytes)).unwrap())
        },
    );
    group.bench_with_input(
        BenchmarkId::new("parallel", "500x375"),
        &bytes,
        |b, bytes| {
            let dec = JpegDecoder::new();
            b.iter(|| dec.decode_parallel(black_box(bytes)).unwrap())
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batch_of_8", "500x375"),
        &corpus(CORPUS_RESTART_INTERVAL),
        |b, corpus| {
            let dec = JpegDecoder::new();
            let refs: Vec<&[u8]> = corpus.iter().map(|v| v.as_slice()).collect();
            b.iter(|| {
                for r in dec.decode_batch(black_box(&refs)) {
                    r.unwrap();
                }
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
