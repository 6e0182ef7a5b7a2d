//! Quick decode-path throughput probe (not a criterion bench): prints
//! images/s for each decoder variant over the standard 500x375 corpus, and
//! for the production kernel delivering 224x224 RGB into a window.

use dlb_codec::resize::{resize, ResizeFilter};
use dlb_codec::simd::{force_scalar, simd_active};
use dlb_codec::synth::{generate, SynthStyle};
use dlb_codec::{ColorSpace, DecodeScratch, JpegDecoder, JpegEncoder};
use std::hint::black_box;
use std::time::Instant;

fn corpus() -> Vec<Vec<u8>> {
    let enc = JpegEncoder::new(92).unwrap().with_restart_interval(8);
    (0..8u64)
        .map(|seed| {
            let img = generate(500, 375, SynthStyle::Photo, seed);
            enc.clone().encode(&img).unwrap()
        })
        .collect()
}

fn rate(dec: &JpegDecoder, corpus: &[Vec<u8>], rounds: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for bytes in corpus {
            black_box(dec.decode(black_box(bytes)).unwrap());
        }
    }
    (rounds * corpus.len()) as f64 / t0.elapsed().as_secs_f64()
}

/// `decode` + `resize` + `to_rgb`: the chain the kernel replaces.
fn rate_chained(dec: &JpegDecoder, corpus: &[Vec<u8>], rounds: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for bytes in corpus {
            let img = dec.decode(black_box(bytes)).unwrap();
            let small = resize(&img, 224, 224, ResizeFilter::Bilinear).unwrap();
            black_box(small.to_rgb());
        }
    }
    (rounds * corpus.len()) as f64 / t0.elapsed().as_secs_f64()
}

/// `decode_into` with one reused scratch and window, as a lane runs it.
fn rate_kernel(dec: &JpegDecoder, corpus: &[Vec<u8>], rounds: usize) -> f64 {
    let mut scratch = DecodeScratch::new();
    let mut window = vec![0u8; 224 * 224 * 3];
    let t0 = Instant::now();
    for _ in 0..rounds {
        for bytes in corpus {
            let target = Some((224, 224));
            dec.decode_into(
                black_box(bytes),
                &mut scratch,
                target,
                ColorSpace::Rgb,
                &mut window,
            )
            .unwrap();
            black_box(&window);
        }
    }
    (rounds * corpus.len()) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let corpus = corpus();
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(12);
    println!("simd_active: {}", simd_active());
    let fast = JpegDecoder::new();
    let ref_entropy = JpegDecoder::new().with_reference_entropy(true);
    let ref_idct = JpegDecoder::new()
        .with_reference_entropy(true)
        .with_reference_idct(true);
    // Warmup.
    rate(&fast, &corpus, 2);
    for _ in 0..3 {
        force_scalar(true);
        let r_ref_s = rate(&ref_idct, &corpus, rounds);
        let r_re_s = rate(&ref_entropy, &corpus, rounds);
        let r_scalar = rate(&fast, &corpus, rounds);
        force_scalar(false);
        let r_simd = rate(&fast, &corpus, rounds);
        println!(
            "scalar: ref_idct {r_ref_s:7.1}  ref_entropy+aan {r_re_s:7.1}  fast {r_scalar:7.1}  | simd fast {r_simd:7.1}"
        );
    }
    for _ in 0..3 {
        let chained = rate_chained(&fast, &corpus, rounds);
        let kernel = rate_kernel(&fast, &corpus, rounds);
        println!("to 224x224 RGB: decode+resize+to_rgb {chained:7.1}  | decode_into {kernel:7.1}");
    }
    // Stage timers.
    for (label, scalar) in [("simd", false), ("scalar", true)] {
        force_scalar(scalar);
        let dec = JpegDecoder::new().with_stage_timing(true);
        let (mut h, mut i, mut c) = (0u64, 0u64, 0u64);
        for bytes in &corpus {
            let (_, s) = dec.decode_with_stats(bytes).unwrap();
            h += s.huffman_ns;
            i += s.idct_ns;
            c += s.color_ns;
        }
        force_scalar(false);
        let n = corpus.len() as u64;
        println!(
            "{label}: huffman {} idct {} color {} ns/image",
            h / n,
            i / n,
            c / n
        );
    }
}
