//! Layer drives: the corpus replayed single-threaded through each crate's
//! public API, every call timed from outside. They give each layer's cost
//! on its own, which the pipeline runs cannot (there everything overlaps).
//! Each drive is one span on the benchmark's tracer.

use crate::alloc::{self, AllocDelta};
use crate::corpus::{Corpus, BATCH, ITEM_BYTES, TARGET};
use crate::engine::{self, EngineSide};
use crate::host;
use crate::serve;
use crate::stats;
use crate::Ledger;
use dlbooster::codec::resize::{resize, ResizeFilter};
use dlbooster::core::{BackendError, FileMeta, HostBatch};
use dlbooster::fpga::{DataSourceResolver, Submission};
use dlbooster::gpu::stream::{CompletedOp, GpuOp};
use dlbooster::gpu::GpuStream;
use dlbooster::graph::{fpga_training, GraphConfig};
use dlbooster::net::NicSpec;
use dlbooster::prelude::*;
use dlbooster::trace::SpanKind;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images the codec and cache drives replay (three batches' worth).
const DRIVE_IMAGES: usize = 96;
/// Batches the engine and backend drives pull.
const DRIVE_BATCHES: usize = 8;

type Drive = fn(&Corpus, &mut Ledger) -> Result<(), String>;

pub fn run_all(corpus: &Corpus, tracer: &Tracer, out: &mut Ledger) -> Result<(), String> {
    let drives: [(&'static str, Drive); 10] = [
        ("bench.drive.codec", codec),
        ("bench.drive.fpga", fpga),
        ("bench.drive.backends", backends),
        ("bench.drive.core", core),
        ("bench.drive.dispatcher", dispatcher),
        ("bench.drive.membridge", membridge),
        ("bench.drive.cache", cache),
        ("bench.drive.gpu", gpu),
        ("bench.drive.storage_graph", storage_and_graph),
        ("bench.drive.net_serving", net_and_serving),
    ];
    for (i, (stage, drive)) in drives.into_iter().enumerate() {
        let t0 = Instant::now();
        drive(corpus, out)?;
        tracer.span(i as u64 + 1, stage, SpanKind::Service, t0, Instant::now());
    }
    Ok(())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean time of `f` in microseconds over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    us(t0.elapsed()) / n as f64
}

fn codec(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let jpegs: Vec<_> = (0..DRIVE_IMAGES).map(|i| corpus.jpeg(i)).collect();
    let n = jpegs.len() as f64;
    let plain = JpegDecoder::new();
    let timed = JpegDecoder::new().with_stage_timing(true);
    let decode_err = |e| format!("codec drive: {e}");

    // Decode with the per-stage timers off, then resize, as the lanes do.
    let alloc0 = alloc::totals();
    let mut decode = Duration::ZERO;
    let mut resized = Duration::ZERO;
    for jpeg in &jpegs {
        let t0 = Instant::now();
        let image = plain.decode(jpeg).map_err(decode_err)?;
        let t1 = Instant::now();
        let small = resize(
            &image,
            TARGET.0 as u32,
            TARGET.1 as u32,
            ResizeFilter::Bilinear,
        )
        .map_err(decode_err)?
        .to_rgb();
        resized += t1.elapsed();
        decode += t1 - t0;
        black_box(small);
    }
    let alloc = AllocDelta::since(alloc0);

    let (mut huffman, mut idct, mut color) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for jpeg in &jpegs {
        let (image, stats) = timed.decode_with_stats(jpeg).map_err(decode_err)?;
        huffman += stats.huffman_ns;
        idct += stats.idct_ns;
        color += stats.color_ns;
        black_box(image);
    }
    let decode_timed = t0.elapsed();

    out.put("codec.decode_ms_per_image", host::ms(decode) / n, "ms");
    out.put("codec.huffman_ms_per_image", huffman as f64 / 1e6 / n, "ms");
    out.put("codec.idct_ms_per_image", idct as f64 / 1e6 / n, "ms");
    out.put("codec.color_ms_per_image", color as f64 / 1e6 / n, "ms");
    out.put("codec.resize_ms_per_image", host::ms(resized) / n, "ms");
    out.put(
        "codec.stage_timing_overhead_frac",
        decode_timed.as_secs_f64() / decode.as_secs_f64() - 1.0,
        "frac",
    );
    out.put("codec.alloc_kb_per_image", alloc.kib_per(n as u64), "KiB");
    out.put("codec.allocs_per_image", alloc.calls_per(n as u64), "count");
    Ok(())
}

/// The reader's cmd generation, from outside: reserve one slot per item and
/// pack a cmd that points at it.
fn submission(unit: BatchUnit, metas: &[FileMeta], first_cmd_id: u64) -> Submission {
    let mut unit = unit;
    let cmds = metas
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let offset = unit
                .reserve(ITEM_BYTES, m.label, TARGET.0 as u32, TARGET.1 as u32, 3)
                .expect("unit sized for a batch");
            DecodeCmd {
                cmd_id: first_cmd_id + i as u64,
                src: m.src,
                dst_phys: unit.phys_addr() + offset as u64,
                dst_capacity: ITEM_BYTES as u32,
                target_w: TARGET.0,
                target_h: TARGET.1,
                format: OutputFormat::Rgb8,
            }
            .pack()
        })
        .collect();
    Submission { unit, cmds }
}

fn batch_pool(units: usize) -> Result<MemManager, String> {
    MemManager::new(PoolConfig {
        unit_size: BATCH * ITEM_BYTES,
        unit_count: units,
        phys_base: 0x4_0000_0000,
    })
    .map_err(|e| e.to_string())
}

fn disk_resolver(corpus: &Corpus) -> Arc<CombinedResolver> {
    Arc::new(CombinedResolver::disk_only(Arc::clone(&corpus.disk)))
}

fn decoder_engine(corpus: &Corpus) -> Result<DecoderEngine, String> {
    engine::decoder(disk_resolver(corpus), &Telemetry::with_defaults())
}

/// The decoder engine alone: one submission at a time, submit → FINISH.
fn fpga(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let engine = decoder_engine(corpus)?;
    let pool = batch_pool(2)?;
    let collector = DataCollector::load_from_disk(corpus.records(), 0);
    let mut service_ms = Vec::with_capacity(DRIVE_BATCHES);
    let alloc0 = alloc::totals();
    let t0 = Instant::now();
    for b in 0..DRIVE_BATCHES {
        let metas = collector.next_metas(BATCH).expect("dataset mode");
        let unit = pool.get_item().map_err(|e| e.to_string())?;
        let sub = submission(unit, &metas, (b * BATCH) as u64);
        let s0 = Instant::now();
        engine.submit(sub).map_err(|e| e.to_string())?;
        let done = engine
            .completions()
            .pop()
            .map_err(|_| "engine stopped".to_string())?;
        service_ms.push(host::ms(s0.elapsed()));
        if done.ok_count() != BATCH {
            return Err("fpga drive: an item failed to decode".into());
        }
        pool.recycle_item(done.unit).map_err(|e| e.to_string())?;
    }
    let wall = t0.elapsed().as_secs_f64();
    let alloc = AllocDelta::since(alloc0);
    let images = (DRIVE_BATCHES * BATCH) as u64;
    let lane = engine.stats().lane_service.snapshot();
    out.put("fpga.engine_images_per_s", images as f64 / wall, "img/s");
    out.put(
        "fpga.batch_service_ms_p50",
        stats::median(&service_ms),
        "ms",
    );
    out.put("fpga.lane_service_ms_mean", lane.mean() / 1e6, "ms");
    out.put("fpga.alloc_kb_per_image", alloc.kib_per(images), "KiB");
    Ok(())
}

/// Pulls `DRIVE_BATCHES` batches (after two to fill the queues) straight
/// off a backend with no dispatcher behind it; returns images per second.
fn pull(backend: &dyn PreprocessBackend) -> Result<f64, String> {
    let mut t0 = Instant::now();
    for b in 0..DRIVE_BATCHES + 2 {
        if b == 2 {
            t0 = Instant::now();
        }
        let batch = backend.next_batch(0).map_err(|e| e.to_string())?;
        backend.recycle(batch.unit);
    }
    Ok((DRIVE_BATCHES * BATCH) as f64 / t0.elapsed().as_secs_f64())
}

fn backends(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let backend = CpuBackend::start(
        Arc::new(DataCollector::load_from_disk(corpus.records(), 0)),
        disk_resolver(corpus),
        engine::cpu_config(),
    )?;
    let rate = pull(&backend)?;
    backend.shutdown();
    let busy_ms = backend.cpu_busy_nanos() as f64 / 1e6;
    let produced = backend.delivered().max(1) * BATCH as u64;
    out.put("backends.next_batch_images_per_s", rate, "img/s");
    out.put(
        "backends.cpu_busy_ms_per_image",
        busy_ms / produced as f64,
        "ms",
    );
    Ok(())
}

fn core(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let booster = DlBooster::start(
        Arc::new(DataCollector::load_from_disk(corpus.records(), 0)),
        FpgaChannel::init(decoder_engine(corpus)?, 0),
        engine::training_config(corpus.records().len(), 0),
    )?;
    out.put("core.next_batch_images_per_s", pull(&booster)?, "img/s");
    drop(booster);

    let collector = DataCollector::load_from_disk(corpus.records(), 7);
    let per_batch = mean_us(2000, |_| {
        black_box(collector.next_metas(BATCH));
    });
    out.put("core.next_metas_us_per_batch", per_batch, "us");

    let resolver = disk_resolver(corpus);
    let metas: Vec<FileMeta> = corpus.records().iter().map(FileMeta::from_record).collect();
    let alloc0 = alloc::totals();
    let per_image = mean_us(metas.len(), |i| {
        black_box(resolver.fetch(&metas[i].src).expect("corpus fetch"));
    });
    let alloc = AllocDelta::since(alloc0);
    out.put("core.fetch_us_per_image", per_image, "us");
    out.put(
        "core.fetch_alloc_kb_per_image",
        alloc.kib_per(metas.len() as u64),
        "KiB",
    );
    Ok(())
}

/// A backend that hands the dispatcher already-filled batch units and takes
/// them back untouched, so what remains is the dispatcher's own work.
struct Prefilled {
    ready: BlockingQueue<BatchUnit>,
}

impl PreprocessBackend for Prefilled {
    fn name(&self) -> &'static str {
        "prefilled"
    }
    fn next_batch(&self, _slot: usize) -> Result<HostBatch, BackendError> {
        let unit = self.ready.pop().map_err(|_| BackendError::Exhausted)?;
        Ok(HostBatch {
            sequence: unit.sequence(),
            unit,
            ready_at: Instant::now(),
            arrivals: Vec::new(),
            trace: 0,
        })
    }
    fn recycle(&self, unit: BatchUnit) {
        let _ = self.ready.push(unit);
    }
    fn max_batch_bytes(&self) -> usize {
        BATCH * ITEM_BYTES
    }
    fn cpu_busy_nanos(&self) -> u64 {
        0
    }
    fn shutdown(&self) {
        self.ready.close();
    }
}

fn filled_unit(pool: &MemManager) -> Result<BatchUnit, String> {
    let mut unit = pool.get_item().map_err(|e| e.to_string())?;
    let pixels = vec![0x5Au8; ITEM_BYTES];
    for label in 0..BATCH as u64 {
        unit.append(&pixels, label, TARGET.0 as u32, TARGET.1 as u32, 3)
            .ok_or("unit too small for a batch")?;
    }
    Ok(unit)
}

fn dispatcher(_corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    const BATCHES: u64 = 600;
    let pool = batch_pool(3)?;
    let ready = BlockingQueue::bounded(3);
    for _ in 0..3 {
        ready.push(filled_unit(&pool)?).map_err(|e| e.to_string())?;
    }
    let backend = Arc::new(Prefilled { ready });
    let telemetry = Telemetry::with_defaults();
    let engine = EngineSide::attach(backend.clone(), &telemetry)?;
    for _ in 0..20 {
        let batch = engine.pop()?;
        engine.give_back(batch)?;
    }
    let busy = telemetry
        .registry
        .counter(dlbooster::telemetry::names::DISPATCHER_CPU_BUSY_NANOS);
    let busy0 = busy.get();
    let alloc0 = alloc::totals();
    let t0 = Instant::now();
    for _ in 0..BATCHES {
        let batch = engine.pop()?;
        engine.give_back(batch)?;
    }
    let wall = t0.elapsed().as_secs_f64();
    let alloc = AllocDelta::since(alloc0);
    let busy_us = (busy.get() - busy0) as f64 / 1e3;
    engine.detach(backend.as_ref());
    out.put(
        "core.dispatcher_alone_batches_per_s",
        BATCHES as f64 / wall,
        "1/s",
    );
    out.put(
        "core.dispatcher_alloc_kb_per_batch",
        alloc.kib_per(BATCHES),
        "KiB",
    );
    out.put(
        "core.dispatcher_cpu_busy_us_per_batch",
        busy_us / BATCHES as f64,
        "us",
    );
    Ok(())
}

fn membridge(_corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let pool = batch_pool(2)?;
    let lease = mean_us(100_000, |_| {
        let unit = pool.get_item().expect("free unit");
        pool.recycle_item(unit).expect("own unit");
    });
    out.put("membridge.lease_recycle_ns", lease * 1e3, "ns");

    let q: BlockingQueue<u64> = BlockingQueue::bounded(8);
    let push_pop = mean_us(200_000, |i| {
        q.push(i as u64).expect("open queue");
        black_box(q.pop().expect("open queue"));
    });
    out.put("membridge.queue_push_pop_ns", push_pop * 1e3, "ns");

    // Two threads, two queues: the cost of handing an item to another
    // thread and getting it back, wake-ups included.
    const TRIPS: usize = 20_000;
    let ping: BlockingQueue<u64> = BlockingQueue::bounded(1);
    let pong: BlockingQueue<u64> = BlockingQueue::bounded(1);
    let roundtrip = std::thread::scope(|s| {
        let (ping_rx, pong_tx) = (ping.clone(), pong.clone());
        s.spawn(move || {
            while let Ok(v) = ping_rx.pop() {
                if pong_tx.push(v).is_err() {
                    break;
                }
            }
        });
        let per_trip = mean_us(TRIPS, |i| {
            ping.push(i as u64).expect("open queue");
            black_box(pong.pop().expect("open queue"));
        });
        ping.close();
        per_trip
    });
    out.put("membridge.queue_roundtrip_ns", roundtrip * 1e3, "ns");

    let source = filled_unit(&pool)?;
    let (payload, items) = (source.payload().to_vec(), source.items().to_vec());
    let mut target = pool.get_item().map_err(|e| e.to_string())?;
    let restore = mean_us(50, |_| {
        target.restore(&payload, &items).expect("same geometry");
    });
    out.put("membridge.restore_us_per_batch", restore, "us");
    Ok(())
}

fn cache(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let pixels = vec![0xA5u8; ITEM_BYTES];
    let records = &corpus.records()[..DRIVE_IMAGES];
    let key = |i: usize| SampleKey::Disk {
        offset: records[i].disk_offset,
        len: records[i].len,
    };
    // Admission as the reader performs it: copy the item out of the batch
    // unit, then insert.
    let admit = |cache: &SampleCache, i: usize| {
        cache.insert(
            key(i),
            CachedSample {
                data: Arc::new(pixels.to_vec()),
                label: records[i].label,
                width: TARGET.0 as u32,
                height: TARGET.1 as u32,
                channels: 3,
            },
            records[i].len as u64,
        )
    };

    let roomy = SampleCache::new((2 * DRIVE_IMAGES * ITEM_BYTES) as u64);
    let alloc0 = alloc::totals();
    let insert = mean_us(DRIVE_IMAGES, |i| {
        admit(&roomy, i);
    });
    let alloc = AllocDelta::since(alloc0);
    let lookup = mean_us(100 * DRIVE_IMAGES, |i| {
        black_box(roomy.lookup(&key(i % DRIVE_IMAGES)).expect("resident"));
    });

    // Room for a third of the samples: once full, every insert evicts.
    let tight = SampleCache::new((DRIVE_IMAGES / 3 * ITEM_BYTES) as u64);
    for i in 0..DRIVE_IMAGES / 3 {
        admit(&tight, i);
    }
    let evicting = mean_us(DRIVE_IMAGES - DRIVE_IMAGES / 3, |i| {
        admit(&tight, DRIVE_IMAGES / 3 + i);
    });
    if tight.churn_stats().1 == 0 {
        return Err("cache drive: the tight cache never evicted".into());
    }

    out.put("cache.lookup_hit_us", lookup, "us");
    out.put("cache.insert_us", insert, "us");
    out.put("cache.insert_evict_us", evicting, "us");
    out.put(
        "cache.insert_alloc_kb",
        alloc.kib_per(DRIVE_IMAGES as u64),
        "KiB",
    );
    Ok(())
}

fn gpu(_corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let pool = batch_pool(1)?;
    let device = GpuDevice::new(GpuSpec::tesla_v100(), 0);
    let stream = GpuStream::new("drive", 0.0);
    let mut host = Some(filled_unit(&pool)?);
    let mut dev = Some(device.alloc(BATCH * ITEM_BYTES)?);
    let per_copy = mean_us(100, |_| {
        stream.enqueue(GpuOp::MemcpyH2D {
            host: host.take().expect("unit returned"),
            dev: dev.take().expect("buffer returned"),
            duration: Duration::ZERO,
        });
        for op in stream.synchronize() {
            if let CompletedOp::MemcpyH2D {
                host: h, dev: d, ..
            } = op
            {
                host = Some(h);
                dev = Some(d);
            }
        }
    });
    out.put("gpu.h2d_us_per_batch", per_copy, "us");
    Ok(())
}

fn storage_and_graph(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    let records = corpus.records();
    let read = mean_us(20 * records.len(), |i| {
        let r = &records[i % records.len()];
        black_box(corpus.disk.read(r.disk_offset, r.len).expect("record"));
    });
    out.put("storage.read_us_per_image", read, "us");

    let config = GraphConfig {
        batch_size: BATCH,
        n_engines: 1,
        default_decode_parallelism: 1,
        seed: 0,
    };
    let compile = mean_us(200, |_| {
        let graph = fpga_training(TARGET.0 as u32, TARGET.1 as u32);
        black_box(graph.compile(&config).expect("canned graph compiles"));
    });
    out.put("graph.compile_us", compile, "us");
    Ok(())
}

fn net_and_serving(corpus: &Corpus, out: &mut Ledger) -> Result<(), String> {
    // Within the admission queue's capacity, so one sweep admits them all.
    let mut frames = serve::build_frames(corpus)?;
    frames.truncate(3 * serve::MAX_BATCH as usize);
    for (i, frame) in frames.iter_mut().enumerate() {
        serve::address_frame(frame, i as u64, i as u32 % serve::CLIENTS);
    }
    let nic = NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000);
    let collector = DataCollector::load_from_net();
    let mut bridge = ServingBridge::new(serve::serving_config());
    let mut descs = Vec::with_capacity(frames.len());
    let deliver = mean_us(frames.len(), |i| {
        descs.push(nic.deliver(&frames[i], 0).expect("well-formed frame"));
    });
    let fetch = mean_us(descs.len(), |i| {
        black_box(
            nic.fetch(descs[i].phys_addr, descs[i].len)
                .expect("held buffer"),
        );
    });
    // One sweep admits, queues and batches everything just delivered.
    let t0 = Instant::now();
    let sweep = bridge.ingest(&nic, &collector, 0);
    let ingest = us(t0.elapsed()) / sweep.offered.max(1) as f64;
    if sweep.admitted != frames.len() as u64 {
        return Err(format!(
            "serving drive admitted {} of {} requests",
            sweep.admitted,
            frames.len()
        ));
    }
    out.put("net.deliver_us_per_frame", deliver, "us");
    out.put("net.fetch_us_per_frame", fetch, "us");
    out.put("serving.ingest_us_per_request", ingest, "us");
    Ok(())
}
