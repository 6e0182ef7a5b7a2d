//! Failure injection across the pipeline: corrupt payloads, missing
//! sources, undersized destinations and mid-run shutdowns must degrade
//! gracefully — errors surface in FINISH signals and counters, never as
//! hangs or panics.

use dlbooster::fpga::{MapResolver, Submission};
use dlbooster::prelude::*;
use std::sync::Arc;

fn engine_with(resolver: Arc<MapResolver>) -> DecoderEngine {
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    DecoderEngine::start(device, resolver).unwrap()
}

fn good_jpeg(seed: u64) -> Vec<u8> {
    let img =
        dlbooster::codec::synth::generate(40, 30, dlbooster::codec::synth::SynthStyle::Photo, seed);
    JpegEncoder::new(85).unwrap().encode(&img).unwrap()
}

#[test]
fn corrupt_payloads_fail_item_not_batch() {
    let resolver = Arc::new(MapResolver::new());
    let engine = engine_with(Arc::clone(&resolver));
    let pool = MemManager::new(PoolConfig {
        unit_size: 1 << 20,
        unit_count: 2,
        phys_base: 0x4_0000_0000,
    })
    .unwrap();

    // Mix: valid, truncated, bit-flipped, empty-garbage.
    let mut clean = good_jpeg(1);
    let valid = resolver.put_disk(0, clean.clone());
    clean.truncate(clean.len() / 3);
    let truncated = resolver.put_disk(1 << 20, clean);
    let mut flipped = good_jpeg(2);
    for b in flipped.iter_mut().skip(100).step_by(7) {
        *b ^= 0xA5;
    }
    let corrupted = resolver.put_disk(2 << 20, flipped);
    let garbage = resolver.put_disk(3 << 20, vec![0x55; 4096]);

    let mut unit = pool.get_item().unwrap();
    let mut cmds = Vec::new();
    for (i, src) in [valid, truncated, corrupted, garbage]
        .into_iter()
        .enumerate()
    {
        let off = unit.reserve(24 * 24 * 3, i as u64, 24, 24, 3).unwrap();
        cmds.push(
            DecodeCmd {
                cmd_id: i as u64,
                src,
                dst_phys: unit.phys_addr() + off as u64,
                dst_capacity: 24 * 24 * 3,
                target_w: 24,
                target_h: 24,
                format: OutputFormat::Rgb8,
            }
            .pack(),
        );
    }
    engine.submit(Submission { unit, cmds }).unwrap();
    let done = engine.completions().pop().unwrap();
    assert_eq!(done.finishes.len(), 4);
    assert!(done.finishes[0].status.is_ok(), "valid image must decode");
    assert!(
        !done.finishes[1].status.is_ok(),
        "truncated stream must fail"
    );
    // The bit-flipped stream may decode to garbage pixels or fail — both
    // are acceptable; the batch as a whole must complete.
    assert!(!done.finishes[3].status.is_ok(), "pure garbage must fail");
    assert!(done.ok_count() >= 1 && done.ok_count() <= 2);
    pool.recycle_item(done.unit).unwrap();
}

#[test]
fn corrupt_restart_segment_fails_cleanly_and_counts() {
    // An image encoded with restart intervals whose first restart marker is
    // rewritten out of order: the corruption the restart-segment index
    // validates. The item must fail cleanly — no panic, no lane left
    // blocked — and count in the corrupt-payload telemetry when run through
    // the engine.
    let img =
        dlbooster::codec::synth::generate(48, 48, dlbooster::codec::synth::SynthStyle::Photo, 21);
    let mut bytes = JpegEncoder::new(85)
        .unwrap()
        .with_restart_interval(1)
        .encode(&img)
        .unwrap();
    let rst = bytes
        .windows(2)
        .position(|w| w[0] == 0xFF && (0xD0..=0xD7).contains(&w[1]))
        .expect("interval-1 stream must contain restart markers");
    bytes[rst + 1] = 0xD5; // RST5 where RST0 is expected

    assert!(
        JpegDecoder::new().decode(&bytes).is_err(),
        "out-of-order RSTn must be rejected"
    );

    // Through the decoder engine with a shared registry: the bad segment
    // fails its item, the good neighbour still decodes, and the failure
    // lands in the corrupt-payload counters.
    let telemetry = Telemetry::with_defaults();
    let resolver = Arc::new(MapResolver::new());
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine =
        DecoderEngine::start_with_telemetry(device, Arc::clone(&resolver) as _, &telemetry)
            .unwrap();
    let pool = MemManager::new(PoolConfig {
        unit_size: 1 << 20,
        unit_count: 2,
        phys_base: 0x4_0000_0000,
    })
    .unwrap();
    let corrupt = resolver.put_disk(0, bytes);
    let valid = resolver.put_disk(1 << 20, good_jpeg(3));
    let mut unit = pool.get_item().unwrap();
    let mut cmds = Vec::new();
    for (i, src) in [corrupt, valid].into_iter().enumerate() {
        let off = unit.reserve(24 * 24 * 3, i as u64, 24, 24, 3).unwrap();
        cmds.push(
            DecodeCmd {
                cmd_id: i as u64,
                src,
                dst_phys: unit.phys_addr() + off as u64,
                dst_capacity: 24 * 24 * 3,
                target_w: 24,
                target_h: 24,
                format: OutputFormat::Rgb8,
            }
            .pack(),
        );
    }
    engine.submit(Submission { unit, cmds }).unwrap();
    let done = engine.completions().pop().unwrap();
    assert_eq!(done.finishes.len(), 2);
    assert!(
        !done.finishes[0].status.is_ok(),
        "corrupt restart segment must fail its item"
    );
    assert!(
        done.finishes[1].status.is_ok(),
        "neighbouring item must be unaffected"
    );
    pool.recycle_item(done.unit).unwrap();
    drop(engine); // quiesce so counters are final

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(snap.decoder.items_err, 1);
    assert_eq!(snap.decoder.items_ok, 1);
    assert_eq!(
        snap.decoder.items_in,
        snap.decoder.items_ok + snap.decoder.items_err
    );
}

#[test]
fn reader_counts_item_errors_and_keeps_flowing() {
    // A dataset where half the disk objects are corrupted after manifest
    // creation: the reader keeps producing batches; errors land in stats.
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 9), &disk).unwrap();
    // Re-register even records as garbage under *new* offsets, then patch
    // the manifest to point there.
    let mut records = dataset.records.clone();
    for r in records.iter_mut().step_by(2) {
        let (off, len) = disk.append(vec![0xEE; r.len as usize]).unwrap();
        r.disk_offset = off;
        r.len = len;
    }
    let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
    )
    .unwrap();
    let config = DlBoosterConfig::training(1, 4, (32, 32), 8, Some(2));
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();
    let mut delivered = 0;
    while let Ok(batch) = booster.next_batch(0) {
        assert_eq!(batch.len(), 4, "failed items still occupy their slots");
        delivered += 1;
        booster.recycle(batch.unit);
    }
    assert_eq!(delivered, 2, "errors must not stall delivery");
}

#[test]
fn corrupt_payloads_surface_in_telemetry_counters() {
    // Same corruption scheme as above, but through the full booster with a
    // shared registry: failed items must land in the decoder and reader
    // error counters without breaking conservation.
    let telemetry = Telemetry::with_defaults();
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 9), &disk).unwrap();
    let mut records = dataset.records.clone();
    for r in records.iter_mut().step_by(2) {
        let (off, len) = disk.append(vec![0xEE; r.len as usize]).unwrap();
        r.disk_offset = off;
        r.len = len;
    }
    let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
        &telemetry,
    )
    .unwrap();
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::training(1, 4, (32, 32), 8, Some(2));
    // Counts decoder item errors: every item is decoded.
    config.sample_cache_bytes = 0;
    let booster =
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap();
    let mut delivered = 0;
    while let Ok(batch) = booster.next_batch(0) {
        delivered += 1;
        booster.recycle(batch.unit);
    }
    assert_eq!(delivered, 2);
    drop(booster); // quiesce

    let snap = telemetry.pipeline_snapshot();
    assert!(
        snap.decoder.items_err >= 4,
        "half the items are garbage: items_err = {}",
        snap.decoder.items_err
    );
    assert_eq!(snap.reader.item_errors, snap.decoder.items_err);
    assert_eq!(
        snap.decoder.items_in,
        snap.decoder.items_ok + snap.decoder.items_err
    );
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
}

#[test]
fn stalled_queue_trips_the_watchdog() {
    // A queue that receives work but is never consumed must be flagged
    // once its heartbeat goes quiet past the (tiny) threshold.
    let telemetry = Telemetry::new(std::time::Duration::from_millis(5));
    let q: BlockingQueue<u32> = BlockingQueue::bounded(4);
    q.instrument(&telemetry, "stuck_stage");
    q.push(7).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(40));
    let snap = telemetry.pipeline_snapshot();
    assert!(
        snap.stalls.iter().any(|s| s.stage == "stuck_stage"),
        "expected a stall report, got {:?}",
        snap.stalls
    );
    assert!(snap.to_text().contains("STALL"));
    // Draining the queue and beating again clears the verdict.
    assert_eq!(q.pop().unwrap(), 7);
    assert!(
        telemetry
            .watchdog
            .stalled()
            .iter()
            .all(|s| s.stage != "stuck_stage"),
        "drained queue must not be reported stalled"
    );
}

#[test]
fn mid_run_shutdown_terminates_cleanly() {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(16, 31), &disk).unwrap();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 1));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
    )
    .unwrap();
    // Unbounded run, killed from outside after two batches.
    let telemetry = Telemetry::with_defaults();
    let config = DlBoosterConfig::training(1, 4, (32, 32), 16, None);
    let booster = Arc::new(
        DlBooster::start_with_telemetry(
            collector,
            FpgaChannel::init(engine, 0),
            config,
            Arc::clone(&telemetry),
        )
        .unwrap(),
    );
    for _ in 0..2 {
        let batch = booster.next_batch(0).unwrap();
        booster.recycle(batch.unit);
    }
    booster.shutdown();
    // Further consumption drains whatever was queued, then errors — no hang.
    loop {
        match booster.next_batch(0) {
            Ok(batch) => booster.recycle(batch.unit),
            Err(e) => {
                assert_eq!(e, dlbooster::core::BackendError::Exhausted);
                break;
            }
        }
    }
    drop(booster); // join the reader so exit-time accounting lands
                   // Batches in flight at kill time are charged to batch_errors, so
                   // conservation still balances after a forced shutdown.
    let snap = telemetry.pipeline_snapshot();
    assert!(snap.batches_in() >= 2);
    assert_eq!(snap.batches_in(), snap.batches_out() + snap.batch_errors());
    assert_eq!(snap.reader.inflight, 0);
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
}

#[test]
fn nic_rejects_malformed_frames_without_poisoning_stream() {
    let nic = NicRx::new(NicSpec::forty_gbps(), 0x9_0000_0000);
    // Garbage, then a real frame: the real one must still flow.
    assert!(nic.deliver(&[0xFF; 64], 0).is_err());
    let frame = dlbooster::net::Frame {
        request_id: 5,
        client_id: 2,
        send_ts_nanos: 0,
        payload: good_jpeg(11),
    };
    let desc = nic.deliver(&frame.encode(), 10).unwrap();
    assert_eq!(desc.request_id, 5);
    let (ok, bad, _) = nic.counters();
    assert_eq!((ok, bad), (1, 1));
}

#[test]
fn killed_fpga_fails_over_to_cpu_and_completes_the_run() {
    // Kill the FPGA mid-run: chaos wedges every other lane job for 60 s,
    // far past the failover deadline. The run must still deliver exactly
    // the configured number of batches — the first few from the FPGA
    // primary, the rest from the CPU fallback — with per-batch accounting
    // intact and exactly one failover recorded.
    use dlbooster::chaos::Stage;
    use std::time::Duration;

    let total: u64 = 10;
    let batch = 4usize;
    let telemetry = Telemetry::with_defaults();
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset =
        Dataset::build(DatasetSpec::ilsvrc_small(total as usize * batch, 51), &disk).unwrap();
    let records = dataset.records.clone();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
        &telemetry,
    )
    .unwrap();

    let mut plan = FaultPlan::disabled();
    plan.seed = 23;
    plan.fpga = StageSpec::rate(0.5).with_delay(Duration::from_secs(60));
    let cancel = plan.cancel_token();
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());

    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let config = DlBoosterConfig::training(1, batch, (32, 32), total as usize * batch, Some(total));
    let primary = Arc::new(
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap(),
    );

    let t2 = Arc::clone(&telemetry);
    let backend = FailoverBackend::new(
        Arc::clone(&primary),
        Box::new(move |remaining| {
            let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
            CpuBackend::start_with_telemetry(
                collector,
                Arc::new(CombinedResolver::disk_only(disk)),
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size: batch,
                    target_w: 32,
                    target_h: 32,
                    workers: 2,
                    max_batches: Some(remaining),
                    sample_cache: None,
                },
                t2,
            )
            .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
        }),
        dlbooster::backends::FailoverConfig {
            total_batches: total,
            deadline: Duration::from_millis(200),
            chaos_cancel: Some(cancel),
        },
        &telemetry,
    );

    let mut from_primary = 0u64;
    let mut from_fallback = 0u64;
    let mut primary_seqs = std::collections::HashSet::new();
    loop {
        match backend.next_batch(0) {
            Ok(b) => {
                assert_eq!(b.len(), batch, "every batch arrives full");
                if primary.pool().owns(&b.unit) {
                    from_primary += 1;
                    assert!(
                        primary_seqs.insert(b.sequence),
                        "duplicated primary batch {}",
                        b.sequence
                    );
                } else {
                    from_fallback += 1;
                }
                backend.recycle(b.unit);
            }
            Err(dlbooster::core::BackendError::Exhausted) => break,
            Err(e) => panic!("run must complete cleanly, got {e}"),
        }
    }
    assert!(
        backend.failed_over(),
        "the wedged FPGA must trigger failover"
    );
    assert_eq!(
        from_primary + from_fallback,
        total,
        "no lost or duplicated batches (primary {from_primary} + fallback {from_fallback})"
    );
    assert_eq!(from_primary, primary.delivered());
    assert!(from_fallback > 0, "CPU fallback must carry the remainder");
    backend.shutdown();
    drop(backend);
    drop(primary); // join the pipeline threads so counters are final

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(snap.chaos.failovers, 1, "exactly one failover recorded");
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
}

#[test]
fn failover_shares_the_sample_cache_with_the_cpu_fallback() {
    // Same kill-the-FPGA scenario, but with one decoded-sample cache
    // shared across the failover pair: whatever the FPGA primary decoded
    // before dying stays warm, so the CPU fallback re-serves those
    // samples from memory instead of re-decoding them — and whole
    // cache-hit batches bypass decode entirely on later epochs. The
    // delivery accounting must stay exact with bypass batches in the mix.
    use dlbooster::chaos::Stage;
    use std::time::Duration;

    let total: u64 = 12;
    let batch = 4usize;
    let per_epoch = 4usize; // 16 images / batch 4 → three epochs in 12 batches
    let telemetry = Telemetry::with_defaults();
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(per_epoch * batch, 51), &disk).unwrap();
    let records = dataset.records.clone();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
        &telemetry,
    )
    .unwrap();

    let mut plan = FaultPlan::disabled();
    plan.seed = 23;
    plan.fpga = StageSpec::rate(0.5).with_delay(Duration::from_secs(60));
    let cancel = plan.cancel_token();
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());

    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::training(1, batch, (32, 32), per_epoch * batch, Some(total));
    // The shared cache attached below stands in for the built-in one.
    config.sample_cache_bytes = 0;
    let primary = Arc::new(
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap(),
    );
    let cache = SampleCache::with_telemetry(64 << 20, &telemetry);
    primary.attach_sample_cache(Arc::clone(&cache));

    let t2 = Arc::clone(&telemetry);
    let shared = Arc::clone(&cache);
    let backend = FailoverBackend::new(
        Arc::clone(&primary),
        Box::new(move |remaining| {
            let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
            CpuBackend::start_with_telemetry(
                collector,
                Arc::new(CombinedResolver::disk_only(disk)),
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size: batch,
                    target_w: 32,
                    target_h: 32,
                    workers: 2,
                    max_batches: Some(remaining),
                    sample_cache: Some(Arc::clone(&shared)),
                },
                t2,
            )
            .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
        }),
        dlbooster::backends::FailoverConfig {
            total_batches: total,
            deadline: Duration::from_millis(200),
            chaos_cancel: Some(cancel),
        },
        &telemetry,
    );

    let mut from_primary = 0u64;
    let mut from_fallback = 0u64;
    loop {
        match backend.next_batch(0) {
            Ok(b) => {
                assert_eq!(b.len(), batch, "every batch arrives full");
                if primary.pool().owns(&b.unit) {
                    from_primary += 1;
                } else {
                    from_fallback += 1;
                }
                backend.recycle(b.unit);
            }
            Err(dlbooster::core::BackendError::Exhausted) => break,
            Err(e) => panic!("run must complete cleanly, got {e}"),
        }
    }
    assert!(
        backend.failed_over(),
        "the wedged FPGA must trigger failover"
    );
    assert_eq!(from_primary + from_fallback, total, "no lost batches");
    assert!(from_fallback > 0, "CPU fallback must carry the remainder");
    backend.shutdown();
    drop(backend);
    drop(primary); // join both pipelines so counters are final

    // The shared cache did real work across the failover boundary: 12
    // delivered batches cover three passes over 16 records, so whichever
    // side served a record's second sighting must have hit.
    let (_, hits, _) = cache.lookup_stats();
    assert!(hits > 0, "repeat sightings must hit the shared cache");
    assert!(
        cache.bypass_batches() >= 1,
        "a fully-resident batch must bypass decode"
    );
    // Batches wedged in flight at kill time surface as failed finishes,
    // and the reader conservatively quarantines their keys. Quarantine
    // must still exclude residency for every source.
    for r in &dataset.records {
        let key = SampleKey::Disk {
            offset: r.disk_offset,
            len: r.len,
        };
        assert!(
            !(cache.contains(&key) && cache.is_quarantined(&key)),
            "quarantined source {key:?} is resident in the shared cache"
        );
    }

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(snap.chaos.failovers, 1, "exactly one failover recorded");
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
}

#[test]
fn pool_exhaustion_applies_backpressure_not_failure() {
    // One unit, slow consumer: the reader must block (not error, not drop)
    // and resume when the unit is recycled.
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 3), &disk).unwrap();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
    )
    .unwrap();
    let mut config = DlBoosterConfig::training(1, 4, (32, 32), 8, Some(4));
    config.pool_units = 2; // tight pool → real backpressure
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();
    let mut seen = 0;
    while let Ok(batch) = booster.next_batch(0) {
        std::thread::sleep(std::time::Duration::from_millis(5)); // slow consumer
        seen += 1;
        booster.recycle(batch.unit);
    }
    assert_eq!(seen, 4, "backpressure must not lose batches");
}
