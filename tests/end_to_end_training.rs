//! End-to-end functional training: dataset → FPGA decode → pool →
//! dispatcher → NVCaffe-like solvers, with pixel-integrity checks against a
//! host-side reference decode.

use dlbooster::prelude::*;
use std::sync::Arc;

fn build_pipeline(
    n_images: usize,
    n_engines: usize,
    batch: usize,
    max_batches: u64,
) -> (Arc<NvmeDisk>, Dataset, DlBooster) {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(n_images, 77), &disk).unwrap();
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
    let config = DlBoosterConfig::training(n_engines, batch, (48, 48), n_images, Some(max_batches));
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();
    (disk, dataset, booster)
}

#[test]
fn decoded_batches_match_reference_pixels() {
    let (disk, dataset, booster) = build_pipeline(8, 1, 4, 2);
    let decoder = JpegDecoder::new();
    let mut seen = 0;
    while let Ok(batch) = booster.next_batch(0) {
        for (i, item) in batch.unit.items().iter().enumerate() {
            // The collector is unshuffled, so items arrive in record order.
            let record = &dataset.records[(batch.sequence as usize * 4 + i) % 8];
            assert_eq!(item.label, record.label);
            let bytes = disk.read(record.disk_offset, record.len).unwrap();
            let reference = dlbooster::codec::resize::resize(
                &decoder.decode(&bytes).unwrap(),
                48,
                48,
                dlbooster::codec::resize::ResizeFilter::Bilinear,
            )
            .unwrap()
            .to_rgb();
            assert_eq!(
                batch.unit.item_bytes(i),
                reference.data(),
                "batch {} item {i} pixel mismatch",
                batch.sequence
            );
        }
        seen += 1;
        booster.recycle(batch.unit);
    }
    assert_eq!(seen, 2);
}

#[test]
fn graph_compiled_pipeline_matches_reference_pixels() {
    // The same reference-decode integrity check, but with the booster
    // assembled from a pipeline graph instead of the legacy constructor:
    // the graph plane must not perturb a single pixel on the wire.
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 77), &disk).unwrap();
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
    let config = DlBoosterConfig::training(1, 4, (48, 48), 8, Some(2));
    let booster = DlBooster::from_graph(
        collector,
        FpgaChannel::init(engine, 0),
        config,
        &dlbooster::graph::fpga_training(48, 48),
        0,
    )
    .unwrap();
    let decoder = JpegDecoder::new();
    let mut seen = 0;
    while let Ok(batch) = booster.next_batch(0) {
        for (i, item) in batch.unit.items().iter().enumerate() {
            let record = &dataset.records[(batch.sequence as usize * 4 + i) % 8];
            assert_eq!(item.label, record.label);
            let bytes = disk.read(record.disk_offset, record.len).unwrap();
            let reference = dlbooster::codec::resize::resize(
                &decoder.decode(&bytes).unwrap(),
                48,
                48,
                dlbooster::codec::resize::ResizeFilter::Bilinear,
            )
            .unwrap()
            .to_rgb();
            assert_eq!(
                batch.unit.item_bytes(i),
                reference.data(),
                "batch {} item {i} pixel mismatch",
                batch.sequence
            );
        }
        seen += 1;
        booster.recycle(batch.unit);
    }
    assert_eq!(seen, 2);
}

#[test]
fn full_training_session_with_dlbooster_backend() {
    let (_disk, _dataset, booster) = build_pipeline(16, 2, 4, 8);
    let booster: Arc<dyn PreprocessBackend> = Arc::new(booster);
    let gpus: Vec<GpuDevice> = (0..2)
        .map(|i| GpuDevice::new(GpuSpec::tesla_p100(), i))
        .collect();
    let report = TrainingSession::run(
        booster,
        &gpus,
        &TrainingConfig {
            model: ModelZoo::ResNet18,
            batch_size: 4,
            precision: Precision::Fp32,
            iterations: 4,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        },
    );
    assert_eq!(report.n_gpus, 2);
    assert_eq!(report.iterations, 8);
    assert_eq!(report.images, 32);
    assert!(report.modelled_throughput > 0.0);
    assert!(report.modelled_time.as_nanos() > 0);
}

#[test]
fn pipeline_snapshot_accounts_for_every_stage() {
    // One shared telemetry registry across decoder, channel, booster,
    // dispatcher and solvers; after all threads join, the aggregate
    // snapshot must balance and report every stage.
    let telemetry = Telemetry::with_defaults();
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(16, 21), &disk).unwrap();
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
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let config = DlBoosterConfig::training(2, 4, (32, 32), 16, Some(8));
    let booster =
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap();
    let booster: Arc<dyn PreprocessBackend> = Arc::new(booster);
    let gpus: Vec<GpuDevice> = (0..2)
        .map(|i| GpuDevice::new(GpuSpec::tesla_p100(), i))
        .collect();
    let report = TrainingSession::run_with_telemetry(
        Arc::clone(&booster),
        &gpus,
        &TrainingConfig {
            model: ModelZoo::LeNet5,
            batch_size: 4,
            precision: Precision::Fp32,
            iterations: 4,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        },
        &telemetry,
    );
    assert_eq!(report.iterations, 8);
    drop(booster); // join reader + decoder → quiescent counters

    let snap = telemetry.pipeline_snapshot();
    // Batch conservation at the reader boundary.
    assert!(snap.batches_in() > 0);
    assert_eq!(snap.batches_in(), snap.batches_out() + snap.batch_errors());
    // Every stage reported in.
    assert!(snap.channel.cmds_submitted > 0);
    assert!(snap.decoder.items_ok > 0);
    let lane = snap.decoder.lane_service.as_ref().expect("lane histogram");
    assert!(lane.count > 0, "decode latency histogram must be populated");
    assert!(snap.pool.leases > 0 && snap.pool.recycles > 0);
    assert_eq!(snap.engines.batches, report.iterations);
    assert!(snap.dispatcher.batches >= snap.engines.batches);
    assert!(snap.router_delivered >= report.iterations);
    // Submit latency recorded once per completed reader batch.
    let submit = snap
        .reader
        .submit_latency
        .as_ref()
        .expect("submit histogram");
    assert_eq!(submit.count, snap.batches_out());
    // Healthy, quiescent run: no conservation violation, no stall.
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
    assert!(
        snap.stalls.is_empty(),
        "healthy run must not trip the watchdog"
    );
    assert!(snap.to_text().contains("watchdog   quiet"));
}

#[test]
fn graph_compiled_pipeline_snapshot_accounts_for_every_stage() {
    // The telemetry conservation laws of the legacy snapshot test, run
    // through a graph-compiled booster: every stage still reports in and
    // every invariant still balances when the pipeline is assembled from
    // a user-supplied `PipelineGraph` (`from_graph`) instead of `start`.
    let telemetry = Telemetry::with_defaults();
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(16, 21), &disk).unwrap();
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
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let config = DlBoosterConfig::training(2, 4, (32, 32), 16, Some(8));
    let booster = DlBooster::from_graph_with_telemetry(
        collector,
        channel,
        config,
        &dlbooster::graph::fpga_training(32, 32),
        0,
        Arc::clone(&telemetry),
    )
    .unwrap();
    let booster: Arc<dyn PreprocessBackend> = Arc::new(booster);
    let gpus: Vec<GpuDevice> = (0..2)
        .map(|i| GpuDevice::new(GpuSpec::tesla_p100(), i))
        .collect();
    let report = TrainingSession::run_with_telemetry(
        Arc::clone(&booster),
        &gpus,
        &TrainingConfig {
            model: ModelZoo::LeNet5,
            batch_size: 4,
            precision: Precision::Fp32,
            iterations: 4,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        },
        &telemetry,
    );
    assert_eq!(report.iterations, 8);
    drop(booster);

    let snap = telemetry.pipeline_snapshot();
    assert!(snap.batches_in() > 0);
    assert_eq!(snap.batches_in(), snap.batches_out() + snap.batch_errors());
    assert!(snap.channel.cmds_submitted > 0);
    assert!(snap.decoder.items_ok > 0);
    assert!(snap.pool.leases > 0 && snap.pool.recycles > 0);
    assert_eq!(snap.engines.batches, report.iterations);
    assert!(snap.dispatcher.batches >= snap.engines.batches);
    assert!(snap.router_delivered >= report.iterations);
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
    assert!(
        snap.stalls.is_empty(),
        "healthy run must not trip the watchdog"
    );
}

#[test]
fn sample_cache_eliminates_epoch2_decode_with_identical_batches() {
    // Two identical 2-epoch runs (8 images, batch 4, unshuffled), one with
    // the decoded-sample cache and one without. The cached run must decode
    // each image exactly once — epoch 2 is served wholly from cache — and
    // still deliver bitwise-identical batches. `pool_units: 1` serialises
    // the reader behind the consumer so every epoch-1 insert lands before
    // any epoch-2 lookup.
    let run = |sample_cache_bytes: u64| {
        let telemetry = Telemetry::with_defaults();
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 77), &disk).unwrap();
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
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let mut config = DlBoosterConfig::training(1, 4, (32, 32), 8, Some(4));
        config.sample_cache_bytes = sample_cache_bytes;
        config.pool_units = 1;
        let booster =
            DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
                .unwrap();
        let mut payloads = Vec::new();
        while let Ok(batch) = booster.next_batch(0) {
            let mut payload = vec![0; batch.unit.used()];
            batch.unit.gather_into(&mut payload);
            payloads.push(payload);
            booster.recycle(batch.unit);
        }
        let cache = booster.sample_cache();
        drop(booster); // join the reader → quiescent counters
        (payloads, telemetry.pipeline_snapshot(), cache)
    };

    let (cached_payloads, snap, cache) = run(64 << 20);
    let (live_payloads, _, no_cache) = run(0);
    assert!(no_cache.is_none());
    assert_eq!(cached_payloads.len(), 4);
    // Bitwise-identical batches, cache on or off.
    assert_eq!(cached_payloads, live_payloads);
    let cache = cache.expect("sample_cache_bytes > 0 builds a cache");
    // Epoch 2 never touched the FPGA: only epoch 1's two batches were
    // submitted and only its 8 images decoded.
    assert!(
        cache.bypass_batches() >= 2,
        "epoch 2 must bypass the device"
    );
    let (_, hits, misses) = cache.lookup_stats();
    assert!(hits >= 8, "epoch-2 lookups must all hit, hits = {hits}");
    assert!(misses <= 2, "only epoch 1 may miss, misses = {misses}");
    assert_eq!(snap.batches_in(), 2, "only epoch 1 submitted to the FPGA");
    assert_eq!(snap.decoder.items_ok, 8, "each image decoded exactly once");
    assert!(snap.cache.hits >= 8);
    assert!(snap.cache.bypass_batches >= 2);
    assert!(snap.cache.capacity_bytes > 0);
    // Every cache.* conservation law holds in the final snapshot.
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
}

#[test]
fn hybrid_cache_serves_later_epochs_in_full_pipeline() {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let n_images = 8;
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(n_images, 5), &disk).unwrap();
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
    // The training default's sample cache holds the dataset; run 3 epochs
    // worth. One pool unit lets every epoch-1 admission land before the
    // first epoch-2 lookup.
    let mut config = DlBoosterConfig::training(1, 4, (32, 32), n_images, Some(6));
    config.pool_units = 1;
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();
    let mut payloads = Vec::new();
    while let Ok(batch) = booster.next_batch(0) {
        let mut payload = vec![0; batch.unit.used()];
        batch.unit.gather_into(&mut payload);
        payloads.push(payload);
        booster.recycle(batch.unit);
    }
    assert_eq!(payloads.len(), 6);
    // Epochs replay identically from the cache (unshuffled collector).
    assert_eq!(payloads[0], payloads[2]);
    assert_eq!(payloads[0], payloads[4]);
    assert_eq!(payloads[1], payloads[3]);
    let cache = booster.sample_cache().expect("training builds the cache");
    assert_eq!(cache.bypass_batches(), 4, "epochs 2-3 bypass the decoder");
}
