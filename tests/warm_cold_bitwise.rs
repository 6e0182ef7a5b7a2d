//! Warm against cold, bitwise, through the real `Dispatcher` and H2D copy.
//!
//! A batch served from the decoded-sample cache reaches the device as lent
//! cache slots that the H2D copy gathers in one pass; a cold batch is
//! decoded into its unit and copied whole. The `DeviceBatch` bytes of every
//! batch must be identical either way — on the FPGA-functional path, the CPU
//! backend, and the CPU backend with an augmentor — and must stay so when a
//! chaos-failed copy drops a batch. The training default's hybrid mode (a
//! sample cache holding one epoch) must keep every later epoch's shuffle and
//! augmentation draws. At quiescence every pool lease has been recycled and
//! no cache slot is still pinned.

use dlbooster::gpu::StreamSet;
use dlbooster::prelude::*;
use std::sync::Arc;

const N_IMAGES: usize = 16;
const BATCH: usize = 4;
const EPOCH: u64 = (N_IMAGES / BATCH) as u64;
const EPOCHS: u64 = 3;
const TARGET: (u16, u16) = (32, 32);
const ITEM_BYTES: usize = TARGET.0 as usize * TARGET.1 as usize * 3;
const SAMPLE_CACHE: u64 = 64 << 20;
/// Collector shuffle seed of the shuffled runs (reshuffles every epoch).
const SHUFFLE: u64 = 5;

/// `(sequence, device bytes)` of every delivered batch, in sequence order.
type DeviceBytes = Vec<(u64, Vec<u8>)>;

fn dataset() -> (Arc<NvmeDisk>, Dataset) {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(N_IMAGES, 41), &disk).unwrap();
    (disk, dataset)
}

/// Drains `backend` through a dispatcher and one copy stream (optionally
/// under GPU-plane chaos), returning the device bytes of every batch and
/// the number of failed copies.
fn device_batches(
    backend: Arc<dyn PreprocessBackend>,
    telemetry: &Telemetry,
    gpu_chaos: Option<FaultPlan>,
) -> (DeviceBytes, u64) {
    let gpu = GpuDevice::new(GpuSpec::tesla_p100(), 0);
    let streams = Arc::new(StreamSet::new("h2d", 1, 0.0));
    if let Some(plan) = gpu_chaos {
        let injector = plan.injector(Stage::Gpu, telemetry).unwrap();
        streams.stream(0).attach_chaos(injector);
    }
    let dispatcher = Dispatcher::start_with_telemetry(
        Arc::clone(&backend),
        streams,
        1,
        2,
        gpu.spec().pcie_bytes_per_sec,
        telemetry,
    );
    let trans = dispatcher.trans_queues(0);
    for _ in 0..2 {
        trans
            .free
            .push(gpu.alloc(backend.max_batch_bytes()).unwrap())
            .unwrap();
    }
    let mut batches = Vec::new();
    while let Ok(batch) = trans.full.pop() {
        let used = batch.items.last().map_or(0, |it| it.offset + it.len);
        batches.push((batch.sequence, batch.dev.bytes()[..used].to_vec()));
        trans.free.push(batch.dev).unwrap();
    }
    let copy_errors = dispatcher.stats().copy_errors.get();
    dispatcher.join();
    batches.sort_by_key(|(sequence, _)| *sequence);
    (batches, copy_errors)
}

struct Run {
    batches: DeviceBytes,
    copy_errors: u64,
    cache: Option<Arc<SampleCache>>,
}

/// Asserts the quiescent pipeline kept its books: every conservation law
/// (the pinned-bytes rows included), every lease recycled, nothing pinned.
fn assert_quiescent(telemetry: &Telemetry, cache: Option<&SampleCache>) {
    let snap = telemetry.pipeline_snapshot();
    assert_eq!(
        snap.invariant_violations(),
        Vec::<String>::new(),
        "conservation laws"
    );
    assert_eq!(snap.pool.leases, snap.pool.recycles, "every lease recycled");
    if let Some(cache) = cache {
        assert_eq!(cache.pinned_bytes(), 0, "a slot is still pinned");
    }
}

/// One pool unit serialises the reader behind the copy engine, so every
/// epoch-1 admission lands before the first epoch-2 lookup.
fn serial(config: &mut DlBoosterConfig) {
    config.pool_units = 1;
}

/// [`serial`], decoding every batch.
fn serial_cold(config: &mut DlBoosterConfig) {
    serial(config);
    no_cache(config);
}

/// Decodes every batch: no sample cache.
fn no_cache(config: &mut DlBoosterConfig) {
    config.sample_cache_bytes = 0;
}

/// A three-epoch FPGA-functional run through the dispatcher over a
/// collector with shuffle seed `shuffle`: the canned chain, or `graph` with
/// run seed 7. `setup` adjusts the default training config.
fn fpga_run(
    shuffle: u64,
    graph: Option<&PipelineGraph>,
    setup: impl FnOnce(&mut DlBoosterConfig),
    gpu_chaos: Option<FaultPlan>,
) -> Run {
    let telemetry = Telemetry::with_defaults();
    let (disk, dataset) = dataset();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, shuffle));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::disk_only(disk)),
        &telemetry,
    )
    .unwrap();
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::training(1, BATCH, TARGET, N_IMAGES, Some(EPOCH * EPOCHS));
    setup(&mut config);
    let shared = Arc::clone(&telemetry);
    let booster = Arc::new(
        match graph {
            Some(graph) => {
                DlBooster::from_graph_with_telemetry(collector, channel, config, graph, 7, shared)
            }
            None => DlBooster::start_with_telemetry(collector, channel, config, shared),
        }
        .unwrap(),
    );
    let (batches, copy_errors) = device_batches(booster.clone(), &telemetry, gpu_chaos);
    let cache = booster.sample_cache();
    drop(booster); // joins the reader: quiescent
    assert_quiescent(&telemetry, cache.as_deref());
    Run {
        batches,
        copy_errors,
        cache,
    }
}

/// A three-epoch CPU-backend run with one worker (so delivery order and
/// cache residency are deterministic), optionally augmented.
fn cpu_run(cache: Option<Arc<SampleCache>>, augmented: bool) -> Run {
    let telemetry = Telemetry::with_defaults();
    let (disk, dataset) = dataset();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let resolver = Arc::new(CombinedResolver::disk_only(disk));
    let config = CpuBackendConfig {
        n_engines: 1,
        batch_size: BATCH,
        target_w: 48,
        target_h: 48,
        workers: 1,
        max_batches: Some(EPOCH * EPOCHS),
        sample_cache: cache.clone(),
    };
    let backend = if augmented {
        let graph = dlbooster::graph::augmented_training(
            DecodeDevice::Cpu,
            (48, 48),
            (32, 32),
            0.5,
            None,
            1,
        )
        .unwrap();
        CpuBackend::from_graph(collector, resolver, config, &graph, 7)
    } else {
        CpuBackend::start(collector, resolver, config)
    }
    .unwrap();
    let pool = backend.pool().clone();
    let backend = Arc::new(backend);
    let (batches, copy_errors) = device_batches(backend.clone(), &telemetry, None);
    drop(backend); // joins the workers: quiescent
    let stats = pool.stats();
    assert_eq!(stats.lease_ops, stats.recycle_ops, "every lease recycled");
    assert_eq!(stats.leased, 0);
    if let Some(cache) = &cache {
        assert_eq!(cache.pinned_bytes(), 0, "a slot is still pinned");
    }
    Run {
        batches,
        copy_errors,
        cache,
    }
}

/// Warm and cold runs delivered the same bytes for every batch both
/// delivered.
fn assert_bitwise(warm: &Run, cold: &Run) {
    assert!(!warm.batches.is_empty());
    for (sequence, bytes) in &warm.batches {
        let (_, reference) = cold
            .batches
            .iter()
            .find(|(s, _)| s == sequence)
            .expect("cold run delivered every sequence");
        assert!(bytes == reference, "batch {sequence} differs warm vs cold");
    }
}

fn bypassed(run: &Run) -> u64 {
    run.cache.as_ref().expect("cached run").bypass_batches()
}

/// Each epoch's items in delivery order, every item `item_bytes` long.
fn epoch_items(run: &Run, item_bytes: usize) -> Vec<Vec<&[u8]>> {
    run.batches
        .chunks(EPOCH as usize)
        .map(|epoch| {
            epoch
                .iter()
                .flat_map(|(_, bytes)| bytes.chunks(item_bytes))
                .collect()
        })
        .collect()
}

#[test]
fn fpga_path_resident_epochs_equal_decoded_epochs() {
    let cold = fpga_run(0, None, serial_cold, None);
    let warm = fpga_run(0, None, serial, None);
    assert_eq!(cold.batches.len() as u64, EPOCH * EPOCHS);
    assert_eq!(warm.batches.len(), cold.batches.len());
    assert_bitwise(&warm, &cold);
    assert_eq!(bypassed(&warm), (EPOCHS - 1) * EPOCH, "epochs 2+ resident");
}

#[test]
fn cpu_backend_resident_epochs_equal_decoded_epochs() {
    let cold = cpu_run(None, false);
    let warm = cpu_run(Some(SampleCache::new(SAMPLE_CACHE)), false);
    assert_eq!(warm.batches.len(), cold.batches.len());
    assert_bitwise(&warm, &cold);
    assert_eq!(bypassed(&warm), (EPOCHS - 1) * EPOCH, "epochs 2+ resident");
}

#[test]
fn cpu_backend_with_augmentor_resident_epochs_equal_decoded_epochs() {
    // Each epoch draws its own crops, so the comparison is epoch for
    // epoch: a resident epoch re-augments its cached pixels under the same
    // draws the live decode of that epoch makes.
    let cold = cpu_run(None, true);
    let warm = cpu_run(Some(SampleCache::new(SAMPLE_CACHE)), true);
    assert_eq!(warm.batches.len(), cold.batches.len());
    assert_bitwise(&warm, &cold);
    assert_eq!(bypassed(&warm), (EPOCHS - 1) * EPOCH, "epochs 2+ resident");
}

#[test]
fn a_failed_h2d_copy_still_unpins_its_slots() {
    let cold = fpga_run(0, None, serial_cold, None);
    let mut plan = FaultPlan::disabled();
    plan.seed = 3;
    plan.gpu = dlbooster::chaos::StageSpec::rate(0.4);
    // `fpga_run` asserts nothing is pinned once the pipeline is quiet.
    let warm = fpga_run(0, None, serial, Some(plan));
    assert!(warm.copy_errors > 0, "a 40% rate must fail some copies");
    assert!(bypassed(&warm) > 0);
    assert_eq!(
        warm.batches.len() as u64 + warm.copy_errors,
        EPOCH * EPOCHS,
        "every batch either lands or fails its copy"
    );
    assert_bitwise(&warm, &cold);
}

#[test]
fn hybrid_mode_keeps_each_epochs_shuffle_and_equals_a_cold_run() {
    // The default training config, untouched: its sample cache holds the
    // whole corpus. Later epochs come from memory, yet each keeps the
    // collector's own shuffle — the batches equal a cold run's, seed for
    // seed.
    let warm = fpga_run(SHUFFLE, None, |_| {}, None);
    let cold = fpga_run(SHUFFLE, None, no_cache, None);
    assert_eq!(warm.batches.len() as u64, EPOCH * EPOCHS);
    assert_eq!(warm.batches.len(), cold.batches.len());
    let epochs = epoch_items(&warm, ITEM_BYTES);
    assert!(
        epochs[1] != epochs[0],
        "epoch 1 must not replay epoch 0's order"
    );
    let (mut first, mut second) = (epochs[0].clone(), epochs[1].clone());
    first.sort_unstable();
    second.sort_unstable();
    assert!(first == second, "every epoch covers the same samples");
    assert_bitwise(&warm, &cold);
    assert!(
        bypassed(&warm) >= EPOCH,
        "the third epoch is resident and bypasses the decoder"
    );
}

#[test]
fn hybrid_mode_redraws_augmentation_per_epoch_and_equals_a_cold_run() {
    // Cached samples are pre-augmentation pixels: a resident sample
    // re-augments under the epoch that dispenses it, exactly as its live
    // decode would have.
    let graph = dlbooster::graph::augmented_training(
        DecodeDevice::Fpga,
        (TARGET.0 as u32, TARGET.1 as u32),
        (24, 24),
        0.5,
        None,
        1,
    )
    .unwrap();
    let warm = fpga_run(SHUFFLE, Some(&graph), |_| {}, None);
    let cold = fpga_run(SHUFFLE, Some(&graph), no_cache, None);
    assert_eq!(warm.batches.len(), cold.batches.len());
    assert_bitwise(&warm, &cold);
    assert!(bypassed(&warm) >= EPOCH, "the third epoch is resident");
}
