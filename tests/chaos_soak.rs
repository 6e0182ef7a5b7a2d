//! Chaos soak battery: every fault plane armed at once, across many
//! seeds, over both workflow shapes (dataset training and served
//! inference). The invariants under test:
//!
//! * **Clean termination** — no run hangs, no batch is left in flight.
//! * **Conservation** — batches in = batches out + batch errors, item
//!   accounting balances, and the telemetry invariant checker stays
//!   silent, faults or not.
//! * **Determinism** — replaying a seed reproduces the same injected
//!   faults and the same decode outcome (stages keyed by stable
//!   identities: disk offset, cmd id, frame ordinal). The pool plane is
//!   keyed by lease order and injects only latency, so it is armed but
//!   excluded from the replay comparison.
//!
//! The base seed honours `DLB_CHAOS_SEED`, so CI can sweep a second
//! seed set without a code change.

use dlbooster::chaos::Stage;
use dlbooster::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FAULT_RATE: f64 = 0.05;
const BATCH: usize = 4;
const TRAIN_BATCHES: u64 = 8;
const INFER_REQUESTS: usize = 24;

/// The replay-stable portion of a run's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    delivered: u64,
    items_ok: u64,
    items_err: u64,
    injected_storage: u64,
    injected_fpga: u64,
    injected_net: u64,
}

/// Dataset-mode training pipeline with storage, FPGA and pool chaos.
fn training_run(seed: u64) -> Outcome {
    let telemetry = Telemetry::with_defaults();
    let mut plan = dlbooster::chaos::FaultPlan::uniform(seed, FAULT_RATE);
    // Keep latency faults short: the soak exercises breadth, the
    // dedicated failover tests exercise long stalls.
    plan.storage = plan.storage.with_delay(Duration::from_millis(1));
    plan.fpga = plan.fpga.with_delay(Duration::from_millis(1));
    plan.pool = plan.pool.with_delay(Duration::from_millis(1));

    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(
        DatasetSpec::ilsvrc_small(TRAIN_BATCHES as usize * BATCH, 13),
        &disk,
    )
    .unwrap();
    disk.attach_chaos(plan.injector(Stage::Storage, &telemetry).unwrap());
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
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::training(
        1,
        BATCH,
        (32, 32),
        TRAIN_BATCHES as usize * BATCH,
        Some(TRAIN_BATCHES),
    );
    // The replay compares decoder item counts: every batch is decoded.
    config.sample_cache_bytes = 0;
    let booster =
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap();
    booster
        .pool()
        .attach_chaos(plan.injector(Stage::Pool, &telemetry).unwrap());

    let mut delivered = 0u64;
    while let Ok(batch) = booster.next_batch(0) {
        assert_eq!(batch.len(), BATCH, "failed items still occupy slots");
        delivered += 1;
        booster.recycle(batch.unit);
    }
    drop(booster); // join daemons so counters are final

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(delivered, TRAIN_BATCHES, "seed {seed}: lost batches");
    assert_eq!(snap.reader.inflight, 0, "seed {seed}: stuck batches");
    assert_eq!(
        snap.batches_in(),
        snap.batches_out() + snap.batch_errors(),
        "seed {seed}: batch conservation"
    );
    assert_eq!(
        snap.decoder.items_in,
        snap.decoder.items_ok + snap.decoder.items_err,
        "seed {seed}: item conservation"
    );
    assert!(
        snap.invariant_violations().is_empty(),
        "seed {seed}: {:?}",
        snap.invariant_violations()
    );
    let raw = telemetry.registry.snapshot();
    Outcome {
        delivered,
        items_ok: snap.decoder.items_ok,
        items_err: snap.decoder.items_err,
        injected_storage: raw.counter(Stage::Storage.counter_name()),
        injected_fpga: raw.counter(Stage::Fpga.counter_name()),
        injected_net: 0,
    }
}

/// Stream-mode served inference with NIC and FPGA chaos.
fn inference_run(seed: u64) -> Outcome {
    let telemetry = Telemetry::with_defaults();
    let mut plan = dlbooster::chaos::FaultPlan::uniform(seed, FAULT_RATE);
    plan.net = plan.net.with_delay(Duration::from_millis(1));
    plan.fpga = plan.fpga.with_delay(Duration::from_millis(1));

    let clients = ClientPool::small(1_000.0, seed);
    let requests = clients.generate_requests(INFER_REQUESTS);
    let nic = Arc::new(
        NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000)
            .with_chaos(plan.injector(Stage::Net, &telemetry).unwrap()),
    );
    let collector = Arc::new(DataCollector::load_from_net());
    let mut accepted = 0usize;
    for r in &requests {
        // Chaos may drop (ring overflow) or corrupt the frame; corrupt
        // frames can fail framing here or fail decode later. All paths
        // must keep the pipeline flowing.
        if let Ok(desc) = nic.deliver(&r.wire_bytes, 0) {
            collector.push_from_net(&desc);
            accepted += 1;
        }
    }
    collector.close_stream();

    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::nic_only(Arc::clone(&nic))),
        &telemetry,
    )
    .unwrap();
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::inference(1, BATCH, (56, 56));
    config.max_batches = Some((accepted / BATCH) as u64);
    let booster =
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap();

    let mut delivered = 0u64;
    while let Ok(batch) = booster.next_batch(0) {
        delivered += 1;
        booster.recycle(batch.unit);
    }
    drop(booster);

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(
        delivered,
        (accepted / BATCH) as u64,
        "seed {seed}: lost batches"
    );
    assert_eq!(snap.reader.inflight, 0, "seed {seed}: stuck batches");
    assert_eq!(
        snap.batches_in(),
        snap.batches_out() + snap.batch_errors(),
        "seed {seed}: batch conservation"
    );
    assert!(
        snap.invariant_violations().is_empty(),
        "seed {seed}: {:?}",
        snap.invariant_violations()
    );
    let raw = telemetry.registry.snapshot();
    Outcome {
        delivered,
        items_ok: snap.decoder.items_ok,
        items_err: snap.decoder.items_err,
        injected_storage: 0,
        injected_fpga: raw.counter(Stage::Fpga.counter_name()),
        injected_net: raw.counter(Stage::Net.counter_name()),
    }
}

fn seeds() -> Vec<u64> {
    let base = dlbooster::chaos::FaultPlan::seed_from_env(0x5EED_CAFE);
    (0..8)
        .map(|i| dlbooster::chaos::splitmix64(base + i))
        .collect()
}

#[test]
fn training_survives_all_fault_planes_across_seeds() {
    let mut total_faults = 0;
    for seed in seeds() {
        let out = training_run(seed);
        total_faults += out.injected_storage + out.injected_fpga;
    }
    assert!(
        total_faults > 0,
        "8 seeds at 5% across two keyed stages must inject something"
    );
}

#[test]
fn served_inference_survives_all_fault_planes_across_seeds() {
    let mut total_faults = 0;
    for seed in seeds() {
        let out = inference_run(seed);
        total_faults += out.injected_net + out.injected_fpga;
    }
    assert!(total_faults > 0, "faults must actually fire across 8 seeds");
}

/// Sample-cache × chaos interaction: a decode the FPGA plane poisons
/// quarantines its source key, and a quarantined source is never resident
/// in the cache — so however many epochs replay, corrupt pixels can never
/// be served from memory. Runs the full fault battery over three epochs
/// with the decoded-sample cache armed, across the same 8-seed matrix.
#[test]
fn corrupted_samples_are_quarantined_and_never_admitted() {
    let mut total_quarantined = 0;
    for seed in seeds() {
        let telemetry = Telemetry::with_defaults();
        let mut plan = dlbooster::chaos::FaultPlan::uniform(seed, FAULT_RATE);
        plan.storage = plan.storage.with_delay(Duration::from_millis(1));
        plan.fpga = plan.fpga.with_delay(Duration::from_millis(1));
        plan.pool = plan.pool.with_delay(Duration::from_millis(1));

        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(
            DatasetSpec::ilsvrc_small(TRAIN_BATCHES as usize * BATCH, 13),
            &disk,
        )
        .unwrap();
        disk.attach_chaos(plan.injector(Stage::Storage, &telemetry).unwrap());
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
        engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        // The training default arms a sample cache holding one epoch.
        let config = DlBoosterConfig::training(
            1,
            BATCH,
            (32, 32),
            TRAIN_BATCHES as usize * BATCH,
            Some(3 * TRAIN_BATCHES), // three epochs: quarantine must hold on replay
        );
        let booster =
            DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
                .unwrap();
        booster
            .pool()
            .attach_chaos(plan.injector(Stage::Pool, &telemetry).unwrap());

        while let Ok(batch) = booster.next_batch(0) {
            assert_eq!(batch.len(), BATCH, "failed items still occupy slots");
            booster.recycle(batch.unit);
        }
        let cache = booster.sample_cache().expect("sample cache armed");
        drop(booster); // join daemons so counters are final

        // A source observed to fail decode must never be admitted — not in
        // the epoch that failed it, not in any later one.
        for r in &dataset.records {
            let key = SampleKey::Disk {
                offset: r.disk_offset,
                len: r.len,
            };
            assert!(
                !(cache.contains(&key) && cache.is_quarantined(&key)),
                "seed {seed}: quarantined source {key:?} is resident in the cache"
            );
        }
        let snap = telemetry.pipeline_snapshot();
        let (_, _, _, quarantined) = cache.churn_stats();
        assert_eq!(
            quarantined, snap.reader.item_errors,
            "seed {seed}: every failed decode must quarantine its key exactly once"
        );
        assert!(
            snap.invariant_violations().is_empty(),
            "seed {seed}: {:?}",
            snap.invariant_violations()
        );
        total_quarantined += quarantined;
    }
    assert!(
        total_quarantined > 0,
        "the fpga plane's poison flavour must corrupt at least one decode across 8 seeds"
    );
}

#[test]
fn seed_replay_is_deterministic() {
    for seed in seeds().into_iter().take(3) {
        assert_eq!(
            training_run(seed),
            training_run(seed),
            "training replay diverged for seed {seed}"
        );
        assert_eq!(
            inference_run(seed),
            inference_run(seed),
            "inference replay diverged for seed {seed}"
        );
    }
}
