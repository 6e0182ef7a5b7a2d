//! Pipeline-output suite: what the assembled pipelines deliver, checked
//! against an oracle that goes through none of their wiring (no reader,
//! engine, pool or router). Every delivered item, in collector order, must
//! equal the one-image `decode` + `resize` + `to_rgb` of its source bytes —
//! the definition of "correct" the pipeline benchmark uses —
//! across every mode the substrate runs in: training, served/streaming,
//! later epochs served from the sample cache, chaos-driven failover and
//! the CPU backend; and the
//! [`PipelineSnapshot`] conservation laws must hold at quiescence.
//! Seed-swept so the equality is not an artifact of one dataset.

use dlbooster::codec::resize::{resize, ResizeFilter};
use dlbooster::fpga::DataRef;
use dlbooster::prelude::*;
use dlbooster::storage::dataset::Record;
use std::sync::Arc;

/// Dataset-content and shuffle seeds swept by every dataset-mode test.
const SWEEP: [(u64, u64); 3] = [(7, 0), (123, 1), (20_260_808, 2)];

/// One item as delivered or as expected: label and pixels.
type Item = (u64, Vec<u8>);

/// The oracle: one-image decode, bilinear resize, RGB.
fn reference(jpeg: &[u8], (w, h): (u32, u32)) -> Vec<u8> {
    let image = JpegDecoder::new().decode(jpeg).unwrap();
    resize(&image, w, h, ResizeFilter::Bilinear)
        .unwrap()
        .to_rgb()
        .into_vec()
}

/// The first `n` batches a fresh collector over `records` dispenses, each
/// item rendered by the oracle.
fn expected_batches(
    records: &[Record],
    disk: &NvmeDisk,
    shuffle: u64,
    batch: usize,
    n: usize,
    dims: (u32, u32),
) -> Vec<Vec<Item>> {
    let collector = DataCollector::load_from_disk(records, shuffle);
    (0..n)
        .map(|_| {
            let metas = collector.next_metas(batch).unwrap();
            metas
                .iter()
                .map(|m| {
                    let DataRef::Disk { offset, len } = m.src else {
                        panic!("dataset-mode meta must point at the disk");
                    };
                    (m.label, reference(&disk.read(offset, len).unwrap(), dims))
                })
                .collect()
        })
        .collect()
}

fn items_of(unit: &BatchUnit) -> Vec<Item> {
    let items = unit.items().iter().enumerate();
    items
        .map(|(i, item)| (item.label, unit.item_bytes(i).to_vec()))
        .collect()
}

fn drain_batches(backend: &dyn PreprocessBackend) -> Vec<Vec<Item>> {
    let mut out = Vec::new();
    while let Ok(batch) = backend.next_batch(0) {
        out.push(items_of(&batch.unit));
        backend.recycle(batch.unit);
    }
    out
}

/// Conservation outcome of a finished run: the snapshot's invariant
/// verdicts and the decoder's error count.
fn conservation(snap: &PipelineSnapshot) -> (bool, bool, u64) {
    (
        snap.invariant_violations().is_empty(),
        snap.batches_in() == snap.batches_out() + snap.batch_errors(),
        snap.decoder.items_err,
    )
}

/// A decoder engine with the paper's mirror, recording into `telemetry`.
fn fpga_engine(resolver: CombinedResolver, telemetry: &Arc<Telemetry>) -> DecoderEngine {
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    DecoderEngine::start_with_telemetry(device, Arc::new(resolver), telemetry).unwrap()
}

fn fpga_booster(
    records: &[Record],
    disk: &Arc<NvmeDisk>,
    shuffle: u64,
    config: DlBoosterConfig,
    telemetry: &Arc<Telemetry>,
) -> DlBooster {
    let collector = Arc::new(DataCollector::load_from_disk(records, shuffle));
    let engine = fpga_engine(CombinedResolver::disk_only(Arc::clone(disk)), telemetry);
    let channel = FpgaChannel::init_with_telemetry(engine, 0, telemetry);
    DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(telemetry)).unwrap()
}

#[test]
fn training_mode_delivers_the_oracle_in_collector_order() {
    for &(data_seed, shuffle) in &SWEEP {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, data_seed), &disk).unwrap();
        let telemetry = Telemetry::with_defaults();
        let config = DlBoosterConfig::training(1, 4, (40, 40), 8, Some(4));
        let booster = fpga_booster(&dataset.records, &disk, shuffle, config, &telemetry);
        let delivered = drain_batches(&booster);
        drop(booster); // join the reader → quiescent counters
        let snap = telemetry.pipeline_snapshot();
        assert!(
            delivered == expected_batches(&dataset.records, &disk, shuffle, 4, 4, (40, 40)),
            "seed {data_seed}/shuffle {shuffle}: training batches diverge from the oracle"
        );
        assert_eq!(conservation(&snap), (true, true, 0));
        // A bounded run decodes or bypasses what it delivers and nothing
        // more: the reader stops at the budget instead of running ahead.
        assert_eq!(
            snap.reader.batches_submitted + snap.cache.bypass_batches,
            snap.router_delivered + snap.reader.batch_errors,
            "seed {data_seed}: reader ran ahead of the delivery bound"
        );
    }
}

#[test]
fn served_mode_delivers_the_oracle_in_arrival_order() {
    for &(req_seed, _) in &SWEEP {
        let n_requests = 16;
        let batch = 4usize;
        let requests = ClientPool::small(1_000.0, req_seed).generate_requests(n_requests);
        let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000));
        let collector = Arc::new(DataCollector::load_from_net());
        for r in &requests {
            let desc = nic.deliver(&r.wire_bytes, 0).unwrap();
            collector.push_from_net(&desc);
        }
        collector.close_stream();
        let telemetry = Telemetry::with_defaults();
        let engine = fpga_engine(CombinedResolver::nic_only(Arc::clone(&nic)), &telemetry);
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let mut config = DlBoosterConfig::inference(1, batch, (56, 56));
        config.max_batches = Some((n_requests / batch) as u64);
        let booster =
            DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
                .unwrap();
        let delivered = drain_batches(&booster);
        drop(booster);
        let snap = telemetry.pipeline_snapshot();
        // Request identity rides the label; pixels are the oracle's
        // rendering of the frame's payload.
        let expected: Vec<Vec<Item>> = requests
            .chunks(batch)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|r| {
                        let frame = dlbooster::net::Frame::decode(&r.wire_bytes).unwrap();
                        (r.request_id, reference(&frame.payload, (56, 56)))
                    })
                    .collect()
            })
            .collect();
        assert!(
            delivered == expected,
            "request seed {req_seed}: served batches diverge from the oracle"
        );
        assert_eq!(conservation(&snap), (true, true, 0));
    }
}

#[test]
fn cache_enabled_mode_replays_the_oracle_epoch() {
    // The training default's sample cache holds the epoch: epoch 1
    // decodes, epochs 2-3 are served from memory — each in its own
    // collector order. One pool unit lets every epoch-1 admission land
    // before the first epoch-2 lookup.
    for &(data_seed, shuffle) in &SWEEP {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, data_seed), &disk).unwrap();
        let telemetry = Telemetry::with_defaults();
        let mut config = DlBoosterConfig::training(1, 4, (32, 32), 8, Some(6));
        config.pool_units = 1;
        let booster = fpga_booster(&dataset.records, &disk, shuffle, config, &telemetry);
        let delivered = drain_batches(&booster);
        drop(booster);
        let snap = telemetry.pipeline_snapshot();
        let oracle = expected_batches(&dataset.records, &disk, shuffle, 4, 6, (32, 32));
        assert!(
            delivered == oracle,
            "seed {data_seed}/shuffle {shuffle}: batches diverge from the oracle"
        );
        assert_eq!(
            snap.cache.bypass_batches, 4,
            "later epochs must bypass the decoder"
        );
        assert_eq!(conservation(&snap), (true, true, 0));
    }
}

#[test]
fn failover_mode_delivers_the_oracle_per_label() {
    // Chaos wedges the FPGA mid-run; the failover pair finishes on the CPU
    // fallback. Which batches each side serves is timing-dependent, so the
    // contract is the epoch as a multiset — every record exactly once, each
    // with the oracle's pixels — plus the failover accounting.
    use dlbooster::chaos::Stage;
    use std::time::Duration;

    let total: u64 = 8;
    let batch = 4usize;
    let (data_seed, shuffle) = SWEEP[1];
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(
        DatasetSpec::ilsvrc_small(total as usize * batch, data_seed),
        &disk,
    )
    .unwrap();

    let telemetry = Telemetry::with_defaults();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, shuffle));
    let engine = fpga_engine(CombinedResolver::disk_only(Arc::clone(&disk)), &telemetry);
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
    let records = dataset.records.clone();
    let fallback_telemetry = Arc::clone(&telemetry);
    let fallback_disk = Arc::clone(&disk);
    let backend = FailoverBackend::new(
        Arc::clone(&primary),
        Box::new(move |remaining| {
            let config = CpuBackendConfig {
                n_engines: 1,
                batch_size: batch,
                target_w: 32,
                target_h: 32,
                workers: 2,
                max_batches: Some(remaining),
                sample_cache: None,
            };
            CpuBackend::start_with_telemetry(
                Arc::new(DataCollector::load_from_disk(&records, shuffle)),
                Arc::new(CombinedResolver::disk_only(fallback_disk)),
                config,
                fallback_telemetry,
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
    let mut delivered: Vec<Item> = Vec::new();
    let mut batches = 0u64;
    loop {
        match backend.next_batch(0) {
            Ok(b) => {
                assert_eq!(b.len(), batch, "every batch arrives full");
                delivered.extend(items_of(&b.unit));
                batches += 1;
                backend.recycle(b.unit);
            }
            Err(dlbooster::core::BackendError::Exhausted) => break,
            Err(e) => panic!("run must complete cleanly, got {e}"),
        }
    }
    assert!(backend.failed_over(), "the wedged primary must fail over");
    backend.shutdown();
    drop(backend);
    drop(primary);
    let snap = telemetry.pipeline_snapshot();

    assert_eq!(batches, total);
    let mut expected: Vec<Item> = dataset
        .records
        .iter()
        .map(|r| {
            let jpeg = disk.read(r.disk_offset, r.len).unwrap();
            (r.label, reference(&jpeg, (32, 32)))
        })
        .collect();
    delivered.sort();
    expected.sort();
    assert!(
        delivered == expected,
        "one epoch must cover every record with the oracle's pixels"
    );
    assert_eq!(snap.chaos.failovers, 1);
    assert!(snap.invariant_violations().is_empty());
}

#[test]
fn cpu_backend_delivers_the_oracle() {
    for &(data_seed, shuffle) in &SWEEP {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, data_seed), &disk).unwrap();
        let oracle = expected_batches(&dataset.records, &disk, shuffle, 4, 2, (40, 40));
        for workers in [1usize, 2] {
            let backend = CpuBackend::start(
                Arc::new(DataCollector::load_from_disk(&dataset.records, shuffle)),
                Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size: 4,
                    target_w: 40,
                    target_h: 40,
                    workers,
                    max_batches: Some(2),
                    sample_cache: None,
                },
            )
            .unwrap();
            let mut delivered = drain_batches(&backend);
            let mut expected = oracle.clone();
            // One worker delivers in collector order; with two, each batch
            // is still one collector dispense, but which lands first is up
            // to the scheduler.
            if workers > 1 {
                delivered.sort();
                expected.sort();
            }
            assert!(
                delivered == expected,
                "seed {data_seed}/workers {workers}: CPU batches diverge from the oracle"
            );
        }
    }
}

#[test]
fn from_graph_with_canned_chain_equals_start() {
    // `from_graph` fed the canned chains must behave exactly like the
    // constructors that compile them internally — the graph API adds no
    // hidden wiring.
    let (data_seed, shuffle) = SWEEP[0];
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, data_seed), &disk).unwrap();

    // FPGA path.
    let fpga_run = |use_from_graph: bool| {
        let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, shuffle));
        let engine = fpga_engine(
            CombinedResolver::disk_only(Arc::clone(&disk)),
            &Telemetry::with_defaults(),
        );
        let channel = FpgaChannel::init(engine, 0);
        let config = DlBoosterConfig::training(1, 4, (40, 40), 8, Some(2));
        let booster = if use_from_graph {
            let graph = dlbooster::graph::fpga_training(40, 40);
            DlBooster::from_graph(collector, channel, config, &graph, 0)
        } else {
            DlBooster::start(collector, channel, config)
        }
        .unwrap();
        drain_batches(&booster)
    };
    assert_eq!(fpga_run(true), fpga_run(false), "FPGA from_graph diverges");

    // CPU path.
    let cpu_run = |use_from_graph: bool| {
        let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, shuffle));
        let config = CpuBackendConfig {
            n_engines: 1,
            batch_size: 4,
            target_w: 40,
            target_h: 40,
            workers: 2,
            max_batches: Some(2),
            sample_cache: None,
        };
        let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&disk)));
        let backend = if use_from_graph {
            let graph = dlbooster::graph::cpu_training(40, 40, 2);
            CpuBackend::from_graph(collector, resolver, config, &graph, 0)
        } else {
            CpuBackend::start(collector, resolver, config)
        }
        .unwrap();
        // Two workers: which batch lands first is up to the scheduler.
        let mut batches = drain_batches(&backend);
        batches.sort();
        batches
    };
    assert_eq!(cpu_run(true), cpu_run(false), "CPU from_graph diverges");
}

#[test]
fn from_graph_rejects_wrong_device() {
    // A CPU-decode chain cannot start the FPGA executor and vice versa;
    // the mismatch is a structured start-time error, not a panic.
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(4, 3), &disk).unwrap();

    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let engine = fpga_engine(
        CombinedResolver::disk_only(Arc::clone(&disk)),
        &Telemetry::with_defaults(),
    );
    let config = DlBoosterConfig::training(1, 4, (32, 32), 4, Some(1));
    let cpu_chain = dlbooster::graph::cpu_training(32, 32, 2);
    assert!(
        DlBooster::from_graph(
            collector,
            FpgaChannel::init(engine, 0),
            config,
            &cpu_chain,
            0
        )
        .is_err(),
        "FPGA executor must reject a CPU-decode graph"
    );

    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let fpga_chain = dlbooster::graph::fpga_training(32, 32);
    let config = CpuBackendConfig {
        n_engines: 1,
        batch_size: 4,
        target_w: 32,
        target_h: 32,
        workers: 1,
        max_batches: Some(1),
        sample_cache: None,
    };
    assert!(
        CpuBackend::from_graph(
            collector,
            Arc::new(CombinedResolver::disk_only(disk)),
            config,
            &fpga_chain,
            0
        )
        .is_err(),
        "CPU executor must reject an FPGA-decode graph"
    );
}
