//! The dlb-trace acceptance plane.
//!
//! * Tracing must be a pure observer: a traced run delivers bitwise
//!   identical batches and identical conservation outcomes to an untraced
//!   run — on a healthy training pipeline, under chaos-driven FPGA→CPU
//!   failover, and across cluster hedging.
//! * Per-batch latency attribution must sum to the end-to-end window
//!   (exactly — well inside the 1% acceptance tolerance) on both training
//!   and served runs.
//! * The bottleneck report must agree with the pipeline's independent
//!   stage timers about which stage binds.

use dlbooster::backends::FallbackFactory;
use dlbooster::prelude::*;
use dlbooster::trace::{stages, SpanKind};
use dlbooster::workflows::{ClusterParams, ClusterSim};
use std::sync::Arc;
use std::time::Duration;

/// One deterministic 2-epoch FPGA training run; returns every delivered
/// payload, the final snapshot, and the trace snapshot when traced.
fn fpga_training_run(
    traced: bool,
) -> (
    Vec<Vec<u8>>,
    dlbooster::telemetry::PipelineSnapshot,
    Option<dlbooster::trace::TraceSnapshot>,
) {
    let telemetry = Telemetry::with_defaults();
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        assert!(telemetry.install_tracer(Arc::clone(t)), "first install");
    }
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
    // Compares decoder counts and charges every batch to fpga.decode.
    config.sample_cache_bytes = 0;
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
    drop(booster); // join the reader → quiescent counters
    (
        payloads,
        telemetry.pipeline_snapshot(),
        tracer.map(|t| t.snapshot()),
    )
}

#[test]
fn training_run_is_bitwise_identical_with_tracing_on_and_off() {
    let (traced_payloads, traced_snap, trace) = fpga_training_run(true);
    let (plain_payloads, plain_snap, none) = fpga_training_run(false);
    assert!(none.is_none());
    assert_eq!(traced_payloads.len(), 4);
    assert_eq!(
        traced_payloads, plain_payloads,
        "tracing must not perturb a single delivered byte"
    );
    // Identical conservation outcomes.
    for snap in [&traced_snap, &plain_snap] {
        assert_eq!(snap.batches_in(), snap.batches_out() + snap.batch_errors());
        assert!(
            snap.invariant_violations().is_empty(),
            "violations: {:?}",
            snap.invariant_violations()
        );
    }
    assert_eq!(traced_snap.batches_in(), plain_snap.batches_in());
    assert_eq!(traced_snap.decoder.items_ok, plain_snap.decoder.items_ok);
    // And the traced run actually produced spans.
    let trace = trace.unwrap();
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.stage == stages::FPGA_DECODE && e.kind == SpanKind::Service),
        "traced run must record fpga.decode service spans"
    );
    assert_eq!(trace.dropped, 0);
}

#[test]
fn training_attribution_sums_to_end_to_end_and_exports() {
    let (_, _, trace) = fpga_training_run(true);
    let trace = trace.unwrap();
    let attributions = trace.attribution();
    assert!(attributions.len() >= 4, "one attribution per traced batch");
    for a in &attributions {
        // Exact by construction — trivially within the 1% acceptance bound.
        assert_eq!(
            a.attributed_ns() + a.unattributed_ns,
            a.total_ns(),
            "batch {} attribution must sum to its window",
            a.batch
        );
        assert!(
            a.part_ns(stages::FPGA_DECODE, SpanKind::Service) > 0,
            "batch {} must charge time to fpga.decode",
            a.batch
        );
    }
    // Export plane: well-formed Perfetto JSON naming the stages.
    let json = trace.to_perfetto();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains(stages::FPGA_DECODE));
    assert!(json.contains(stages::QUEUE_DELIVER));
}

#[test]
fn served_run_attribution_sums_and_names_dispatch() {
    // The served path: NIC → stream collector → FPGA decode → dispatcher →
    // inference session, traced end to end.
    let telemetry = Telemetry::with_defaults();
    let tracer = Arc::new(Tracer::new());
    assert!(telemetry.install_tracer(Arc::clone(&tracer)));
    let pool = ClientPool::small(1_000.0, 99);
    let n_requests = 16;
    let batch_size = 4;
    let requests = pool.generate_requests(n_requests);
    let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000));
    let collector = Arc::new(DataCollector::load_from_net());
    for r in &requests {
        let desc = nic.deliver(&r.wire_bytes, 0).unwrap();
        collector.push_from_net(&desc);
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
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::inference(1, batch_size, (64, 64));
    let n_batches = (n_requests / batch_size) as u64;
    config.max_batches = Some(n_batches);
    let booster: Arc<dyn PreprocessBackend> = Arc::new(
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap(),
    );
    let gpus = vec![GpuDevice::new(GpuSpec::tesla_v100(), 0)];
    let report = InferenceSession::run_with_telemetry(
        Arc::clone(&booster),
        &gpus,
        &InferenceConfig {
            model: ModelZoo::GoogLeNet,
            batch_size: batch_size as u32,
            precision: Precision::Fp16,
            batches: n_batches,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        },
        &telemetry,
    );
    assert_eq!(report.batches, n_batches);
    drop(booster);

    let snap = telemetry.pipeline_snapshot();
    assert!(snap.invariant_violations().is_empty());
    let trace = tracer.snapshot();
    let attributions = trace.attribution();
    assert!(!attributions.is_empty());
    for a in &attributions {
        assert_eq!(a.attributed_ns() + a.unattributed_ns, a.total_ns());
    }
    // The dispatcher's H2D copies show up as service spans on the served path.
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.stage == stages::DISPATCH_H2D && e.kind == SpanKind::Service),
        "served run must record dispatch.h2d spans"
    );
}

#[test]
fn cpu_bottleneck_report_agrees_with_codec_stage_timers() {
    // The CPU baseline burns its time in decode; both the independent
    // codec stage timers and the trace critical path must say so.
    let telemetry = Telemetry::with_defaults();
    let tracer = Arc::new(Tracer::new());
    assert!(telemetry.install_tracer(Arc::clone(&tracer)));
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
    let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
    let backend = CpuBackend::start_with_telemetry(
        collector,
        Arc::new(CombinedResolver::disk_only(disk)),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: 4,
            target_w: 32,
            target_h: 32,
            workers: 1,
            max_batches: Some(4),
            sample_cache: None,
        },
        Arc::clone(&telemetry),
    )
    .unwrap();
    while let Ok(batch) = backend.next_batch(0) {
        backend.recycle(batch.unit);
    }
    backend.shutdown();

    let report = tracer.snapshot().critical_path();
    let top = report.bottleneck().expect("service spans recorded");
    assert_eq!(
        top.stage,
        stages::CPU_DECODE,
        "stages by busy time: {:?}",
        report
            .stages
            .iter()
            .map(|s| (s.stage, s.busy_ns))
            .collect::<Vec<_>>()
    );
    // Independent stage timers agree: decode nanos dominate resize nanos.
    let snap = telemetry.registry.snapshot();
    use dlbooster::telemetry::names;
    let decode_ns = snap.counter(names::CODEC_HUFFMAN_NANOS)
        + snap.counter(names::CODEC_IDCT_NANOS)
        + snap.counter(names::CODEC_COLOR_NANOS);
    let resize_ns = snap.counter(names::CODEC_RESIZE_NANOS);
    assert!(
        decode_ns > resize_ns,
        "codec timers must also rank decode first: decode {decode_ns} vs resize {resize_ns}"
    );
    // And the trace's decode busy time is in the same regime as the codec
    // timers (the span wraps the same work, plus batch plumbing).
    let trace_decode = top.busy_ns;
    assert!(
        trace_decode >= decode_ns / 2,
        "trace decode busy {trace_decode} vs codec timers {decode_ns}"
    );
    // The figure plane names the binding stage.
    let fig = dlbooster::workflows::critical_path_figure(&report);
    assert!(fig
        .notes
        .iter()
        .any(|n| n.contains("cpu.decode is the binding stage at")));
}

/// One chaos-wedged FPGA run that fails over to the CPU backend; returns
/// (total batches, failover count, violation list, trace snapshot).
fn chaos_failover_run(
    traced: bool,
) -> (
    u64,
    u64,
    Vec<String>,
    Option<dlbooster::trace::TraceSnapshot>,
) {
    const TOTAL: u64 = 8;
    const BATCH: usize = 4;
    let telemetry = Telemetry::with_defaults();
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        assert!(telemetry.install_tracer(Arc::clone(t)));
    }
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let ds = Dataset::build(
        DatasetSpec::ilsvrc_small((TOTAL as usize) * BATCH, 77),
        &disk,
    )
    .unwrap();
    let records = ds.records.clone();
    let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&disk)));
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::clone(&resolver) as Arc<dyn dlbooster::fpga::DataSourceResolver>,
        &telemetry,
    )
    .unwrap();
    // Every other decode stalls its lane for 30 s: the primary starves.
    let mut plan = FaultPlan::disabled();
    plan.seed = 11;
    plan.fpga = StageSpec::rate(0.5).with_delay(Duration::from_secs(30));
    let cancel = plan.cancel_token();
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let config =
        DlBoosterConfig::training(1, BATCH, (32, 32), (TOTAL as usize) * BATCH, Some(TOTAL));
    let primary = Arc::new(
        DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
            .unwrap(),
    );
    let t2 = Arc::clone(&telemetry);
    let factory: FallbackFactory = Box::new(move |remaining| {
        let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
        let resolver = Arc::new(CombinedResolver::disk_only(disk));
        CpuBackend::start_with_telemetry(
            collector,
            resolver,
            CpuBackendConfig {
                n_engines: 1,
                batch_size: BATCH,
                target_w: 32,
                target_h: 32,
                workers: 2,
                max_batches: Some(remaining),
                sample_cache: None,
            },
            t2,
        )
        .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
    });
    let backend = FailoverBackend::new(
        primary,
        factory,
        FailoverConfig {
            total_batches: TOTAL,
            deadline: Duration::from_millis(150),
            chaos_cancel: Some(cancel),
        },
        &telemetry,
    );
    let mut total = 0u64;
    loop {
        match backend.next_batch(0) {
            Ok(batch) => {
                total += 1;
                backend.recycle(batch.unit);
            }
            Err(dlbooster::core::BackendError::Exhausted) => break,
            Err(e) => panic!("unexpected backend error: {e}"),
        }
    }
    assert!(backend.failed_over(), "wedge must trigger failover");
    backend.shutdown();
    // Quiesce before the snapshot: `quiesce` may park the primary's reader
    // on the pool, and only the drop joins it (booking its aborted batches).
    drop(backend);
    let snap = telemetry.pipeline_snapshot();
    (
        total,
        snap.chaos.failovers,
        snap.invariant_violations(),
        tracer.map(|t| t.snapshot()),
    )
}

#[test]
fn chaos_failover_outcome_is_identical_with_tracing_on_and_off() {
    let (traced_total, traced_failovers, traced_violations, trace) = chaos_failover_run(true);
    let (plain_total, plain_failovers, plain_violations, _) = chaos_failover_run(false);
    assert_eq!(traced_total, 8, "traced run must deliver the full budget");
    assert_eq!(plain_total, 8, "untraced run must deliver the full budget");
    assert_eq!(traced_failovers, plain_failovers);
    assert_eq!(traced_failovers, 1);
    assert!(traced_violations.is_empty(), "{traced_violations:?}");
    assert!(plain_violations.is_empty(), "{plain_violations:?}");
    // The traced run marks the failover and records spans on both sides
    // of the swap: FPGA decodes before the wedge, CPU decodes after.
    let trace = trace.unwrap();
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind == SpanKind::Mark && e.stage == stages::FAILOVER),
        "failover must leave a trace mark"
    );
    assert!(trace
        .events
        .iter()
        .any(|e| e.stage == stages::CPU_DECODE && e.kind == SpanKind::Service));
}

#[test]
fn cluster_hedging_outcome_is_identical_with_tracing_on_and_off() {
    let params = || {
        let mut p = ClusterParams::baseline(4, 2.0, 9);
        p.requests = 2_000;
        p.warmup = 200;
        p
    };
    let tracer = Arc::new(Tracer::new());
    let traced = ClusterSim::run_traced(params(), Arc::clone(&tracer));
    let plain = ClusterSim::run(params());
    // The DES is seeded: with tracing attached, the outcome must be
    // bitwise identical, counters included.
    assert_eq!(traced.offered, plain.offered);
    assert_eq!(traced.completed, plain.completed);
    assert_eq!(traced.shed, plain.shed);
    assert_eq!(traced.good, plain.good);
    assert_eq!(traced.p99_latency, plain.p99_latency);
    assert_eq!(traced.sim_time, plain.sim_time);
    let (tc, pc) = (&traced.snapshot.cluster, &plain.snapshot.cluster);
    assert_eq!(tc.hedges, pc.hedges);
    assert_eq!(tc.hedge_wins, pc.hedge_wins);
    assert_eq!(tc.hedge_dups, pc.hedge_dups);
    assert_eq!(tc.replays, pc.replays);
    assert!(traced.snapshot.invariant_violations().is_empty());
    assert!(plain.snapshot.invariant_violations().is_empty());
    // Every duplicate completion left a hedge-dup mark, and dups whose
    // request had a winner are linked onto the winning copy's ordinal.
    let trace = tracer.snapshot();
    let marks = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Mark && e.stage == stages::HEDGE_DUP)
        .count() as u64;
    assert_eq!(marks, tc.hedge_dups, "one mark per duplicate completion");
    assert!(tc.hedge_dups > 0, "pick params that actually hedge");
    let links: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Link)
        .collect();
    assert!(!links.is_empty(), "won requests must link their duplicates");
    for l in links {
        assert_ne!(l.link, 0, "link target must be a real ordinal");
        assert_ne!(l.batch, l.link, "a duplicate never links to itself");
    }
}
