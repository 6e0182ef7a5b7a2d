//! Functional online-inference pipeline: client frames → NIC → stream-mode
//! DataCollector → FPGA decode → inference session, with request identity
//! and latency accounting verified end to end.

use dlbooster::prelude::*;
use std::sync::Arc;

#[test]
fn requests_flow_from_nic_to_decoded_batches_with_identity() {
    let pool = ClientPool::small(1_000.0, 4242);
    let n_requests = 16;
    let batch_size = 4;
    let requests = pool.generate_requests(n_requests);

    let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000));
    let collector = Arc::new(DataCollector::load_from_net());
    for r in &requests {
        let desc = nic
            .deliver(&r.wire_bytes, r.send_time.as_nanos() + 50_000)
            .expect("valid frame");
        collector.push_from_net(&desc);
    }
    collector.close_stream();

    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::nic_only(Arc::clone(&nic))),
    )
    .unwrap();
    let mut config = DlBoosterConfig::inference(1, batch_size, (56, 56));
    config.max_batches = Some((n_requests / batch_size) as u64);
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();

    let mut served_ids = Vec::new();
    while let Ok(batch) = booster.next_batch(0) {
        assert_eq!(batch.len(), batch_size);
        assert_eq!(batch.arrivals.len(), batch_size);
        for (i, item) in batch.unit.items().iter().enumerate() {
            // Request id travels as the label; arrival timestamp travels in
            // `arrivals`, matching what the NIC stamped.
            served_ids.push(item.label);
            assert_eq!(
                batch.arrivals[i],
                requests[item.label as usize].send_time.as_nanos() + 50_000
            );
            // Decoded geometry is the configured 56×56 RGB.
            assert_eq!(item.len, 56 * 56 * 3);
        }
        booster.recycle(batch.unit);
    }
    served_ids.sort_unstable();
    assert_eq!(served_ids, (0..n_requests as u64).collect::<Vec<_>>());
}

#[test]
fn inference_pipeline_snapshot_covers_nic_path() {
    // Stream-mode pipeline with one shared registry: NIC requests decode
    // through the FPGA and serve an inference session; the aggregated
    // snapshot must balance and carry per-stage histograms.
    let telemetry = Telemetry::with_defaults();
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
    drop(booster); // quiesce before snapshotting

    let snap = telemetry.pipeline_snapshot();
    assert_eq!(snap.batches_in(), snap.batches_out() + snap.batch_errors());
    assert_eq!(snap.decoder.items_ok, n_requests as u64);
    assert_eq!(snap.decoder.items_err, 0);
    assert!(snap.decoder.lane_service.as_ref().unwrap().count > 0);
    assert_eq!(snap.engines.batches, n_batches);
    assert_eq!(snap.engines.batch_wait.as_ref().unwrap().count, n_batches);
    assert_eq!(snap.engines.compute.as_ref().unwrap().count, n_batches);
    assert!(snap.dispatcher.bytes_copied > 0);
    assert!(
        snap.invariant_violations().is_empty(),
        "violations: {:?}",
        snap.invariant_violations()
    );
    assert!(snap.stalls.is_empty());
}

#[test]
fn inference_session_over_stream_backend() {
    let pool = ClientPool::small(1_000.0, 7);
    let n_requests = 24;
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
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::nic_only(Arc::clone(&nic))),
    )
    .unwrap();
    let mut config = DlBoosterConfig::inference(1, batch_size, (224, 224));
    config.max_batches = Some((n_requests / batch_size) as u64);
    let booster: Arc<dyn PreprocessBackend> =
        Arc::new(DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap());

    let gpus = vec![GpuDevice::new(GpuSpec::tesla_v100(), 0)];
    let report = InferenceSession::run(
        booster,
        &gpus,
        &InferenceConfig {
            model: ModelZoo::GoogLeNet,
            batch_size: batch_size as u32,
            precision: Precision::Fp16,
            batches: (n_requests / batch_size) as u64,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        },
    );
    assert_eq!(report.images, n_requests as u64);
    assert_eq!(report.batches, (n_requests / batch_size) as u64);
    assert!(report.modelled_throughput > 0.0);
    assert_eq!(report.latency.len(), n_requests / batch_size);
}

#[test]
fn served_requests_ship_on_idle_grow_while_busy_and_return_their_rx_buffers() {
    // NIC → ServingBridge → stream-mode DlBooster, paced by the pipeline
    // itself (`next_batch` blocks), so each step below sees a known
    // in-flight state. The linger is far longer than the test: only the
    // idle rule can ship anything.
    use dlbooster::serving::ServingConfig;
    use dlbooster::simcore::SimTime;
    let telemetry = Telemetry::with_defaults();
    let requests = ClientPool::small(1_000.0, 31).generate_requests(6);
    let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000));
    let collector = Arc::new(DataCollector::load_from_net());
    let mut cfg = ServingConfig::single_tenant(8, SimTime::from_secs(60), ShedPolicy::DropNewest);
    cfg.max_linger = SimTime::from_secs(30);
    let mut bridge = ServingBridge::with_telemetry(cfg, &telemetry.registry);

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
    let booster = DlBooster::start_with_telemetry(
        Arc::clone(&collector),
        FpgaChannel::init_with_telemetry(engine, 0, &telemetry),
        DlBoosterConfig::inference(1, 8, (32, 32)),
        Arc::clone(&telemetry),
    )
    .unwrap();

    let mut now = 0u64;
    let mut sweep = |bridge: &mut ServingBridge| {
        now += 1_000;
        bridge.ingest(&nic, &collector, now).batches
    };
    // Pops one decoded batch, completes its requests, returns their ids.
    let serve = |bridge: &mut ServingBridge| -> Vec<u64> {
        let batch = booster.next_batch(0).expect("pipeline alive");
        let ids: Vec<u64> = batch.unit.items().iter().map(|i| i.label).collect();
        for &id in &ids {
            assert_eq!(bridge.complete(id, 2_000_000), Some(true));
        }
        booster.recycle(batch.unit);
        ids
    };

    // Idle pipeline, reader parked on the empty stream: each request
    // ships on the sweep that sees it and comes back alone.
    for r in &requests[..3] {
        nic.deliver(&r.wire_bytes, 0).unwrap();
        assert_eq!(sweep(&mut bridge), 1);
        assert_eq!(serve(&mut bridge), vec![r.request_id]);
    }
    // Busy pipeline: request 3 is in flight, so 4 and 5 wait and grow one
    // batch, which ships the moment 3 completes.
    nic.deliver(&requests[3].wire_bytes, 0).unwrap();
    assert_eq!(sweep(&mut bridge), 1);
    nic.deliver(&requests[4].wire_bytes, 0).unwrap();
    assert_eq!(sweep(&mut bridge), 0);
    nic.deliver(&requests[5].wire_bytes, 0).unwrap();
    assert_eq!(sweep(&mut bridge), 0);
    assert_eq!(serve(&mut bridge), vec![requests[3].request_id]);
    assert_eq!(sweep(&mut bridge), 1);
    assert_eq!(
        serve(&mut bridge),
        vec![requests[4].request_id, requests[5].request_id]
    );

    // The sweep after the last completion hands back the last buffers.
    assert_eq!(sweep(&mut bridge), 0);
    assert_eq!(nic.buffers_held(), 0, "nobody but the bridge released");
    collector.close_stream();
    drop(booster);
    let snap = telemetry.pipeline_snapshot();
    assert_eq!(snap.invariant_violations(), Vec::<String>::new());
    assert_eq!(snap.serving.batches, 5);
    assert_eq!(snap.serving.batches_closed_idle, 5);
    assert_eq!(snap.serving.completed, 6);
}
