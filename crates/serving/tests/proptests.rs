//! Property tests: WFQ fairness, batch-former bounds, the bridge's
//! work-conserving close rule, and admission conservation under arbitrary
//! arrival patterns.

use dlb_net::{Frame, NicRx, NicSpec};
use dlb_serving::{
    AdmissionController, BatchFormer, CloseReason, ServeRequest, ServingBridge, ServingConfig,
    ShedPolicy, TenantClass, WeightedFairQueue,
};
use dlb_simcore::SimTime;
use dlb_telemetry::{PipelineSnapshot, Registry};
use dlbooster_core::DataCollector;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

fn req(id: u64, tenant: u32, arrival_us: u64, slo_us: u64) -> ServeRequest {
    let arrival = SimTime::from_micros(arrival_us);
    ServeRequest {
        id,
        tenant,
        arrival,
        deadline: arrival + SimTime::from_micros(slo_us),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under full backlog, each tenant's share of dequeues tracks its
    /// weight within one quantum per tenant.
    #[test]
    fn wfq_service_tracks_weights(
        w0 in 1u32..5,
        w1 in 1u32..5,
        pops in 10usize..60,
    ) {
        let mut q = WeightedFairQueue::new([(0, w0), (1, w1)]);
        for i in 0..200u64 {
            q.push(0, (0u32, i));
            q.push(1, (1u32, i));
        }
        let mut counts = [0f64; 2];
        for _ in 0..pops {
            let (t, _) = q.pop().unwrap();
            counts[t as usize] += 1.0;
        }
        let expect0 = pops as f64 * w0 as f64 / (w0 + w1) as f64;
        prop_assert!(
            (counts[0] - expect0).abs() <= (w0.max(w1) + 1) as f64,
            "tenant0 served {} of {}, expected ~{expect0} (w {w0}:{w1})",
            counts[0], pops
        );
    }

    /// Everything pushed is eventually popped exactly once, in FIFO order
    /// within each tenant.
    #[test]
    fn wfq_conserves_and_orders_within_tenant(
        tenants in prop::collection::vec(0u32..4, 1..120),
    ) {
        let mut q = WeightedFairQueue::new((0..4).map(|t| (t, t + 1)));
        for (i, &t) in tenants.iter().enumerate() {
            q.push(t, (t, i));
        }
        let mut last_seen = [None::<usize>; 4];
        let mut popped = 0usize;
        while let Some((t, i)) = q.pop() {
            popped += 1;
            if let Some(prev) = last_seen[t as usize] {
                prop_assert!(prev < i, "tenant {t} out of order: {prev} after {i}");
            }
            last_seen[t as usize] = Some(i);
        }
        prop_assert_eq!(popped, tenants.len());
    }

    /// The former never emits an empty or oversized batch, and every
    /// pushed request appears in exactly one batch.
    #[test]
    fn batcher_bounds_and_conservation(
        max_batch in 1u32..16,
        gaps_us in prop::collection::vec(0u64..400, 1..200),
        linger_us in 1u64..300,
    ) {
        let mut f = BatchFormer::new(max_batch, SimTime::from_micros(linger_us));
        let mut now_us = 0u64;
        let mut batches = Vec::new();
        for (i, gap) in gaps_us.iter().enumerate() {
            now_us += gap;
            let now = SimTime::from_micros(now_us);
            // Fire any due linger timer before the push, as the DES would.
            let generation = f.generation();
            if let Some(b) = f.close_if_due(now, generation) {
                batches.push(b);
            }
            if let Some(b) = f.push(req(i as u64, 0, now_us, 1000), now) {
                batches.push(b);
            }
        }
        if let Some(b) = f.force_close() {
            batches.push(b);
        }
        let mut ids = Vec::new();
        for b in &batches {
            prop_assert!(!b.is_empty(), "empty batch emitted");
            prop_assert!(b.len() <= max_batch as usize, "oversized batch");
            if b.reason == CloseReason::Full {
                // A full close must carry exactly max_batch items.
                prop_assert_eq!(b.len(), max_batch as usize);
            }
            ids.extend(b.requests.iter().map(|r| r.id));
        }
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..gaps_us.len() as u64).collect::<Vec<_>>());
    }

    /// For any interleaving of arrivals, completions and sweeps the bridge
    /// dispatches exactly what the three close rules say, sweep by sweep:
    /// whole `max_batch` groups always; the remainder only when nothing was
    /// in flight or the forming batch's linger has run out. So no request
    /// waits past `min(linger deadline, first sweep with nothing in
    /// flight)`, none ships early while the pipeline is busy, no batch
    /// exceeds `max_batch`, and admission order is dispatch order.
    #[test]
    fn bridge_dispatches_by_the_three_close_rules(
        max_batch in 1u32..6,
        linger_us in 1u64..600,
        ops in prop::collection::vec((0u8..4, 0u64..300), 1..250),
    ) {
        // An SLO beyond the horizon: nothing expires, nothing is shed.
        let mut cfg = ServingConfig::single_tenant(max_batch, SimTime::from_secs(10), ShedPolicy::DropNewest)
            .without_shedding();
        cfg.max_linger = SimTime::from_micros(linger_us);
        let registry = Arc::new(Registry::new());
        let mut bridge = ServingBridge::with_telemetry(cfg, &registry);
        let nic = NicRx::new(NicSpec::forty_gbps(), 0x1000);
        let collector = DataCollector::load_from_net();

        let mut now_us = 0u64;
        let mut next_id = 0u64;
        let mut on_wire = 0usize; // delivered, not yet swept
        let mut forming: VecDeque<u64> = VecDeque::new(); // push time (us) per pending request
        let mut in_flight: VecDeque<u64> = VecDeque::new(); // ids, dispatch order
        let mut next_dispatch = 0u64;
        // A last sweep after the generated ops, so the drain below starts
        // from a checked state.
        for (op, gap) in ops.into_iter().chain([(3, 0)]) {
            now_us += gap;
            match op {
                0 | 1 => {
                    let wire = Frame {
                        request_id: next_id,
                        client_id: 0,
                        send_ts_nanos: 0,
                        payload: vec![0u8; 16],
                    }
                    .encode();
                    nic.deliver(&wire, now_us * 1000).expect("ring has room");
                    next_id += 1;
                    on_wire += 1;
                }
                2 => {
                    if let Some(id) = in_flight.pop_front() {
                        prop_assert_eq!(bridge.complete(id, now_us * 1000), Some(true));
                    }
                }
                _ => {
                    let idle = in_flight.is_empty();
                    let due = forming.front().is_some_and(|&opened| now_us >= opened + linger_us);
                    forming.extend(std::iter::repeat_n(now_us, std::mem::take(&mut on_wire)));
                    let whole = forming.len() / max_batch as usize * max_batch as usize;
                    let expect = if whole > 0 {
                        whole
                    } else if idle || due {
                        forming.len()
                    } else {
                        0
                    };
                    bridge.ingest(&nic, &collector, now_us * 1000);
                    let got: Vec<u64> = collector
                        .next_metas(usize::MAX)
                        .expect("stream open")
                        .iter()
                        .map(|m| m.label)
                        .collect();
                    let want: Vec<u64> = (next_dispatch..next_dispatch + expect as u64).collect();
                    prop_assert!(
                        got == want,
                        "at {now_us} us (idle {idle}, due {due}) dispatched {got:?}, rules say {want:?}"
                    );
                    forming.drain(..expect);
                    in_flight.extend(got);
                    next_dispatch += expect as u64;
                }
            }
        }
        // Drain: everything still forming ships, everything completes, and
        // the sweep after that leaves no RX buffer behind.
        bridge.flush(&collector);
        for id in 0..next_id {
            bridge.complete(id, now_us * 1000);
        }
        bridge.ingest(&nic, &collector, now_us * 1000);
        prop_assert_eq!(bridge.inflight(), 0);
        prop_assert_eq!(nic.buffers_held(), 0);
        let snap = PipelineSnapshot::from_parts(registry.snapshot(), Vec::new());
        prop_assert_eq!(snap.invariant_violations(), Vec::<String>::new());
        prop_assert_eq!(snap.serving.completed, next_id);
        if let Some(sizes) = &snap.serving.batch_size {
            prop_assert!(sizes.max <= u64::from(max_batch), "oversized batch");
        }
    }

    /// Admission conservation: offered = admitted + rejected, and the
    /// queue never exceeds its capacity, for every policy.
    #[test]
    fn admission_conserves_under_any_pattern(
        policy_idx in 0usize..3,
        capacity in 1usize..24,
        arrivals in prop::collection::vec((0u32..3, 0u64..2000, 50u64..3000), 1..200),
    ) {
        let policy = [
            ShedPolicy::DropNewest,
            ShedPolicy::DropOldest,
            ShedPolicy::DeadlineAware,
        ][policy_idx];
        let mut cfg = ServingConfig::single_tenant(4, SimTime::from_millis(1), policy)
            .with_tenants(
                (0..3)
                    .map(|id| TenantClass { id, weight: 1, load_share: 1.0 / 3.0 })
                    .collect(),
            );
        cfg.queue_capacity = capacity;
        let mut ac = AdmissionController::new(cfg);
        ac.set_service_estimate(SimTime::from_micros(100), SimTime::from_micros(50));
        let (mut admitted, mut rejected, mut shed) = (0u64, 0u64, 0u64);
        let mut now_us = 0u64;
        for (i, (tenant, gap, slo)) in arrivals.iter().enumerate() {
            now_us += gap;
            let now = SimTime::from_micros(now_us);
            let r = req(i as u64, *tenant, now_us, *slo);
            let outcome = ac.offer(r, now);
            shed += outcome.evicted.len() as u64;
            if outcome.admitted { admitted += 1 } else { rejected += 1 }
            prop_assert!(ac.depth() <= capacity, "queue exceeded capacity");
        }
        prop_assert_eq!(admitted + rejected, arrivals.len() as u64);
        // Everyone admitted is still queued or was shed.
        prop_assert_eq!(ac.depth() as u64 + shed, admitted);
    }

    /// With shedding disabled every request is admitted, whatever the
    /// pattern — the unbounded baseline the overload test relies on.
    #[test]
    fn disabled_shedding_never_rejects(
        arrivals in prop::collection::vec((0u64..100, 1u64..500), 1..300),
    ) {
        let cfg = ServingConfig::single_tenant(8, SimTime::from_micros(10), ShedPolicy::DropNewest)
            .without_shedding();
        let mut ac = AdmissionController::new(cfg);
        ac.set_service_estimate(SimTime::from_millis(10), SimTime::from_millis(10));
        let mut now_us = 0u64;
        for (i, (gap, slo)) in arrivals.iter().enumerate() {
            now_us += gap;
            let now = SimTime::from_micros(now_us);
            let outcome = ac.offer(req(i as u64, 0, now_us, *slo), now);
            prop_assert!(outcome.admitted);
            prop_assert!(outcome.evicted.is_empty());
        }
        prop_assert_eq!(ac.depth(), arrivals.len());
    }
}
