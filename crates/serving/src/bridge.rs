//! Functional-pipeline integration: the [`ServingBridge`] drains the NIC
//! RX ring through admission control and the dynamic batch former, then
//! feeds closed batches to the `DataCollector` (which the `FpgaReader`
//! consumes). The bridge owns RX buffer lifetime: a shed request's payload
//! is released at once and a served request's on the sweep after its
//! completion, so neither rejected nor served traffic can exhaust host
//! memory, whatever the caller does.

use crate::admission::AdmissionController;
use crate::batcher::BatchFormer;
use crate::config::{ServeRequest, ServingConfig};
use crate::instruments::ServingInstruments;
use dlb_net::{NicRx, RxDescriptor};
use dlb_simcore::SimTime;
use dlb_telemetry::Registry;
use dlbooster_core::{DataCollector, FileMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// Counts from one [`ServingBridge::ingest`] sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Descriptors pulled off the NIC ring.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected at the door.
    pub rejected: u64,
    /// Previously admitted requests evicted (shed).
    pub shed: u64,
    /// Batches dispatched into the pipeline.
    pub batches: u64,
}

impl IngestStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: IngestStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.batches += other.batches;
    }
}

/// Glue between `NicRx` and the decode pipeline: admission → WFQ →
/// dynamic batching → `DataCollector`.
#[derive(Debug)]
pub struct ServingBridge {
    admission: AdmissionController,
    former: BatchFormer,
    slo: SimTime,
    /// Descriptors for requests admitted but not yet handed downstream.
    descs: HashMap<u64, RxDescriptor>,
    /// Requests handed downstream, awaiting [`ServingBridge::complete`] —
    /// what the former's idle rule observes.
    inflight: HashMap<u64, Dispatched>,
    /// RX buffers of completed requests, released by the next
    /// [`ServingBridge::ingest`] (which holds the NIC). A completed request
    /// has been decoded, so no resubmit can still need the bytes.
    decoded: Vec<u64>,
    instruments: Option<Arc<ServingInstruments>>,
}

#[derive(Debug)]
struct Dispatched {
    req: ServeRequest,
    /// Where the NIC holds the payload (`None`: a duplicate id whose
    /// descriptor went with the first copy).
    phys_addr: Option<u64>,
}

impl ServingBridge {
    /// Bridge without telemetry.
    pub fn new(cfg: ServingConfig) -> Self {
        let slo = cfg.slo;
        let former = BatchFormer::new(cfg.max_batch, cfg.max_linger);
        Self {
            admission: AdmissionController::new(cfg),
            former,
            slo,
            descs: HashMap::new(),
            inflight: HashMap::new(),
            decoded: Vec::new(),
            instruments: None,
        }
    }

    /// Bridge recording into `registry` under the canonical `serving.*`
    /// names.
    pub fn with_telemetry(cfg: ServingConfig, registry: &Arc<Registry>) -> Self {
        let instruments = ServingInstruments::new(registry, cfg.max_batch);
        let slo = cfg.slo;
        let former = BatchFormer::new(cfg.max_batch, cfg.max_linger)
            .with_instruments(Arc::clone(&instruments));
        Self {
            admission: AdmissionController::new(cfg).with_instruments(Arc::clone(&instruments)),
            former,
            slo,
            descs: HashMap::new(),
            inflight: HashMap::new(),
            decoded: Vec::new(),
            instruments: Some(instruments),
        }
    }

    /// Requests dispatched downstream and not yet completed.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// One sweep at `now_nanos`: release the payloads of requests completed
    /// since the last sweep, drain the NIC ring through admission
    /// (releasing shed payload buffers), evict queued requests whose
    /// deadline already passed, and pump the admission queue through the
    /// batch former into `collector`. A partial batch ships when its
    /// linger expires or, sooner, when nothing dispatched earlier is still
    /// in flight.
    pub fn ingest(
        &mut self,
        nic: &NicRx,
        collector: &DataCollector,
        now_nanos: u64,
    ) -> IngestStats {
        let now = SimTime::from_nanos(now_nanos);
        let mut stats = IngestStats::default();
        for phys_addr in self.decoded.drain(..) {
            nic.release(phys_addr);
        }
        while let Some(desc) = nic.poll() {
            stats.offered += 1;
            let arrival = SimTime::from_nanos(desc.arrival_nanos);
            let req = ServeRequest {
                id: desc.request_id,
                tenant: desc.client_id,
                arrival,
                deadline: arrival + self.slo,
            };
            self.descs.insert(desc.request_id, desc);
            let outcome = self.admission.offer(req, now);
            for victim in outcome.evicted {
                stats.shed += 1;
                self.release(nic, victim.id);
            }
            if outcome.admitted {
                stats.admitted += 1;
            } else {
                stats.rejected += 1;
                self.release(nic, req.id);
            }
        }
        for victim in self.admission.shed_expired(now) {
            stats.shed += 1;
            self.release(nic, victim.id);
        }
        // Pump admitted requests through the batch former.
        while let Some(req) = self.admission.pop(now) {
            if let Some(batch) = self.former.push(req, now) {
                stats.batches += 1;
                self.dispatch(batch.requests, collector);
            }
        }
        let partial = self
            .former
            .close_if_due(now, self.former.generation())
            .or_else(|| {
                let in_flight = self.inflight.values().map(|d| &d.req);
                self.former.close_if_idle(now, in_flight)
            });
        if let Some(batch) = partial {
            stats.batches += 1;
            self.dispatch(batch.requests, collector);
        }
        stats
    }

    /// Force-closes the forming batch (drain). Returns the batch size.
    pub fn flush(&mut self, collector: &DataCollector) -> usize {
        match self.former.force_close() {
            Some(batch) => {
                let n = batch.requests.len();
                self.dispatch(batch.requests, collector);
                n
            }
            None => 0,
        }
    }

    /// Marks `request_id` completed at `now_nanos`. Returns whether it met
    /// its SLO (`None` for ids the bridge never dispatched).
    pub fn complete(&mut self, request_id: u64, now_nanos: u64) -> Option<bool> {
        let Dispatched { req, phys_addr } = self.inflight.remove(&request_id)?;
        self.decoded.extend(phys_addr);
        let now = SimTime::from_nanos(now_nanos);
        let good = match &self.instruments {
            Some(inst) => inst.on_completed(&req, now),
            None => now <= req.deadline,
        };
        Some(good)
    }

    fn dispatch(&mut self, requests: Vec<ServeRequest>, collector: &DataCollector) {
        let mut metas = Vec::with_capacity(requests.len());
        for req in requests {
            let desc = self.descs.remove(&req.id);
            if let Some(desc) = &desc {
                let mut meta = FileMeta::from_rx(desc);
                meta.deadline_nanos = Some(req.deadline.as_nanos());
                metas.push(meta);
            }
            let phys_addr = desc.map(|d| d.phys_addr);
            self.inflight.insert(req.id, Dispatched { req, phys_addr });
        }
        collector.push_metas(metas);
    }

    fn release(&mut self, nic: &NicRx, request_id: u64) {
        if let Some(desc) = self.descs.remove(&request_id) {
            nic.release(desc.phys_addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShedPolicy;
    use dlb_net::{Frame, NicSpec};

    fn wire(id: u64, client: u32) -> Vec<u8> {
        Frame {
            request_id: id,
            client_id: client,
            send_ts_nanos: 0,
            payload: vec![7u8; 64],
        }
        .encode()
    }

    fn setup(cfg: ServingConfig) -> (NicRx, DataCollector, ServingBridge) {
        (
            NicRx::new(NicSpec::forty_gbps(), 0x1000),
            DataCollector::load_from_net(),
            ServingBridge::new(cfg),
        )
    }

    #[test]
    fn admitted_requests_flow_to_collector_with_deadlines() {
        let cfg = ServingConfig::single_tenant(2, SimTime::from_millis(10), ShedPolicy::DropNewest);
        let (nic, collector, mut bridge) = setup(cfg);
        nic.deliver(&wire(1, 0), 100).unwrap();
        nic.deliver(&wire(2, 0), 200).unwrap();
        let stats = bridge.ingest(&nic, &collector, 300);
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.batches, 1, "max_batch=2 closed full");
        let metas = collector.next_metas(8).unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(
            metas[0].deadline_nanos,
            Some(100 + 10_000_000),
            "deadline = arrival + slo"
        );
        assert_eq!(bridge.inflight(), 2);
        assert_eq!(bridge.complete(1, 500), Some(true));
        assert_eq!(
            bridge.complete(2, 200 + 10_000_001),
            Some(false),
            "past deadline"
        );
        assert_eq!(bridge.complete(99, 0), None);
    }

    #[test]
    fn rejected_requests_release_nic_buffers() {
        let mut cfg =
            ServingConfig::single_tenant(64, SimTime::from_millis(10), ShedPolicy::DropNewest);
        cfg.queue_capacity = 1;
        let (nic, collector, mut bridge) = setup(cfg);
        for i in 0..4 {
            nic.deliver(&wire(i, 0), 0).unwrap();
        }
        assert_eq!(nic.buffers_held(), 4);
        let stats = bridge.ingest(&nic, &collector, 0);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected, 3);
        assert_eq!(
            nic.buffers_held(),
            1,
            "rejected payloads are released immediately"
        );
    }

    /// 8-item batches, 500 us linger, 10 ms SLO.
    fn lingering() -> (NicRx, DataCollector, ServingBridge) {
        let mut cfg =
            ServingConfig::single_tenant(8, SimTime::from_millis(10), ShedPolicy::DropNewest);
        cfg.max_linger = SimTime::from_micros(500);
        setup(cfg)
    }

    #[test]
    fn idle_pipeline_ships_on_the_first_sweep() {
        let (nic, collector, mut bridge) = lingering();
        nic.deliver(&wire(1, 0), 0).unwrap();
        let stats = bridge.ingest(&nic, &collector, 0);
        assert_eq!(stats.batches, 1, "nothing in flight: no reason to linger");
        assert_eq!(collector.next_metas(8).unwrap().len(), 1);
        assert_eq!(bridge.inflight(), 1);
    }

    #[test]
    fn busy_pipeline_lingers_to_the_timer_and_no_longer() {
        let (nic, collector, mut bridge) = lingering();
        nic.deliver(&wire(1, 0), 0).unwrap();
        bridge.ingest(&nic, &collector, 0); // request 1 is now in flight
        nic.deliver(&wire(2, 0), 100_000).unwrap();
        assert_eq!(bridge.ingest(&nic, &collector, 100_000).batches, 0);
        nic.deliver(&wire(3, 0), 300_000).unwrap();
        assert_eq!(bridge.ingest(&nic, &collector, 300_000).batches, 0);
        // The linger runs from the forming batch's first push (100 us).
        assert_eq!(bridge.ingest(&nic, &collector, 599_999).batches, 0);
        assert_eq!(bridge.ingest(&nic, &collector, 600_000).batches, 1);
        let labels: Vec<u64> = collector
            .next_metas(8)
            .unwrap()
            .iter()
            .map(|m| m.label)
            .collect();
        assert_eq!(labels, vec![1, 2, 3], "2 and 3 shipped as one batch");
    }

    #[test]
    fn completion_releases_the_batch_that_grew_behind_it() {
        let (nic, collector, mut bridge) = lingering();
        nic.deliver(&wire(1, 0), 0).unwrap();
        bridge.ingest(&nic, &collector, 0);
        nic.deliver(&wire(2, 0), 100_000).unwrap();
        nic.deliver(&wire(3, 0), 100_000).unwrap();
        assert_eq!(bridge.ingest(&nic, &collector, 100_000).batches, 0);
        assert_eq!(bridge.complete(1, 150_000), Some(true));
        let stats = bridge.ingest(&nic, &collector, 160_000);
        assert_eq!(stats.batches, 1, "well before the 600 us linger deadline");
        assert_eq!(bridge.inflight(), 2);
    }

    #[test]
    fn a_lost_request_stops_holding_batches_once_its_deadline_passes() {
        let (nic, collector, mut bridge) = lingering();
        nic.deliver(&wire(1, 0), 0).unwrap();
        bridge.ingest(&nic, &collector, 0); // never completed; deadline 10 ms
        nic.deliver(&wire(2, 0), 9_900_000).unwrap();
        assert_eq!(
            bridge.ingest(&nic, &collector, 9_900_000).batches,
            0,
            "request 1 may still be served in time"
        );
        assert_eq!(bridge.ingest(&nic, &collector, 10_000_001).batches, 1);
        bridge.complete(2, 10_100_000);
        nic.deliver(&wire(3, 0), 11_000_000).unwrap();
        assert_eq!(
            bridge.ingest(&nic, &collector, 11_000_000).batches,
            1,
            "back to shipping at once, with request 1 still unaccounted for"
        );
        assert_eq!(bridge.inflight(), 2);
    }

    #[test]
    fn completed_requests_have_their_rx_buffers_released_by_the_next_sweep() {
        let (nic, collector, mut bridge) = lingering();
        nic.deliver(&wire(1, 0), 0).unwrap();
        nic.deliver(&wire(2, 0), 0).unwrap();
        bridge.ingest(&nic, &collector, 0);
        assert_eq!(nic.buffers_held(), 2, "held while the decode may read them");
        bridge.complete(1, 1_000);
        bridge.complete(2, 1_000);
        bridge.ingest(&nic, &collector, 2_000);
        assert_eq!(nic.buffers_held(), 0, "with no caller-side release");
    }

    #[test]
    fn flush_drains_a_lingering_batch() {
        let (nic, collector, mut bridge) = lingering();
        assert_eq!(bridge.flush(&collector), 0);
        nic.deliver(&wire(1, 0), 0).unwrap();
        bridge.ingest(&nic, &collector, 0);
        nic.deliver(&wire(2, 0), 0).unwrap();
        assert_eq!(bridge.ingest(&nic, &collector, 1_000).batches, 0);
        assert_eq!(bridge.flush(&collector), 1);
        assert_eq!(bridge.inflight(), 2);
        assert_eq!(bridge.admission.depth(), 0);
    }
}
