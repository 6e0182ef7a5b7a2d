//! Admission control with load shedding.
//!
//! Every arriving request carries a deadline (`arrival + slo`). The
//! controller predicts the request's completion time from the current
//! backlog and a calibrated per-item service estimate; requests that
//! cannot meet their deadline — or that arrive to a full queue — trigger
//! the configured [`ShedPolicy`] instead of queueing unboundedly.

use crate::config::{ServeRequest, ServingConfig, ShedPolicy};
use crate::instruments::ServingInstruments;
use crate::wfq::WeightedFairQueue;
use dlb_simcore::SimTime;
use std::sync::Arc;

/// Outcome of offering one request to the admission controller.
#[derive(Debug, Default)]
pub struct Admission {
    /// True when the offered request entered the queue.
    pub admitted: bool,
    /// Previously admitted requests evicted to make room (shed).
    pub evicted: Vec<ServeRequest>,
}

/// Deadline-aware admission controller over a per-tenant weighted fair
/// queue.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: ServingConfig,
    queue: WeightedFairQueue<ServeRequest>,
    /// Estimated downstream service time per item (queue-drain rate).
    est_per_item: SimTime,
    /// Estimated pipeline latency once an item is dequeued (decode + copy
    /// + inference for its batch).
    base_latency: SimTime,
    instruments: Option<Arc<ServingInstruments>>,
}

impl AdmissionController {
    /// Controller over `cfg`'s tenants; service estimates default to zero
    /// (feasibility checks pass, only the capacity bound sheds).
    pub fn new(cfg: ServingConfig) -> Self {
        let queue = WeightedFairQueue::new(cfg.tenants.iter().map(|t| (t.id, t.weight)));
        Self {
            cfg,
            queue,
            est_per_item: SimTime::ZERO,
            base_latency: SimTime::ZERO,
            instruments: None,
        }
    }

    /// Attaches telemetry handles.
    pub fn with_instruments(mut self, instruments: Arc<ServingInstruments>) -> Self {
        self.instruments = Some(instruments);
        self
    }

    /// Calibrates the feasibility predictor: `per_item` is the downstream
    /// drain time per queued item, `base` the pipeline latency after
    /// dequeue.
    pub fn set_service_estimate(&mut self, per_item: SimTime, base: SimTime) {
        self.est_per_item = per_item;
        self.base_latency = base;
    }

    /// Queued requests right now.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Predicted completion time for a request admitted at `now` behind
    /// `backlog` queued items.
    pub(crate) fn predicted_completion(&self, now: SimTime, backlog: usize) -> SimTime {
        let queueing = SimTime::from_nanos(
            self.est_per_item
                .as_nanos()
                .saturating_mul(backlog as u64 + 1),
        );
        now + queueing + self.base_latency
    }

    fn feasible(&self, req: &ServeRequest, now: SimTime, backlog: usize) -> bool {
        self.predicted_completion(now, backlog) <= req.deadline
    }

    /// Offers one request at `now`. With shedding disabled the request is
    /// always admitted; otherwise the capacity bound and the deadline
    /// feasibility check gate it, and the [`ShedPolicy`] decides who pays.
    pub fn offer(&mut self, req: ServeRequest, now: SimTime) -> Admission {
        if let Some(inst) = &self.instruments {
            inst.on_offered();
        }
        let Some(policy) = self.cfg.shed_policy else {
            self.admit(req);
            return Admission {
                admitted: true,
                evicted: Vec::new(),
            };
        };

        let mut evicted = Vec::new();
        // A request that cannot meet its deadline even from an empty queue
        // is rejected outright — evicting others cannot save it.
        if !self.feasible(&req, now, 0) {
            self.reject(&req);
            return Admission {
                admitted: false,
                evicted,
            };
        }

        let admitted = loop {
            let backlog = self.queue.len();
            if backlog < self.cfg.queue_capacity && self.feasible(&req, now, backlog) {
                self.admit(req);
                break true;
            }
            // Over capacity or infeasible behind the current backlog:
            // shed per policy until the arrival fits or is rejected.
            let victim = match policy {
                ShedPolicy::DropNewest => None,
                ShedPolicy::DropOldest => self.queue.evict_oldest(),
                ShedPolicy::DeadlineAware => {
                    // Evict the queued request with the latest deadline,
                    // but never one more urgent than the arrival.
                    let latest = self.queue.iter().map(|r| r.deadline).max();
                    match latest {
                        Some(d) if d > req.deadline => self.queue.evict_max_by_key(|r| r.deadline),
                        _ => None,
                    }
                }
            };
            match victim {
                Some(v) => {
                    if let Some(inst) = &self.instruments {
                        inst.on_shed(&v);
                    }
                    evicted.push(v);
                }
                None => {
                    self.reject(&req);
                    break false;
                }
            }
        };
        self.publish_depth();
        Admission { admitted, evicted }
    }

    fn admit(&mut self, req: ServeRequest) {
        if let Some(inst) = &self.instruments {
            inst.on_admitted(&req);
        }
        self.queue.push(req.tenant, req);
        self.publish_depth();
    }

    fn reject(&self, req: &ServeRequest) {
        if let Some(inst) = &self.instruments {
            inst.on_rejected(req);
        }
    }

    /// Dequeues the next request in WFQ order, recording its queue delay.
    pub fn pop(&mut self, now: SimTime) -> Option<ServeRequest> {
        let req = self.queue.pop()?;
        if let Some(inst) = &self.instruments {
            inst.on_dequeued(now.saturating_sub(req.arrival));
            inst.set_queue_depth(self.queue.len());
        }
        Some(req)
    }

    /// Evicts every queued request whose deadline already passed at `now`
    /// (they would complete late anyway). No-op with shedding disabled.
    pub(crate) fn shed_expired(&mut self, now: SimTime) -> Vec<ServeRequest> {
        self.shed_unservable(now, SimTime::ZERO)
    }

    /// Evicts every queued request that cannot complete in time even if
    /// dispatched right now: `lead_time` is the caller's estimate of the
    /// dequeue→completion latency (batch forming + pipeline traversal at
    /// the current occupancy), so requests with `deadline < now + lead`
    /// would only waste downstream capacity on a late answer. No-op with
    /// shedding disabled.
    pub fn shed_unservable(&mut self, now: SimTime, lead_time: SimTime) -> Vec<ServeRequest> {
        if self.cfg.shed_policy.is_none() {
            return Vec::new();
        }
        let cutoff = now + lead_time;
        let mut out = Vec::new();
        while self.queue.iter().any(|r| r.deadline < cutoff) {
            // evict_max_by_key with an "unservable first" key pulls one
            // doomed entry per round.
            if let Some(v) = self
                .queue
                .evict_max_by_key(|r| (r.deadline < cutoff, std::cmp::Reverse(r.deadline)))
            {
                if let Some(inst) = &self.instruments {
                    inst.on_shed(&v);
                }
                out.push(v);
            } else {
                break;
            }
        }
        if !out.is_empty() {
            self.publish_depth();
        }
        out
    }

    fn publish_depth(&self) {
        if let Some(inst) = &self.instruments {
            inst.set_queue_depth(self.queue.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantClass;

    fn cfg(policy: ShedPolicy, capacity: usize) -> ServingConfig {
        let mut c = ServingConfig::single_tenant(4, SimTime::from_millis(10), policy);
        c.queue_capacity = capacity;
        c
    }

    fn req(id: u64, arrival: SimTime, slo: SimTime) -> ServeRequest {
        ServeRequest {
            id,
            tenant: 0,
            arrival,
            deadline: arrival + slo,
        }
    }

    #[test]
    fn admits_until_capacity_then_drop_newest_rejects() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropNewest, 3));
        let now = SimTime::ZERO;
        for i in 0..3 {
            let a = ac.offer(req(i, now, SimTime::from_millis(10)), now);
            assert!(a.admitted);
            assert!(a.evicted.is_empty());
        }
        let a = ac.offer(req(3, now, SimTime::from_millis(10)), now);
        assert!(!a.admitted, "queue full, newest dropped");
        assert!(a.evicted.is_empty());
        assert_eq!(ac.depth(), 3);
    }

    #[test]
    fn drop_oldest_evicts_to_make_room() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropOldest, 2));
        let now = SimTime::ZERO;
        assert!(
            ac.offer(req(0, now, SimTime::from_millis(10)), now)
                .admitted
        );
        assert!(
            ac.offer(req(1, now, SimTime::from_millis(10)), now)
                .admitted
        );
        let a = ac.offer(req(2, now, SimTime::from_millis(10)), now);
        assert!(a.admitted);
        assert_eq!(a.evicted.len(), 1);
        assert_eq!(a.evicted[0].id, 0, "oldest goes first");
        assert_eq!(ac.depth(), 2);
    }

    #[test]
    fn deadline_aware_evicts_laxest_request() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DeadlineAware, 2));
        let now = SimTime::ZERO;
        assert!(
            ac.offer(req(0, now, SimTime::from_millis(50)), now)
                .admitted
        );
        assert!(ac.offer(req(1, now, SimTime::from_millis(5)), now).admitted);
        // Tighter than request 0 → evicts it.
        let a = ac.offer(req(2, now, SimTime::from_millis(10)), now);
        assert!(a.admitted);
        assert_eq!(a.evicted[0].id, 0);
        // Laxer than everything queued → rejected instead.
        let a = ac.offer(req(3, now, SimTime::from_millis(60)), now);
        assert!(!a.admitted);
        assert!(a.evicted.is_empty());
    }

    #[test]
    fn infeasible_deadline_rejected_without_evictions() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropOldest, 64));
        ac.set_service_estimate(SimTime::from_millis(2), SimTime::from_millis(1));
        let now = SimTime::ZERO;
        assert!(
            ac.offer(req(0, now, SimTime::from_millis(10)), now)
                .admitted
        );
        // 2 ms/item × 1 + 1 ms base = 3 ms > 2 ms SLO even on an empty
        // queue: reject, and crucially do not evict request 0.
        let a = ac.offer(req(1, now, SimTime::from_millis(2)), now);
        assert!(!a.admitted);
        assert!(a.evicted.is_empty());
        assert_eq!(ac.depth(), 1);
    }

    #[test]
    fn backlog_makes_deadline_infeasible() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropNewest, 100));
        ac.set_service_estimate(SimTime::from_millis(1), SimTime::ZERO);
        let now = SimTime::ZERO;
        // 10 ms SLO, 1 ms per item: the 11th request (10 queued ahead)
        // would complete at 11 ms > deadline; the 10th lands exactly on it.
        let mut admitted = 0;
        for i in 0..12 {
            if ac
                .offer(req(i, now, SimTime::from_millis(10)), now)
                .admitted
            {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    fn disabled_shedding_admits_everything() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropNewest, 2).without_shedding());
        let now = SimTime::ZERO;
        for i in 0..100 {
            assert!(ac.offer(req(i, now, SimTime::from_millis(1)), now).admitted);
        }
        assert_eq!(ac.depth(), 100);
    }

    #[test]
    fn shed_expired_drops_only_late_requests() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropOldest, 64));
        let t0 = SimTime::ZERO;
        ac.offer(req(0, t0, SimTime::from_millis(1)), t0);
        ac.offer(req(1, t0, SimTime::from_millis(100)), t0);
        let shed = ac.shed_expired(SimTime::from_millis(2));
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 0);
        assert_eq!(ac.depth(), 1);
        assert!(ac.shed_expired(SimTime::from_millis(2)).is_empty());
    }

    #[test]
    fn shed_unservable_uses_dispatch_lead() {
        let mut ac = AdmissionController::new(cfg(ShedPolicy::DropOldest, 64));
        let t0 = SimTime::ZERO;
        ac.offer(req(0, t0, SimTime::from_millis(3)), t0);
        ac.offer(req(1, t0, SimTime::from_millis(20)), t0);
        // Neither is expired at t=1 ms, but with a 5 ms dispatch lead the
        // 3 ms-deadline request can no longer make it.
        let shed = ac.shed_unservable(SimTime::from_millis(1), SimTime::from_millis(5));
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 0);
        assert_eq!(ac.depth(), 1);
        // A deadline exactly at now + lead is still servable.
        let shed = ac.shed_unservable(SimTime::from_millis(15), SimTime::from_millis(5));
        assert!(shed.is_empty());
    }

    #[test]
    fn wfq_interleaves_tenants_on_pop() {
        let mut cfg = cfg(ShedPolicy::DropNewest, 64);
        cfg.tenants = vec![
            TenantClass {
                id: 0,
                weight: 1,
                load_share: 0.5,
            },
            TenantClass {
                id: 1,
                weight: 1,
                load_share: 0.5,
            },
        ];
        let mut ac = AdmissionController::new(cfg);
        let now = SimTime::ZERO;
        // Tenant 0 floods first, then tenant 1 sends two.
        for i in 0..6 {
            ac.offer(req(i, now, SimTime::from_millis(10)), now);
        }
        for i in 6..8 {
            let mut r = req(i, now, SimTime::from_millis(10));
            r.tenant = 1;
            ac.offer(r, now);
        }
        let order: Vec<u32> = (0..4).map(|_| ac.pop(now).unwrap().tenant).collect();
        assert_eq!(order, vec![0, 1, 0, 1], "hot tenant cannot starve tenant 1");
    }
}
