//! Telemetry handles for the serving layer: one struct owning every
//! counter/gauge/histogram the admission controller, batch former, and
//! completion path record into, pre-resolved from a [`Registry`].
//!
//! All serving components record through an optional
//! `Arc<ServingInstruments>`; when absent (unit tests) the layer runs
//! telemetry-free with zero overhead.

use crate::batcher::CloseReason;
use crate::config::ServeRequest;
use dlb_simcore::SimTime;
use dlb_telemetry::{names, Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-tenant counter handles (`serving.tenant.<id>.*`).
#[derive(Debug)]
struct TenantHandles {
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    goodput: Arc<Gauge>,
}

/// Pre-resolved serving-layer metric handles.
///
/// The accounting contract enforced by
/// `PipelineSnapshot::invariant_violations`:
///
/// * `offered = admitted + rejected` — every request that reaches the
///   admission door is either let in or turned away;
/// * `admitted = completed + shed + inflight` — admitted requests are
///   conserved until they complete or are evicted;
/// * `good ≤ completed` — goodput counts in-SLO completions only;
/// * `batches_formed = closed_full + closed_linger + closed_idle` — every
///   batch closed by exactly one rule.
#[derive(Debug)]
pub struct ServingInstruments {
    registry: Arc<Registry>,
    offered: Arc<Counter>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    completed: Arc<Counter>,
    good: Arc<Counter>,
    inflight: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    queue_delay: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    batches: Arc<Counter>,
    batches_full: Arc<Counter>,
    batches_linger: Arc<Counter>,
    batches_idle: Arc<Counter>,
    form_wait: Arc<Histogram>,
    tenants: Mutex<BTreeMap<u32, TenantHandles>>,
}

impl ServingInstruments {
    /// Resolves every serving metric in `registry`. `max_batch` sizes the
    /// batch-size histogram buckets (one bucket per batch size).
    pub fn new(registry: &Arc<Registry>, max_batch: u32) -> Arc<Self> {
        let bounds: Vec<u64> = (1..=u64::from(max_batch.max(1))).collect();
        Arc::new(Self {
            offered: registry.counter(names::SERVING_OFFERED),
            admitted: registry.counter(names::SERVING_ADMITTED),
            rejected: registry.counter(names::SERVING_REJECTED),
            shed: registry.counter(names::SERVING_SHED),
            completed: registry.counter(names::SERVING_COMPLETED),
            good: registry.counter(names::SERVING_GOOD),
            inflight: registry.gauge(names::SERVING_INFLIGHT),
            queue_depth: registry.gauge(names::SERVING_QUEUE_DEPTH),
            queue_delay: registry.histogram(names::SERVING_QUEUE_DELAY),
            batch_size: registry.histogram_with(names::SERVING_BATCH_SIZE, bounds),
            batches: registry.counter(names::SERVING_BATCHES),
            batches_full: registry.counter(names::SERVING_BATCH_FULL),
            batches_linger: registry.counter(names::SERVING_BATCH_LINGER),
            batches_idle: registry.counter(names::SERVING_BATCH_IDLE),
            form_wait: registry.histogram(names::SERVING_FORM_WAIT),
            tenants: Mutex::new(BTreeMap::new()),
            registry: Arc::clone(registry),
        })
    }

    fn with_tenant(&self, tenant: u32, f: impl FnOnce(&TenantHandles)) {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        let handles = map.entry(tenant).or_insert_with(|| {
            use names::serving_tenant::*;
            let key = |field: &str| names::member_key(PREFIX, tenant, field);
            TenantHandles {
                admitted: self.registry.counter(&key(ADMITTED)),
                completed: self.registry.counter(&key(COMPLETED)),
                shed: self.registry.counter(&key(SHED)),
                goodput: self.registry.gauge(&key(GOODPUT)),
            }
        });
        f(handles);
    }

    /// A request reached the admission door.
    pub(crate) fn on_offered(&self) {
        self.offered.inc();
    }

    /// A request was admitted (now in flight until completed or shed).
    pub fn on_admitted(&self, req: &ServeRequest) {
        self.admitted.inc();
        self.inflight.inc();
        self.with_tenant(req.tenant, |t| t.admitted.inc());
    }

    /// A request was turned away at the door (never admitted).
    pub(crate) fn on_rejected(&self, _req: &ServeRequest) {
        self.rejected.inc();
    }

    /// An admitted request was evicted by the shedding policy.
    pub(crate) fn on_shed(&self, req: &ServeRequest) {
        self.shed.inc();
        self.inflight.dec();
        self.with_tenant(req.tenant, |t| t.shed.inc());
    }

    /// An admitted request left the admission queue after waiting `delay`.
    pub(crate) fn on_dequeued(&self, delay: SimTime) {
        self.queue_delay.record(delay.as_nanos());
    }

    /// An admitted request completed at `now`; records goodput when it met
    /// its deadline and returns whether it did.
    pub fn on_completed(&self, req: &ServeRequest, now: SimTime) -> bool {
        self.completed.inc();
        self.inflight.dec();
        let good = now <= req.deadline;
        self.with_tenant(req.tenant, |t| {
            t.completed.inc();
            if good {
                t.goodput.inc();
            }
        });
        if good {
            self.good.inc();
        }
        good
    }

    /// The dynamic batcher closed a batch of `size` items for `reason`,
    /// `waited` after its first push (`None`: a drain, which has no clock).
    /// Drains count under linger, so the three close counters always sum
    /// to `batches_formed`.
    pub(crate) fn on_batch_closed(&self, size: u32, reason: CloseReason, waited: Option<SimTime>) {
        self.batches.inc();
        self.batch_size.record(u64::from(size));
        match reason {
            CloseReason::Full => self.batches_full.inc(),
            CloseReason::Linger | CloseReason::Drain => self.batches_linger.inc(),
            CloseReason::Idle => self.batches_idle.inc(),
        }
        if let Some(waited) = waited {
            self.form_wait.record(waited.as_nanos());
        }
    }

    /// Publishes the admission-queue depth.
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_telemetry::PipelineSnapshot;

    fn req(id: u64, tenant: u32) -> ServeRequest {
        ServeRequest {
            id,
            tenant,
            arrival: SimTime::from_micros(id),
            deadline: SimTime::from_micros(id) + SimTime::from_millis(1),
        }
    }

    #[test]
    fn lifecycle_satisfies_conservation() {
        let registry = Arc::new(Registry::new());
        let inst = ServingInstruments::new(&registry, 4);
        for _ in 0..10 {
            inst.on_offered();
        }
        for i in 0..8u64 {
            inst.on_admitted(&req(i, (i % 2) as u32));
        }
        inst.on_rejected(&req(8, 0));
        inst.on_rejected(&req(9, 1));
        inst.on_shed(&req(0, 0));
        for i in 1..8u64 {
            inst.on_completed(&req(i, (i % 2) as u32), SimTime::from_micros(i));
        }
        inst.on_batch_closed(4, CloseReason::Full, Some(SimTime::from_micros(3)));
        inst.on_batch_closed(3, CloseReason::Linger, Some(SimTime::from_micros(9)));
        inst.on_batch_closed(1, CloseReason::Idle, Some(SimTime::ZERO));
        inst.on_batch_closed(2, CloseReason::Drain, None);
        let snap = PipelineSnapshot::from_parts(registry.snapshot(), Vec::new());
        assert_eq!(snap.invariant_violations(), Vec::<String>::new());
        assert_eq!(snap.serving.offered, 10);
        assert_eq!(snap.serving.admitted, 8);
        assert_eq!(snap.serving.rejected, 2);
        assert_eq!(snap.serving.shed, 1);
        assert_eq!(snap.serving.completed, 7);
        assert_eq!(snap.serving.good, 7);
        assert_eq!(snap.serving.inflight, 0);
        assert_eq!(snap.serving.batches, 4);
        assert_eq!(snap.serving.batches_closed_full, 1);
        assert_eq!(snap.serving.batches_closed_linger, 2, "linger + drain");
        assert_eq!(snap.serving.batches_closed_idle, 1);
        let waits = snap.serving.form_wait.expect("recorded");
        assert_eq!(waits.count, 3, "a drain records no wait");
        assert_eq!(snap.serving.tenants.len(), 2);
    }

    #[test]
    fn late_completion_is_not_good() {
        let registry = Arc::new(Registry::new());
        let inst = ServingInstruments::new(&registry, 2);
        let r = req(1, 0);
        inst.on_offered();
        inst.on_admitted(&r);
        assert!(!inst.on_completed(&r, r.deadline + SimTime::from_nanos(1)));
        let snap = PipelineSnapshot::from_parts(registry.snapshot(), Vec::new());
        assert_eq!(snap.serving.good, 0);
        assert_eq!(snap.serving.completed, 1);
    }
}
