//! Serving-layer configuration: SLO, dynamic-batching knobs, shedding
//! policy, and tenant classes.

use dlb_simcore::SimTime;

/// One request as seen by the serving layer.
///
/// The serving layer is clock-domain agnostic: `arrival`/`deadline` are
/// virtual nanoseconds in the DES and wall-clock nanoseconds (via
/// [`SimTime::from_nanos`]) in the functional pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// Globally unique request id.
    pub id: u64,
    /// Tenant class (client id in the functional path).
    pub tenant: u32,
    /// When the request reached the server.
    pub arrival: SimTime,
    /// Absolute completion deadline (`arrival + slo`).
    pub deadline: SimTime,
}

impl ServeRequest {
    /// True when the deadline has passed at `now`.
    pub(crate) fn expired(&self, now: SimTime) -> bool {
        now > self.deadline
    }
}

/// What the admission controller does when a request cannot meet its SLO
/// (or the queue is full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject the arriving request; queued work is never disturbed.
    DropNewest,
    /// Evict the oldest queued request(s) to make the arrival feasible.
    DropOldest,
    /// Evict the queued request with the *latest* deadline when it is less
    /// urgent than the arrival (EDF-flavoured shedding).
    DeadlineAware,
}

/// One tenant class: scheduling weight and share of the offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantClass {
    /// Tenant id (matches the wire `client_id`).
    pub id: u32,
    /// WFQ weight (≥ 1); a weight-2 tenant gets twice the service of a
    /// weight-1 tenant under backlog.
    pub weight: u32,
    /// Fraction of the offered load this tenant generates (the DES arrival
    /// process samples tenants from these shares; they need not sum to 1 —
    /// they are normalised).
    pub load_share: f64,
}

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Close a forming batch at this many items.
    pub max_batch: u32,
    /// Close a non-empty forming batch once its first item has waited this
    /// long (Triton/Clipper-style linger).
    pub max_linger: SimTime,
    /// Per-request latency SLO; `deadline = arrival + slo`.
    pub slo: SimTime,
    /// Admission-queue bound; arrivals beyond it trigger the shedding
    /// policy. Ignored when shedding is disabled.
    pub queue_capacity: usize,
    /// Shedding policy; `None` disables admission control entirely (every
    /// request is admitted and queues unboundedly — the pre-serving-layer
    /// behaviour, kept for A/B sweeps).
    pub shed_policy: Option<ShedPolicy>,
    /// Tenant classes. Must be non-empty.
    pub tenants: Vec<TenantClass>,
}

impl ServingConfig {
    /// A single-tenant configuration with sensible derived knobs:
    /// `max_linger = slo/4` and `queue_capacity = 4 × max_batch`.
    pub fn single_tenant(max_batch: u32, slo: SimTime, policy: ShedPolicy) -> Self {
        assert!(max_batch >= 1, "max_batch must be >= 1");
        Self {
            max_batch,
            max_linger: SimTime::from_nanos(slo.as_nanos() / 4),
            slo,
            queue_capacity: 4 * max_batch as usize,
            shed_policy: Some(policy),
            tenants: vec![TenantClass {
                id: 0,
                weight: 1,
                load_share: 1.0,
            }],
        }
    }

    /// The paper's five inference clients as five equal-weight tenants.
    pub fn five_clients(max_batch: u32, slo: SimTime, policy: ShedPolicy) -> Self {
        let mut cfg = Self::single_tenant(max_batch, slo, policy);
        cfg.tenants = (0..5)
            .map(|id| TenantClass {
                id,
                weight: 1,
                load_share: 0.2,
            })
            .collect();
        cfg
    }

    /// Disables shedding (unbounded admission queue) — the A/B baseline
    /// demonstrating why the serving layer exists.
    pub fn without_shedding(mut self) -> Self {
        self.shed_policy = None;
        self.queue_capacity = usize::MAX;
        self
    }

    /// Replaces the tenant classes.
    pub fn with_tenants(mut self, tenants: Vec<TenantClass>) -> Self {
        assert!(!tenants.is_empty(), "at least one tenant class");
        self.tenants = tenants;
        self
    }

    /// Total of all tenant load shares (for normalisation).
    pub fn total_load_share(&self) -> f64 {
        self.tenants.iter().map(|t| t.load_share.max(0.0)).sum()
    }

    /// `(tenant id, weight)` pairs for carving a per-tenant
    /// decoded-sample cache (`SampleCache::partitioned`): capacity is
    /// allotted proportionally to WFQ weight, so a tenant's cache share
    /// tracks its service share and one tenant's working set can never
    /// evict another's.
    pub fn cache_partitions(&self) -> Vec<(u32, u32)> {
        self.tenants
            .iter()
            .map(|t| (t.id, t.weight.max(1)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_knobs() {
        let cfg = ServingConfig::single_tenant(8, SimTime::from_millis(20), ShedPolicy::DropNewest);
        assert_eq!(cfg.max_linger, SimTime::from_millis(5));
        assert_eq!(cfg.queue_capacity, 32);
        assert_eq!(cfg.tenants.len(), 1);
        assert!(cfg.shed_policy.is_some());
        let off = cfg.clone().without_shedding();
        assert!(off.shed_policy.is_none());
        assert_eq!(off.queue_capacity, usize::MAX);
    }

    #[test]
    fn request_expiry() {
        let r = ServeRequest {
            id: 1,
            tenant: 0,
            arrival: SimTime::from_millis(10),
            deadline: SimTime::from_millis(30),
        };
        assert!(r.expired(SimTime::from_millis(31)));
        assert!(!r.expired(SimTime::from_millis(30)));
    }

    #[test]
    fn five_clients_shares() {
        let cfg = ServingConfig::five_clients(4, SimTime::from_millis(10), ShedPolicy::DropOldest);
        assert_eq!(cfg.tenants.len(), 5);
        assert!((cfg.total_load_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cache_partitions_follow_wfq_weights() {
        let cfg = ServingConfig::single_tenant(4, SimTime::from_millis(10), ShedPolicy::DropNewest)
            .with_tenants(vec![
                TenantClass {
                    id: 7,
                    weight: 3,
                    load_share: 0.5,
                },
                TenantClass {
                    id: 9,
                    weight: 0, // degenerate weight is clamped to 1
                    load_share: 0.5,
                },
            ]);
        assert_eq!(cfg.cache_partitions(), vec![(7, 3), (9, 1)]);
    }
}
