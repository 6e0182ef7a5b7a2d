//! Telemetry handles for the cluster layer: one struct owning every
//! `cluster.*` counter/gauge/histogram the shard router records into,
//! pre-resolved from a [`Registry`].
//!
//! The accounting contract enforced by
//! `PipelineSnapshot::invariant_violations`:
//!
//! * `requests + hedge_dups = served + replayed + shed + inflight` — at
//!   quiescence (`inflight = 0`) this is exactly the ISSUE law
//!   `in = served + shed + replayed − hedge_dups`, rearranged so both
//!   sides stay unsigned;
//! * `dispatches = admitted + hedges + replays` — every copy ever put on
//!   a node is a primary, a hedge, or a replay;
//! * `dispatches = completions + lost + node_queued` — every copy
//!   completes, dies with its node, or is still queued;
//! * `completions = served + replayed` and `lost = replays +
//!   lost_unreplayed` — completions and losses are fully classified.

use crate::hedge::CopyKind;
use dlb_simcore::SimTime;
use dlb_telemetry::{names, Counter, Gauge, Histogram, Registry};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Per-tenant counter handles (`cluster.tenant.<id>.*`).
#[derive(Debug)]
struct TenantHandles {
    requests: Arc<Counter>,
    completed: Arc<Counter>,
    shed: Arc<Counter>,
    good: Arc<Counter>,
}

/// Pre-resolved cluster-layer metric handles.
#[derive(Debug)]
pub struct ClusterInstruments {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    admitted: Arc<Counter>,
    shed: Arc<Counter>,
    quota_shed: Arc<Counter>,
    dispatches: Arc<Counter>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    hedge_dups: Arc<Counter>,
    replays: Arc<Counter>,
    completions: Arc<Counter>,
    served: Arc<Counter>,
    replayed: Arc<Counter>,
    good: Arc<Counter>,
    lost: Arc<Counter>,
    lost_unreplayed: Arc<Counter>,
    kills: Arc<Counter>,
    rebalances: Arc<Counter>,
    inflight: Arc<Gauge>,
    node_queued: Arc<Gauge>,
    nodes_alive: Arc<Gauge>,
    latency: Arc<Histogram>,
    tenants: Mutex<BTreeMap<u32, TenantHandles>>,
}

impl ClusterInstruments {
    /// Resolves every cluster metric in `registry`.
    pub fn new(registry: &Arc<Registry>) -> Arc<Self> {
        Arc::new(Self {
            requests: registry.counter(names::CLUSTER_REQUESTS),
            admitted: registry.counter(names::CLUSTER_ADMITTED),
            shed: registry.counter(names::CLUSTER_SHED),
            quota_shed: registry.counter(names::CLUSTER_QUOTA_SHED),
            dispatches: registry.counter(names::CLUSTER_DISPATCHES),
            hedges: registry.counter(names::CLUSTER_HEDGES),
            hedge_wins: registry.counter(names::CLUSTER_HEDGE_WINS),
            hedge_dups: registry.counter(names::CLUSTER_HEDGE_DUPS),
            replays: registry.counter(names::CLUSTER_REPLAYS),
            completions: registry.counter(names::CLUSTER_COMPLETIONS),
            served: registry.counter(names::CLUSTER_SERVED),
            replayed: registry.counter(names::CLUSTER_REPLAYED),
            good: registry.counter(names::CLUSTER_GOOD),
            lost: registry.counter(names::CLUSTER_LOST),
            lost_unreplayed: registry.counter(names::CLUSTER_LOST_UNREPLAYED),
            kills: registry.counter(names::CLUSTER_KILLS),
            rebalances: registry.counter(names::CLUSTER_REBALANCES),
            inflight: registry.gauge(names::CLUSTER_INFLIGHT),
            node_queued: registry.gauge(names::CLUSTER_NODE_QUEUED),
            nodes_alive: registry.gauge(names::CLUSTER_NODES_ALIVE),
            latency: registry.histogram(names::CLUSTER_LATENCY),
            tenants: Mutex::new(BTreeMap::new()),
            registry: Arc::clone(registry),
        })
    }

    fn with_tenant(&self, tenant: u32, f: impl FnOnce(&TenantHandles)) {
        let mut map = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        let handles = map.entry(tenant).or_insert_with(|| {
            use names::cluster_tenant::*;
            let key = |field: &str| names::member_key(PREFIX, tenant, field);
            TenantHandles {
                requests: self.registry.counter(&key(REQUESTS)),
                completed: self.registry.counter(&key(COMPLETED)),
                shed: self.registry.counter(&key(SHED)),
                good: self.registry.counter(&key(GOOD)),
            }
        });
        f(handles);
    }

    /// A request arrived at the cluster door.
    pub fn on_request(&self, tenant: u32) {
        self.requests.inc();
        self.inflight.inc();
        self.with_tenant(tenant, |t| t.requests.inc());
    }

    /// The request was terminally shed (`quota` distinguishes quota
    /// denials from dead-ring / unreplayable-loss sheds).
    pub fn on_shed(&self, tenant: u32, quota: bool) {
        self.shed.inc();
        if quota {
            self.quota_shed.inc();
        }
        self.inflight.dec();
        self.with_tenant(tenant, |t| t.shed.inc());
    }

    /// The request passed quota + routing and got a primary dispatch.
    pub fn on_admitted(&self) {
        self.admitted.inc();
    }

    /// A copy of some request was put on a node's queue.
    pub fn on_dispatch(&self, kind: CopyKind) {
        self.dispatches.inc();
        self.node_queued.inc();
        match kind {
            CopyKind::Primary => {}
            CopyKind::Hedge => self.hedges.inc(),
            CopyKind::Replay => self.replays.inc(),
        }
    }

    /// A copy finished service. `won` is false for duplicates of an
    /// already-terminal request; `good` only matters when `won`.
    pub fn on_completion(&self, tenant: u32, kind: CopyKind, won: bool, good: bool) {
        self.completions.inc();
        self.node_queued.dec();
        match kind {
            CopyKind::Replay => self.replayed.inc(),
            _ => self.served.inc(),
        }
        if won {
            self.inflight.dec();
            if kind == CopyKind::Hedge {
                self.hedge_wins.inc();
            }
            self.with_tenant(tenant, |t| {
                t.completed.inc();
                if good {
                    t.good.inc();
                }
            });
            if good {
                self.good.inc();
            }
        } else {
            self.hedge_dups.inc();
        }
    }

    /// Records a winning request's arrival→completion latency.
    pub fn observe_latency(&self, latency: SimTime) {
        self.latency.record(latency.as_nanos());
    }

    /// A copy died with its node. `replaying` is true when the caller
    /// immediately re-dispatches it (a [`CopyKind::Replay`] follows).
    pub fn on_lost(&self, replaying: bool) {
        self.lost.inc();
        self.node_queued.dec();
        if !replaying {
            self.lost_unreplayed.inc();
        }
    }

    /// A node was chaos-killed; `alive` survivors remain.
    pub fn on_kill(&self, alive: u32) {
        self.kills.inc();
        self.nodes_alive.set(i64::from(alive));
    }

    /// Quotas were rebalanced after a membership change.
    pub fn on_rebalance(&self) {
        self.rebalances.inc();
    }

    /// Sets the live-node gauge (initial membership).
    pub fn set_nodes_alive(&self, alive: u32) {
        self.nodes_alive.set(i64::from(alive));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_telemetry::Telemetry;

    #[test]
    fn laws_balance_over_a_scripted_run() {
        let t = Telemetry::with_defaults();
        let ins = ClusterInstruments::new(&t.registry);
        ins.set_nodes_alive(2);

        // Request 1: plain primary serve, in SLO.
        ins.on_request(0);
        ins.on_admitted();
        ins.on_dispatch(CopyKind::Primary);
        ins.on_completion(0, CopyKind::Primary, true, true);

        // Request 2: hedged; primary wins, hedge completes as a dup.
        ins.on_request(0);
        ins.on_admitted();
        ins.on_dispatch(CopyKind::Primary);
        ins.on_dispatch(CopyKind::Hedge);
        ins.on_completion(0, CopyKind::Primary, true, true);
        ins.on_completion(0, CopyKind::Hedge, false, false);

        // Request 3: primary lost to a kill, replayed, replay wins late.
        ins.on_request(1);
        ins.on_admitted();
        ins.on_dispatch(CopyKind::Primary);
        ins.on_kill(1);
        ins.on_rebalance();
        ins.on_lost(true);
        ins.on_dispatch(CopyKind::Replay);
        ins.on_completion(1, CopyKind::Replay, true, false);

        // Request 4: shed at the quota door.
        ins.on_request(1);
        ins.on_shed(1, true);

        let snap = t.pipeline_snapshot();
        let c = &snap.cluster;
        assert_eq!(c.requests, 4);
        assert_eq!(c.served, 3);
        assert_eq!(c.replayed, 1);
        assert_eq!(c.hedge_dups, 1);
        assert_eq!(c.shed, 1);
        assert_eq!(c.inflight, 0);
        assert_eq!(
            c.requests + c.hedge_dups,
            c.served + c.replayed + c.shed,
            "headline conservation law"
        );
        assert!(
            snap.invariant_violations().is_empty(),
            "{:?}",
            snap.invariant_violations()
        );
    }
}
