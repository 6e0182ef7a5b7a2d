//! `dlb-cluster` — a sharded preprocessing cluster over `DlBooster`
//! nodes.
//!
//! One `DlBooster` pipeline serves one machine; this crate is the
//! scale-out layer the ROADMAP's "millions of users" north star calls
//! for. Four pieces compose it:
//!
//! * [`HashRing`] — a consistent-hash ring with virtual nodes and
//!   deterministic splitmix64 placement. Keys (tenant object ids, cache
//!   [`SampleKey`]s) map to shards as a pure function of
//!   `(seed, membership)`, so decoded-sample cache locality survives
//!   routing and membership changes move only ~1/N of the keyspace.
//! * [`TenantQuotas`] — cluster-wide per-tenant token buckets layered
//!   above each node's `WeightedFairQueue`, rebalanced when membership
//!   changes so admission shrinks with lost capacity.
//! * [`LatencyBudget`] + [`DedupLedger`] — deadline-budget hedging: a
//!   request stuck past its shard's p99-derived budget is hedged to the
//!   next ring replica, first completion wins, and every duplicate is
//!   accounted exactly (`requests + hedge_dups = served + replayed +
//!   shed` at quiescence).
//! * [`BoosterCluster`] — node failover on the real machinery:
//!   chaos-killing a node reuses [`DlBooster::quiesce`]'s
//!   drain/recycle contract, the ring redistributes its range, and the
//!   shortfall replays on a caller-provisioned successor with exact
//!   no-loss/no-dup batch accounting.
//!
//! The discrete-event cluster simulation (`ClusterSim`) that drives
//! 8–32 node overload sweeps with mid-run kills lives in
//! `dlb-workflows`; the `cluster.*` counter family it emits is defined
//! here in [`ClusterInstruments`] and checked by
//! `PipelineSnapshot::invariant_violations`.
//!
//! [`SampleKey`]: dlb_cache::SampleKey
//! [`DlBooster::quiesce`]: dlbooster_core::DlBooster::quiesce

pub mod booster;
pub mod hedge;
pub mod instruments;
pub mod quota;
pub mod ring;

pub use booster::BoosterCluster;
pub use hedge::{
    CompletionOutcome, CopyKind, DedupLedger, HedgeConfig, LatencyBudget, LossOutcome,
};
pub use instruments::ClusterInstruments;
pub use quota::TenantQuotas;
pub use ring::{splitmix64, HashRing};
