//! A functional mini-cluster over real [`DlBooster`] pipelines.
//!
//! Where `ClusterSim` (in `dlb-workflows`) explores cluster behaviour at
//! scale in virtual time, [`BoosterCluster`] proves the failover story on
//! the *real* machinery: N live `DlBooster` nodes behind a
//! [`HashRing`], each with a delivery budget. Killing a node reuses the
//! exact quiesce/recycle contract `FailoverBackend` established —
//! [`DlBooster::quiesce`] closes the slot queues and finalises `delivered()`,
//! residue already routed to slot queues stays poppable, and the
//! shortfall (`budget − delivered`) is re-provisioned on a replacement
//! node built by the caller from the undelivered tail of the dead
//! node's shard. Batch accounting is exact: every budgeted batch is
//! consumed exactly once, by the original node, its residue drain, or
//! the replacement.

use crate::ring::HashRing;
use dlb_cache::SampleKey;
use dlbooster_core::{BackendError, DlBooster, PreprocessBackend};
use std::time::Duration;

/// One shard: a live booster plus its delivery budget and consumption
/// ledger.
struct Shard {
    booster: DlBooster,
    /// Batches this node is expected to deliver over its lifetime.
    budget: u64,
    /// Batches the cluster consumer has popped from this node (including
    /// its post-kill residue drain).
    consumed: u64,
    alive: bool,
}

/// What a [`BoosterCluster::kill`] did, for exact-accounting assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillOutcome {
    /// The killed node's final `delivered()` — batches that ever left it.
    pub delivered: u64,
    /// Batches drained out of the dead node's slot queues after quiesce.
    pub residue: u64,
    /// `budget − delivered`: batches the replacement must re-produce.
    pub shortfall: u64,
    /// Id of the replacement node, if the caller provisioned one.
    pub replacement: Option<u32>,
}

/// N live `DlBooster` nodes behind a consistent-hash ring.
pub struct BoosterCluster {
    shards: Vec<Shard>,
    ring: HashRing,
    pop_timeout: Duration,
}

impl BoosterCluster {
    /// Wraps `nodes` (each a started booster plus its delivery budget)
    /// behind a ring seeded with `seed` and `vnodes` points per node.
    pub fn new(seed: u64, vnodes: u32, nodes: Vec<(DlBooster, u64)>) -> Self {
        let ring = HashRing::with_nodes(seed, vnodes, 0..nodes.len() as u32);
        let shards = nodes
            .into_iter()
            .map(|(booster, budget)| Shard {
                booster,
                budget,
                consumed: 0,
                alive: true,
            })
            .collect();
        Self {
            shards,
            ring,
            pop_timeout: Duration::from_secs(10),
        }
    }

    /// Live nodes remaining.
    pub fn alive(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// The node a cache key routes to (live membership only).
    pub fn route_sample(&self, key: &SampleKey) -> Option<u32> {
        self.ring.route_sample(key)
    }

    /// Batches consumed from node `id` so far.
    pub fn consumed(&self, id: u32) -> u64 {
        self.shards[id as usize].consumed
    }

    /// Batches consumed across every node.
    pub fn total_consumed(&self) -> u64 {
        self.shards.iter().map(|s| s.consumed).sum()
    }

    /// Pops one batch from node `id`'s slot 0, recycles its unit, and
    /// counts it consumed. `Ok(false)` means the node's queue closed for
    /// good (budget exhausted).
    pub fn consume_one(&mut self, id: u32) -> Result<bool, String> {
        let shard = &mut self.shards[id as usize];
        match shard.booster.next_batch_timeout(0, self.pop_timeout) {
            Ok(Some(batch)) => {
                shard.booster.recycle(batch.unit);
                shard.consumed += 1;
                Ok(true)
            }
            Ok(None) => Err(format!("node {id} wedged: pop timed out")),
            Err(BackendError::Exhausted) => Ok(false),
            Err(e) => Err(format!("node {id} failed: {e:?}")),
        }
    }

    /// Chaos-kills node `id`: quiesces it (slot queues closed,
    /// `delivered()` final), drains the residue its slot queues still hold, removes it
    /// from the ring, and — when `replacement` returns a booster sized
    /// for the shortfall — splices the replacement in as a new node.
    ///
    /// `replacement` receives the dead node's final delivered count; the
    /// caller builds a booster over the *undelivered tail* of the dead
    /// node's shard (records from `delivered × batch_size` onward) so the
    /// cluster re-produces exactly the missing batches, no more, no less.
    pub fn kill(
        &mut self,
        id: u32,
        replacement: impl FnOnce(u64) -> Option<(DlBooster, u64)>,
    ) -> Result<KillOutcome, String> {
        let shard = &mut self.shards[id as usize];
        if !shard.alive {
            return Err(format!("node {id} already dead"));
        }
        shard.alive = false;
        shard.booster.quiesce();
        let delivered = shard.booster.delivered();
        // Residue: batches the node delivered before the kill that the
        // consumer never popped. quiesce closes the slot queues but they
        // drain to empty first.
        let mut residue = 0;
        while let Ok(Some(batch)) = shard
            .booster
            .next_batch_timeout(0, Duration::from_millis(50))
        {
            shard.booster.recycle(batch.unit);
            shard.consumed += 1;
            residue += 1;
        }
        self.ring.remove(id);
        let shortfall = shard.budget.saturating_sub(delivered);
        let replacement_id = replacement(delivered).map(|(booster, budget)| {
            let new_id = self.shards.len() as u32;
            self.shards.push(Shard {
                booster,
                budget,
                consumed: 0,
                alive: true,
            });
            self.ring.add(new_id);
            new_id
        });
        Ok(KillOutcome {
            delivered,
            residue,
            shortfall,
            replacement: replacement_id,
        })
    }

    /// Drains every live node to exhaustion, consuming (and recycling)
    /// each batch. Returns batches consumed by this call.
    pub fn drain_live(&mut self) -> Result<u64, String> {
        let ids: Vec<u32> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i as u32)
            .collect();
        let mut n = 0;
        for id in ids {
            while self.consume_one(id)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Quiesces every live node (clean shutdown).
    pub fn shutdown(&mut self) {
        for s in &mut self.shards {
            if s.alive {
                s.booster.quiesce();
                s.alive = false;
            }
        }
    }
}
