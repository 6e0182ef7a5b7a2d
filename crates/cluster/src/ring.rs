//! Consistent-hash ring with virtual nodes.
//!
//! Each physical node owns `vnodes` points on a 64-bit ring; a key routes
//! to the node owning the first point at or clockwise after the key's
//! hash. Point placement is a pure function of `(seed, node_id)` — no
//! insertion-order state, no RNG draws — so any two rings built over the
//! same membership agree on every key, and adding or removing a node
//! moves only the key ranges adjacent to that node's points (~1/N of the
//! keyspace for N equal nodes).
//!
//! Hashing is splitmix64, the same mixer the inference workload uses for
//! object-id scrambling: keys for the same tenant object land on the same
//! shard run after run, so the decoded-sample cache locality from the
//! cache crate survives cluster routing.

use dlb_cache::SampleKey;
use std::collections::BTreeSet;

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping 64-bit keys to `u32` node ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    vnodes: u32,
    /// Ring points sorted by position; ties (astronomically unlikely)
    /// break on node id so iteration order stays total.
    points: Vec<(u64, u32)>,
    nodes: BTreeSet<u32>,
}

impl HashRing {
    /// An empty ring. `vnodes` is the number of points each node owns
    /// (clamped to ≥ 1); more points mean smoother load spread at the
    /// cost of a larger routing table.
    pub(crate) fn new(seed: u64, vnodes: u32) -> Self {
        Self {
            seed,
            vnodes: vnodes.max(1),
            points: Vec::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// A ring pre-populated with `nodes`.
    pub fn with_nodes(seed: u64, vnodes: u32, nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut ring = Self::new(seed, vnodes);
        for n in nodes {
            ring.add(n);
        }
        ring
    }

    /// The position of `node`'s `replica`-th point: a pure function of
    /// `(seed, node, replica)`, independent of membership.
    fn point(&self, node: u32, replica: u32) -> u64 {
        splitmix64(self.seed ^ splitmix64((u64::from(node) << 32) | u64::from(replica)))
    }

    /// Adds `node`; returns false if it was already present.
    pub fn add(&mut self, node: u32) -> bool {
        if !self.nodes.insert(node) {
            return false;
        }
        for replica in 0..self.vnodes {
            let pt = (self.point(node, replica), node);
            let idx = self.points.partition_point(|p| *p < pt);
            self.points.insert(idx, pt);
        }
        true
    }

    /// Removes `node`; returns false if it was not a member.
    pub fn remove(&mut self, node: u32) -> bool {
        if !self.nodes.remove(&node) {
            return false;
        }
        self.points.retain(|&(_, n)| n != node);
        true
    }

    /// True when no nodes are members.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node owning `key`: the first ring point at or clockwise after
    /// `splitmix64(key)`, wrapping at the top. `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<u32> {
        self.successors(key).next()
    }

    /// Distinct nodes in ring order starting at `key`'s owner — the
    /// owner first, then each successive replica candidate. Yields every
    /// member exactly once.
    pub fn successors(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let start = if self.points.is_empty() {
            0
        } else {
            let h = splitmix64(key);
            let idx = self.points.partition_point(|&(pos, _)| pos < h);
            idx % self.points.len()
        };
        let mut seen = BTreeSet::new();
        let n = self.points.len();
        (0..n).filter_map(move |off| {
            let (_, node) = self.points[(start + off) % n];
            seen.insert(node).then_some(node)
        })
    }

    /// Stable 64-bit routing key for a cache [`SampleKey`]: disk records
    /// hash by byte extent, tenant objects by `(tenant, id)` — the same
    /// identity the decoded-sample cache indexes on, so routing and cache
    /// locality agree.
    pub(crate) fn sample_key(key: &SampleKey) -> u64 {
        match *key {
            SampleKey::Disk { offset, len } => splitmix64(offset ^ (u64::from(len) << 40)),
            SampleKey::Object { tenant, id } => Self::object_key(tenant, id),
        }
    }

    /// Stable 64-bit routing key for a tenant object id.
    pub fn object_key(tenant: u32, id: u64) -> u64 {
        splitmix64(splitmix64(u64::from(tenant)) ^ id)
    }

    /// Routes a cache [`SampleKey`] (see [`HashRing::sample_key`]).
    pub(crate) fn route_sample(&self, key: &SampleKey) -> Option<u32> {
        self.route(Self::sample_key(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(7, 16);
        assert!(ring.is_empty());
        assert_eq!(ring.route(42), None);
        assert_eq!(ring.successors(42).count(), 0);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::with_nodes(7, 16, [3]);
        for k in 0..100 {
            assert_eq!(ring.route(k), Some(3));
        }
    }

    #[test]
    fn successors_yield_each_node_once() {
        let ring = HashRing::with_nodes(7, 16, 0..8);
        for k in [0u64, 1, 99, u64::MAX] {
            let order: Vec<u32> = ring.successors(k).collect();
            assert_eq!(order.len(), 8, "every member appears");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "no duplicates in {order:?}");
            assert_eq!(ring.route(k), Some(order[0]));
        }
    }

    #[test]
    fn placement_is_membership_pure() {
        // Build the same membership along two different paths; every key
        // must route identically.
        let a = HashRing::with_nodes(11, 32, [0, 1, 2, 3]);
        let mut b = HashRing::with_nodes(11, 32, [3, 1]);
        b.add(0);
        b.add(4);
        b.remove(4);
        b.add(2);
        for k in 0..2000u64 {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn removal_only_moves_the_dead_nodes_keys() {
        let mut ring = HashRing::with_nodes(5, 64, 0..8);
        let before: Vec<Option<u32>> = (0..4000u64).map(|k| ring.route(k)).collect();
        ring.remove(3);
        for (k, prev) in before.iter().enumerate() {
            let now = ring.route(k as u64);
            if *prev != Some(3) {
                assert_eq!(now, *prev, "key {k} moved although its owner survived");
            } else {
                assert_ne!(now, Some(3));
            }
        }
    }

    #[test]
    fn load_spreads_across_nodes() {
        let ring = HashRing::with_nodes(9, 64, 0..8);
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            counts[ring.route(k).unwrap() as usize] += 1;
        }
        for (n, &c) in counts.iter().enumerate() {
            assert!(
                (300..=2200).contains(&c),
                "node {n} owns {c}/8000 keys — vnode spread is broken: {counts:?}"
            );
        }
    }

    #[test]
    fn sample_keys_route_deterministically() {
        let ring = HashRing::with_nodes(1, 32, 0..4);
        let k = SampleKey::Object { tenant: 2, id: 77 };
        assert_eq!(ring.route_sample(&k), ring.route_sample(&k));
        assert_eq!(
            ring.route_sample(&k),
            ring.route(HashRing::object_key(2, 77))
        );
        let d = SampleKey::Disk {
            offset: 4096,
            len: 512,
        };
        assert_eq!(ring.route_sample(&d), ring.route_sample(&d));
    }

    #[test]
    fn add_remove_roundtrip_restores_routing() {
        let mut ring = HashRing::with_nodes(3, 32, 0..6);
        let before: Vec<Option<u32>> = (0..1000u64).map(|k| ring.route(k)).collect();
        assert!(ring.remove(2));
        assert!(!ring.remove(2), "double remove is a no-op");
        assert!(ring.add(2));
        assert!(!ring.add(2), "double add is a no-op");
        let after: Vec<Option<u32>> = (0..1000u64).map(|k| ring.route(k)).collect();
        assert_eq!(before, after);
    }
}
