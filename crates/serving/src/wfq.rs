//! Start-time fair queuing across tenant classes.
//!
//! Classic SFQ (Goyal et al.): each tenant keeps a FIFO of queued items;
//! only the *head* of a tenant's FIFO carries a virtual finish tag
//! `max(virtual_time, tenant_finish) + 1/weight` — frozen at the moment
//! the item becomes head — and the queue pops the head with the smallest
//! tag. Under backlog a weight-2 tenant therefore dequeues twice as often
//! as a weight-1 tenant; an idle tenant's tag catches up to virtual time,
//! so it is never punished for having been idle.
//!
//! Only popped entries advance a tenant's virtual service. This matters
//! under load shedding: if evicted entries consumed service (as they
//! would if every entry were tagged at push time), a tenant whose queued
//! items went stale and were shed would have its tags inflated by work it
//! never received — falling further behind, going staler, being shed
//! more: a starvation spiral. Here eviction simply removes the item; the
//! tenant's finish tag only ever advances on a real pop.
//!
//! Tags are fixed-point `u64` (units of `TAG_SCALE``/weight` per item)
//! so ordering is exact and deterministic. Ties break on a monotonically
//! increasing sequence number (FIFO within and across tenants).

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Fixed-point scale for virtual-time tags: one unit of service costs
/// `TAG_SCALE / weight` tag units.
pub(crate) const TAG_SCALE: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    /// Tie-breaker: global arrival order.
    seq: u64,
}

#[derive(Debug)]
struct TenantQueue<T> {
    weight: u32,
    /// Finish tag of this tenant's last *popped* entry.
    finish: u64,
    /// Virtual finish tag of the current head, frozen when it became
    /// head; `None` when the tenant's FIFO is empty.
    head_tag: Option<u64>,
    items: VecDeque<Entry<T>>,
}

impl<T> TenantQueue<T> {
    /// (Re)freezes the head tag after the head changed. `vtime` is the
    /// queue-wide virtual time at the moment of the change.
    fn retag_head(&mut self, vtime: u64) {
        self.head_tag = if self.items.is_empty() {
            None
        } else {
            Some(vtime.max(self.finish) + TAG_SCALE / self.weight as u64)
        };
    }
}

/// A weighted fair queue over tenant classes.
///
/// `T` is the queued payload. Weights are registered up front via
/// [`WeightedFairQueue::new`]; pushes for unregistered tenants fall back
/// to weight 1.
#[derive(Debug)]
pub struct WeightedFairQueue<T> {
    tenants: BTreeMap<u32, TenantQueue<T>>,
    /// Virtual time = finish tag of the last popped entry.
    vtime: u64,
    seq: u64,
    len: usize,
}

impl<T> WeightedFairQueue<T> {
    /// Creates a queue with the given `(tenant_id, weight)` classes.
    /// Zero weights are clamped to 1.
    pub fn new(weights: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let tenants = weights
            .into_iter()
            .map(|(id, w)| {
                (
                    id,
                    TenantQueue {
                        weight: w.max(1),
                        finish: 0,
                        head_tag: None,
                        items: VecDeque::new(),
                    },
                )
            })
            .collect();
        Self {
            tenants,
            vtime: 0,
            seq: 0,
            len: 0,
        }
    }

    /// Number of queued entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of every tenant class: `(id, weight, backlog)` in
    /// ascending id order. This is the hook layers above the queue (e.g.
    /// cluster-wide quota buckets) use to derive per-tenant shares
    /// without duplicating tenant state.
    #[cfg(test)]
    pub(crate) fn tenants(&self) -> impl Iterator<Item = (u32, u32, usize)> + '_ {
        self.tenants
            .iter()
            .map(|(&id, tq)| (id, tq.weight, tq.items.len()))
    }

    /// Enqueues `item` for `tenant` (FIFO within the tenant).
    pub fn push(&mut self, tenant: u32, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let vtime = self.vtime;
        let tq = self.tenants.entry(tenant).or_insert_with(|| TenantQueue {
            weight: 1,
            finish: 0,
            head_tag: None,
            items: VecDeque::new(),
        });
        tq.items.push_back(Entry { item, seq });
        if tq.head_tag.is_none() {
            tq.retag_head(vtime);
        }
        self.len += 1;
    }

    /// Tenant id whose head [`WeightedFairQueue::pop`] would serve next.
    fn next_tenant(&self) -> Option<u32> {
        self.tenants
            .iter()
            .filter_map(|(&id, tq)| {
                let tag = tq.head_tag?;
                let head_seq = tq.items.front().map(|e| e.seq).unwrap_or(u64::MAX);
                Some((tag, head_seq, id))
            })
            .min()
            .map(|(_, _, id)| id)
    }

    /// Pops the head with the smallest frozen finish tag (FIFO on ties)
    /// and advances virtual time to that tag.
    pub fn pop(&mut self) -> Option<T> {
        let id = self.next_tenant()?;
        let tq = self.tenants.get_mut(&id).expect("tenant exists");
        let finish = tq.head_tag.expect("selected head is tagged");
        let entry = tq.items.pop_front().expect("tenant non-empty");
        tq.finish = finish;
        self.vtime = self.vtime.max(finish);
        let vtime = self.vtime;
        let tq = self.tenants.get_mut(&id).expect("tenant exists");
        tq.retag_head(vtime);
        self.len -= 1;
        Some(entry.item)
    }

    /// Removes the item at `idx` of tenant `id`'s FIFO without charging
    /// virtual service; re-freezes the head tag if the head was removed.
    fn evict_at(&mut self, id: u32, idx: usize) -> T {
        let vtime = self.vtime;
        let tq = self.tenants.get_mut(&id).expect("tenant exists");
        let entry = tq.items.remove(idx).expect("index in range");
        if idx == 0 {
            tq.retag_head(vtime);
        }
        self.len -= 1;
        entry.item
    }

    /// Removes and returns the oldest entry (smallest sequence number) —
    /// the drop-oldest shedding policy. The evicted entry consumes no
    /// virtual service.
    pub(crate) fn evict_oldest(&mut self) -> Option<T> {
        let id = *self
            .tenants
            .iter()
            .filter(|(_, tq)| !tq.items.is_empty())
            .min_by_key(|(_, tq)| tq.items.front().map(|e| e.seq).unwrap_or(u64::MAX))
            .map(|(id, _)| id)?;
        Some(self.evict_at(id, 0))
    }

    /// Removes and returns the entry maximising `key` (ties broken toward
    /// the newest entry) — used by deadline-aware shedding to evict the
    /// queued request with the latest deadline. The evicted entry consumes
    /// no virtual service.
    pub(crate) fn evict_max_by_key<K: Ord>(&mut self, mut key: impl FnMut(&T) -> K) -> Option<T> {
        let mut best: Option<(u32, usize, K, u64)> = None;
        for (&id, tq) in &self.tenants {
            for (idx, e) in tq.items.iter().enumerate() {
                let k = key(&e.item);
                let better = match &best {
                    None => true,
                    Some((_, _, bk, bseq)) => match k.cmp(bk) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => e.seq > *bseq,
                        std::cmp::Ordering::Less => false,
                    },
                };
                if better {
                    best = Some((id, idx, k, e.seq));
                }
            }
        }
        let (id, idx, _, _) = best?;
        Some(self.evict_at(id, idx))
    }

    /// Iterates over queued items in arbitrary order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.tenants
            .values()
            .flat_map(|tq| tq.items.iter().map(|e| &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_single_tenant() {
        let mut q = WeightedFairQueue::new([(0, 1)]);
        for i in 0..5 {
            q.push(0, i);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn weighted_share_under_backlog() {
        // Tenant 0 weight 2, tenant 1 weight 1, both fully backlogged:
        // across any window, tenant 0 should be served ~2x as often.
        let mut q = WeightedFairQueue::new([(0, 2), (1, 1)]);
        for i in 0..30 {
            q.push(0, (0u32, i));
            q.push(1, (1u32, i));
        }
        let mut first12 = [0usize; 2];
        for _ in 0..12 {
            let (t, _) = q.pop().unwrap();
            first12[t as usize] += 1;
        }
        assert_eq!(first12[0], 8, "weight-2 tenant gets 2/3 of service");
        assert_eq!(first12[1], 4);
    }

    #[test]
    fn idle_tenant_not_starved_or_boosted() {
        let mut q = WeightedFairQueue::new([(0, 1), (1, 1)]);
        // Tenant 0 burns through service while tenant 1 is idle.
        for i in 0..10 {
            q.push(0, (0u32, i));
        }
        for _ in 0..10 {
            q.pop().unwrap();
        }
        // Tenant 1 wakes up: it must not get an unbounded credit burst,
        // and it must not wait behind tenant 0's new arrivals forever.
        for i in 0..4 {
            q.push(1, (1u32, i));
            q.push(0, (0u32, 100 + i));
        }
        let mut counts = [0usize; 2];
        for _ in 0..8 {
            let (t, _) = q.pop().unwrap();
            counts[t as usize] += 1;
        }
        assert_eq!(counts, [4, 4], "equal weights alternate after idle");
    }

    #[test]
    fn eviction_primitives() {
        let mut q = WeightedFairQueue::new([(0, 1)]);
        for i in 0..4 {
            q.push(0, i);
        }
        assert_eq!(q.evict_oldest(), Some(0));
        assert_eq!(q.evict_max_by_key(|v| *v), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn unknown_tenant_defaults_to_weight_one() {
        let mut q = WeightedFairQueue::new([(0, 1)]);
        q.push(7, "x");
        assert_eq!(q.tenants().find(|t| t.0 == 7), Some((7, 1, 1)));
        assert_eq!(q.pop(), Some("x"));
    }

    #[test]
    fn tenant_accessors_expose_weight_and_backlog() {
        let mut q = WeightedFairQueue::new([(0, 3), (1, 1)]);
        let view: Vec<(u32, u32, usize)> = q.tenants().collect();
        assert_eq!(view, vec![(0, 3, 0), (1, 1, 0)], "registered, empty");
        q.push(0, "a");
        q.push(0, "b");
        q.push(1, "c");
        q.push(7, "d"); // unregistered → fallback weight 1
        let view: Vec<(u32, u32, usize)> = q.tenants().collect();
        assert_eq!(view, vec![(0, 3, 2), (1, 1, 1), (7, 1, 1)]);
        // The view is read-only: service order and tags are unchanged.
        assert_eq!(q.len(), 4);
        q.pop().unwrap();
        let backlog: usize = q.tenants().map(|(_, _, b)| b).sum();
        assert_eq!(backlog, 3);
    }

    #[test]
    fn eviction_does_not_charge_virtual_service() {
        // Tenant 0's queued items keep getting evicted (as stale work
        // would be under shedding); tenant 1 is served normally. When
        // tenant 0's surviving item competes, it must win immediately —
        // evictions must not have inflated its virtual-time tags into a
        // starvation spiral.
        let mut q = WeightedFairQueue::new([(0, 1), (1, 1)]);
        for i in 0..8 {
            q.push(0, (0u32, i));
        }
        for _ in 0..7 {
            q.evict_oldest().unwrap();
        }
        for i in 0..8 {
            q.push(1, (1u32, i));
        }
        // One tenant-0 item and eight tenant-1 items remain; tenant 0 has
        // received no service, so its head must be among the first two
        // served, not behind tenant 1's whole backlog.
        let first_two: Vec<u32> = (0..2).map(|_| q.pop().unwrap().0).collect();
        assert!(
            first_two.contains(&0),
            "evictions starved tenant 0: {first_two:?}"
        );
    }
}
