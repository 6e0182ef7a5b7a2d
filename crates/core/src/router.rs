//! `SlotRouter` — round-robin delivery of finished batches to per-engine
//! slot queues, the last hop of every backend: the FPGA reader delivers
//! through it, and so does every worker of the CPU, LMDB and nvJPEG
//! baselines.

use crate::backend::HostBatch;
use dlb_membridge::{BatchUnit, BlockingQueue, MemManager};
use dlb_telemetry::Counter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Round-robin delivery of finished batches to per-engine slot queues,
/// with globally ordered sequence numbers.
///
/// A batch that cannot be delivered — its queue is closed, or the
/// `max_batches` budget is spent — comes back from the queue and its unit
/// goes back to the pool, so a shutdown never strands a lease.
pub struct SlotRouter {
    pool: MemManager,
    queues: Vec<BlockingQueue<HostBatch>>,
    /// Serialises sequence assignment + push so slot `seq % n` always holds.
    order: Mutex<u64>,
    delivered: Arc<Counter>,
    /// Production tickets handed out via [`SlotRouter::claim`].
    claimed: AtomicU64,
    max_batches: Option<u64>,
}

impl SlotRouter {
    /// `n_slots` queues of `depth` batches over units of `pool`, counting
    /// deliveries into `delivered`; delivery stops (queues close) after
    /// `max_batches` total batches when set.
    pub fn new(
        pool: MemManager,
        n_slots: usize,
        depth: usize,
        max_batches: Option<u64>,
        delivered: Arc<Counter>,
    ) -> Self {
        assert!(n_slots >= 1);
        Self {
            pool,
            queues: (0..n_slots)
                .map(|_| BlockingQueue::bounded(depth))
                .collect(),
            order: Mutex::new(0),
            delivered,
            claimed: AtomicU64::new(0),
            max_batches,
        }
    }

    /// Claims the right to produce one more batch; call *before* pulling
    /// input. Returns `false` once `max_batches` tickets are taken.
    ///
    /// Without the up-front ticket, a fast worker can wrap the collector
    /// into the next epoch and win the delivery race against a slower
    /// worker's current-epoch batch, making the delivered record window
    /// depend on scheduling.
    pub fn claim(&self) -> bool {
        match self.max_batches {
            None => true,
            Some(max) => self
                .claimed
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                    (c < max).then_some(c + 1)
                })
                .is_ok(),
        }
    }

    /// Delivers one finished unit, stamped with the trace ordinal `trace`
    /// (`0` = untraced) so span records survive the hand-off. Blocks while
    /// the slot's queue is full. Returns `false` — with the unit recycled —
    /// once the router is done (max reached or queues closed); producers
    /// should then stop.
    pub fn deliver(&self, mut unit: BatchUnit, arrivals: Vec<u64>, trace: u64) -> bool {
        let mut order = self.order.lock();
        let seq = *order;
        if self.max_batches.is_some_and(|max| seq >= max) {
            let _ = self.pool.recycle_item(unit);
            return false;
        }
        unit.seal(seq);
        let batch = HostBatch {
            unit,
            sequence: seq,
            ready_at: Instant::now(),
            arrivals,
            trace,
        };
        let slot = (seq % self.queues.len() as u64) as usize;
        if let Err(batch) = self.queues[slot].push_or_return(batch) {
            let _ = self.pool.recycle_item(batch.unit);
            return false;
        }
        *order += 1;
        self.delivered.inc();
        if self.max_batches == Some(*order) {
            drop(order);
            self.close();
        }
        true
    }

    /// Queue for engine `slot`.
    pub fn queue(&self, slot: usize) -> &BlockingQueue<HostBatch> {
        &self.queues[slot]
    }

    /// Closes every queue: later deliveries fail, batches already queued
    /// stay poppable. Returns once no delivery is still in progress, so
    /// [`SlotRouter::delivered`] is final.
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
        // A producer blocked pushing holds the ordering lock; the close
        // above woke it, and taking the lock waits until it has either
        // counted its batch or recycled it.
        drop(self.order.lock());
    }

    /// True once the queues are closed: nothing more will be delivered.
    pub(crate) fn is_closed(&self) -> bool {
        self.queues.iter().any(BlockingQueue::is_closed)
    }

    /// [`SlotRouter::close`], then recycles the batches still queued —
    /// for a backend being dropped, whose residue nobody will pop.
    pub fn retire(&self) {
        self.close();
        for q in &self.queues {
            for batch in q.drain() {
                let _ = self.pool.recycle_item(batch.unit);
            }
        }
    }

    /// Batches delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_membridge::PoolConfig;

    fn router(n_slots: usize, max: Option<u64>) -> SlotRouter {
        let pool = MemManager::new(PoolConfig {
            unit_size: 1024,
            unit_count: 8,
            phys_base: 0,
        })
        .unwrap();
        SlotRouter::new(pool, n_slots, 8, max, Arc::default())
    }

    fn unit(r: &SlotRouter) -> BatchUnit {
        let mut u = r.pool.get_item().unwrap();
        u.append(&[1, 2, 3], 0, 1, 1, 3).unwrap();
        u
    }

    fn drain_sequences(r: &SlotRouter, slot: usize) -> Vec<u64> {
        let mut seqs = Vec::new();
        while let Ok(b) = r.queue(slot).pop() {
            seqs.push(b.sequence);
            r.pool.recycle_item(b.unit).unwrap();
        }
        seqs
    }

    #[test]
    fn router_round_robins_and_caps() {
        let r = router(2, Some(5));
        for _ in 0..5 {
            assert!(r.deliver(unit(&r), vec![], 0));
        }
        // Sixth delivery refused, its unit recycled.
        assert!(!r.deliver(unit(&r), vec![], 0));
        assert_eq!(drain_sequences(&r, 0), vec![0, 2, 4]);
        assert_eq!(drain_sequences(&r, 1), vec![1, 3]);
        assert_eq!(r.delivered(), 5);
        let stats = r.pool.stats();
        assert_eq!(stats.lease_ops, stats.recycle_ops);
    }

    #[test]
    fn close_stops_delivery_and_returns_the_unit() {
        let r = router(1, None);
        r.close();
        assert!(!r.deliver(unit(&r), vec![], 0));
        assert!(r.queue(0).pop().is_err());
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.pool.stats().leased, 0, "the refused unit went home");
    }

    #[test]
    fn retire_recycles_the_residue() {
        let r = router(2, None);
        for _ in 0..3 {
            assert!(r.deliver(unit(&r), vec![], 0));
        }
        r.retire();
        assert_eq!(r.delivered(), 3);
        assert_eq!(r.pool.free_count(), r.pool.unit_count());
    }
}
