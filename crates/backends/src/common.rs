//! Shared machinery for the worker-pool baselines: round-robin slot
//! delivery and the backend scaffold (pool + queues + stop flag).

use dlb_codec::jpeg::decoder::DecodeStats;
use dlb_codec::{ColorSpace, DecodeScratch, JpegDecoder};
use dlb_membridge::{BatchUnit, BlockingQueue, MemManager, PoolConfig};
use dlbooster_core::{BackendError, HostBatch};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Decodes `jpeg` to `dims` RGB straight into `window` (one item's slot of a
/// batch unit, or a staging buffer of that size) with the worker's scratch.
/// A missing or undecodable source leaves the whole window zero-filled and
/// returns `None`, so a failed item never shows pixels of whatever the
/// memory held before.
pub fn decode_rgb_into(
    decoder: &JpegDecoder,
    scratch: &mut DecodeScratch,
    jpeg: Option<&[u8]>,
    dims: (u32, u32),
    window: &mut [u8],
) -> Option<DecodeStats> {
    let stats = jpeg.and_then(|bytes| {
        decoder
            .decode_into(bytes, scratch, Some(dims), ColorSpace::Rgb, window)
            .ok()
            .map(|decoded| decoded.stats)
    });
    if stats.is_none() {
        window.fill(0);
    }
    stats
}

/// Round-robin delivery of finished batches to per-engine slot queues,
/// with globally ordered sequence numbers.
pub struct SlotRouter {
    queues: Vec<BlockingQueue<HostBatch>>,
    /// Serialises sequence assignment + push so slot `seq % n` always holds.
    order: Mutex<u64>,
    delivered: AtomicU64,
    /// Production tickets handed out via [`SlotRouter::claim`].
    claimed: AtomicU64,
    max_batches: Option<u64>,
}

impl SlotRouter {
    /// `n_slots` bounded queues; delivery stops (queues close) after
    /// `max_batches` total batches when set.
    pub fn new(n_slots: usize, depth: usize, max_batches: Option<u64>) -> Self {
        assert!(n_slots >= 1);
        Self {
            queues: (0..n_slots)
                .map(|_| BlockingQueue::bounded(depth))
                .collect(),
            order: Mutex::new(0),
            delivered: AtomicU64::new(0),
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

    /// Delivers one finished unit. Returns `false` once the router is done
    /// (max reached or queues closed) — producers should then stop.
    pub fn deliver(&self, unit: BatchUnit, arrivals: Vec<u64>) -> bool {
        self.deliver_traced(unit, arrivals, 0)
    }

    /// Like [`SlotRouter::deliver`] but stamping the batch with a trace
    /// ordinal (`0` = untraced) so span records survive the hand-off.
    pub fn deliver_traced(&self, mut unit: BatchUnit, arrivals: Vec<u64>, trace: u64) -> bool {
        let mut order = self.order.lock();
        if let Some(max) = self.max_batches {
            if *order >= max {
                return false;
            }
        }
        let seq = *order;
        *order += 1;
        let slot = (seq % self.queues.len() as u64) as usize;
        unit.seal(seq);
        let batch = HostBatch {
            unit,
            sequence: seq,
            ready_at: Instant::now(),
            arrivals,
            trace,
        };
        let ok = self.queues[slot].push(batch).is_ok();
        if ok {
            self.delivered.fetch_add(1, Ordering::Relaxed);
            if self.max_batches == Some(*order) {
                drop(order);
                self.close();
            }
        }
        ok
    }

    /// Queue for engine `slot`.
    pub fn queue(&self, slot: usize) -> &BlockingQueue<HostBatch> {
        &self.queues[slot]
    }

    /// Closes all queues.
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }

    /// Batches delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }
}

/// The shared skeleton of a worker-pool backend.
pub struct PoolScaffold {
    /// Batch-buffer pool.
    pub pool: MemManager,
    /// Slot delivery.
    pub router: Arc<SlotRouter>,
    /// Worker stop flag.
    pub stop: Arc<AtomicBool>,
    /// Accumulated worker CPU busy nanos.
    pub cpu_busy_nanos: Arc<AtomicU64>,
}

impl PoolScaffold {
    /// Builds the scaffold with `pool_units` buffers of `unit_size` bytes
    /// and the default slot-queue depth of 8.
    pub fn new(
        n_slots: usize,
        unit_size: usize,
        pool_units: usize,
        max_batches: Option<u64>,
    ) -> Result<Self, String> {
        Self::with_slot_depth(n_slots, 8, unit_size, pool_units, max_batches)
    }

    /// Like [`PoolScaffold::new`] with an explicit per-slot queue depth —
    /// the knob a compiled pipeline graph sets from its sink stage.
    pub fn with_slot_depth(
        n_slots: usize,
        slot_depth: usize,
        unit_size: usize,
        pool_units: usize,
        max_batches: Option<u64>,
    ) -> Result<Self, String> {
        if slot_depth == 0 {
            return Err("slot queue depth must be >= 1".into());
        }
        let pool = MemManager::new(PoolConfig {
            unit_size,
            unit_count: pool_units,
            phys_base: 0x6_0000_0000,
        })
        .map_err(|e| e.to_string())?;
        Ok(Self {
            pool,
            router: Arc::new(SlotRouter::new(n_slots, slot_depth, max_batches)),
            stop: Arc::new(AtomicBool::new(false)),
            cpu_busy_nanos: Arc::new(AtomicU64::new(0)),
        })
    }

    /// `PreprocessBackend::next_batch`: blocks on engine `slot`'s queue.
    pub fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        self.router
            .queue(slot)
            .pop()
            .map_err(|_| BackendError::Exhausted)
    }

    /// `PreprocessBackend::recycle`: returns a consumed unit to the pool.
    pub fn recycle(&self, unit: BatchUnit) {
        let _ = self.pool.recycle_item(unit);
    }

    /// `PreprocessBackend::max_batch_bytes`: one pool unit.
    pub fn max_batch_bytes(&self) -> usize {
        self.pool.unit_size()
    }

    /// `PreprocessBackend::cpu_busy_nanos`: accumulated worker busy time.
    pub fn cpu_busy_nanos(&self) -> u64 {
        self.cpu_busy_nanos.load(Ordering::Relaxed)
    }

    /// `PreprocessBackend::shutdown`: raises the stop flag and closes the
    /// queues and the pool so blocked workers and consumers wake.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.router.close();
        self.pool.close();
    }

    /// The backends' join-on-drop: shuts down, then joins every worker.
    pub fn join(&self, workers: &mut Vec<JoinHandle<()>>) {
        self.shutdown();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(pool: &MemManager) -> BatchUnit {
        let mut u = pool.get_item().unwrap();
        u.append(&[1, 2, 3], 0, 1, 1, 3).unwrap();
        u
    }

    #[test]
    fn router_round_robins_and_caps() {
        let s = PoolScaffold::new(2, 1024, 8, Some(5)).unwrap();
        for _ in 0..5 {
            assert!(s.router.deliver(unit(&s.pool), vec![]));
        }
        // Sixth delivery refused.
        let u = unit(&s.pool);
        assert!(!s.router.deliver(u, vec![]));
        let mut seq0 = Vec::new();
        while let Ok(b) = s.router.queue(0).pop() {
            seq0.push(b.sequence);
            s.pool.recycle_item(b.unit).unwrap();
        }
        let mut seq1 = Vec::new();
        while let Ok(b) = s.router.queue(1).pop() {
            seq1.push(b.sequence);
            s.pool.recycle_item(b.unit).unwrap();
        }
        assert_eq!(seq0, vec![0, 2, 4]);
        assert_eq!(seq1, vec![1, 3]);
        assert_eq!(s.router.delivered(), 5);
    }

    #[test]
    fn close_stops_delivery() {
        let s = PoolScaffold::new(1, 1024, 2, None).unwrap();
        s.router.close();
        assert!(!s.router.deliver(unit(&s.pool), vec![]));
        assert!(s.router.queue(0).pop().is_err());
    }
}
