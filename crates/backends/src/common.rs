//! Shared machinery for the worker-pool baselines: decode into a window
//! and the backend scaffold (pool + slot router + stop flag).

use dlb_codec::jpeg::decoder::DecodeStats;
use dlb_codec::{ColorSpace, DecodeScratch, JpegDecoder};
use dlb_membridge::{BatchUnit, MemManager, PoolConfig};
use dlbooster_core::{BackendError, HostBatch, SlotRouter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Decodes `jpeg` to `dims` RGB straight into `window` (one item's slot of a
/// batch unit, or a staging buffer of that size) with the worker's scratch.
/// A missing or undecodable source leaves the whole window zero-filled and
/// returns `None`, so a failed item never shows pixels of whatever the
/// memory held before.
pub(crate) fn decode_rgb_into(
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

/// The shared skeleton of a worker-pool backend.
pub(crate) struct PoolScaffold {
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
    pub(crate) fn new(
        n_slots: usize,
        unit_size: usize,
        pool_units: usize,
        max_batches: Option<u64>,
    ) -> Result<Self, String> {
        Self::with_slot_depth(n_slots, 8, unit_size, pool_units, max_batches)
    }

    /// Like [`PoolScaffold::new`] with an explicit per-slot queue depth —
    /// the knob a compiled pipeline graph sets from its sink stage.
    pub(crate) fn with_slot_depth(
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
            router: Arc::new(SlotRouter::new(
                pool.clone(),
                n_slots,
                slot_depth,
                max_batches,
                Arc::default(),
            )),
            pool,
            stop: Arc::new(AtomicBool::new(false)),
            cpu_busy_nanos: Arc::new(AtomicU64::new(0)),
        })
    }

    /// `PreprocessBackend::next_batch`: blocks on engine `slot`'s queue.
    pub(crate) fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        self.router
            .queue(slot)
            .pop()
            .map_err(|_| BackendError::Exhausted)
    }

    /// `PreprocessBackend::recycle`: returns a consumed unit to the pool.
    pub(crate) fn recycle(&self, unit: BatchUnit) {
        let _ = self.pool.recycle_item(unit);
    }

    /// `PreprocessBackend::max_batch_bytes`: one pool unit.
    pub(crate) fn max_batch_bytes(&self) -> usize {
        self.pool.unit_size()
    }

    /// `PreprocessBackend::cpu_busy_nanos`: accumulated worker busy time.
    pub(crate) fn cpu_busy_nanos(&self) -> u64 {
        self.cpu_busy_nanos.load(Ordering::Relaxed)
    }

    /// `PreprocessBackend::shutdown`: raises the stop flag and closes the
    /// queues and the pool so blocked workers and consumers wake.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.router.close();
        self.pool.close();
    }

    /// The backends' join-on-drop: stops the workers, returns the residue
    /// nobody will pop to the pool, closes the pool (releasing a worker
    /// parked on a lease), then joins every worker.
    pub(crate) fn join(&self, workers: &mut Vec<JoinHandle<()>>) {
        self.stop.store(true, Ordering::SeqCst);
        self.router.retire();
        self.pool.close();
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}
