//! `Dispatcher` — Algorithm 3: round-robin delivery of host batches to
//! per-engine Trans Queues with asynchronous H2D copies.
//!
//! "the Dispatcher tries to obtain a batch of processed data … and
//! dispatches it to different GPU devices with round-robin scheduling …
//! asynchronously dispatches data on a specified stream. After submitting
//! all copying operations to GPU streams, the Dispatcher will be blocked to
//! synchronize these operations … and the occupied memory units will be
//! released and recycled." (§3.4.3)
//!
//! The dispatcher is backend-agnostic: it pulls from any
//! [`PreprocessBackend`], so NVCaffe-like and TensorRT-like engines get an
//! identical GPU-side path regardless of who decoded the pixels.

use crate::backend::{BackendError, HostBatch, PreprocessBackend};
use dlb_gpu::stream::{CompletedOp, GpuOp};
use dlb_gpu::{DeviceBuffer, StreamSet};
use dlb_membridge::{BlockingQueue, ItemDesc};
use dlb_telemetry::{names, Counter, Histogram, Telemetry};
use dlb_trace::{stages, SpanKind, Tracer};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A batch landed in device memory, ready for kernels.
#[derive(Debug)]
pub struct DeviceBatch {
    /// Device buffer holding the batch payload.
    pub dev: DeviceBuffer,
    /// Item layout within the buffer.
    pub items: Vec<ItemDesc>,
    /// Batch sequence number.
    pub sequence: u64,
    /// When the host batch became ready (latency accounting).
    pub ready_at: Instant,
    /// Per-item arrival nanos (inference latency accounting).
    pub arrivals: Vec<u64>,
}

/// The per-engine queue pair of §3.4.3: "each GPU engine communicates with
/// the global Dispatcher using a pair of Trans Queues".
#[derive(Debug)]
pub struct TransQueues {
    /// Engine → dispatcher: empty device buffers.
    pub free: BlockingQueue<DeviceBuffer>,
    /// Dispatcher → engine: filled device batches.
    pub full: BlockingQueue<DeviceBatch>,
}

impl TransQueues {
    fn new(depth: usize) -> Self {
        Self {
            free: BlockingQueue::bounded(depth),
            full: BlockingQueue::bounded(depth),
        }
    }
}

/// Dispatcher counters, registered in the pipeline telemetry registry.
#[derive(Debug)]
pub struct DispatcherStats {
    /// Batches dispatched.
    pub batches: Arc<Counter>,
    /// Bytes copied H2D.
    pub bytes_copied: Arc<Counter>,
    /// Copy errors (device buffer too small).
    pub copy_errors: Arc<Counter>,
    /// Host CPU busy nanos in the dispatch loop.
    pub cpu_busy_nanos: Arc<Counter>,
    /// Submit-to-synchronized latency of each H2D copy.
    pub copy_latency: Arc<Histogram>,
}

impl DispatcherStats {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            batches: telemetry.registry.counter(names::DISPATCHER_BATCHES),
            bytes_copied: telemetry.registry.counter(names::DISPATCHER_BYTES_COPIED),
            copy_errors: telemetry.registry.counter(names::DISPATCHER_COPY_ERRORS),
            cpu_busy_nanos: telemetry.registry.counter(names::DISPATCHER_CPU_BUSY_NANOS),
            copy_latency: telemetry.registry.histogram(names::DISPATCHER_COPY_LATENCY),
        }
    }
}

/// The running dispatcher daemon.
pub struct Dispatcher {
    handle: Option<JoinHandle<()>>,
    trans: Vec<Arc<TransQueues>>,
    stats: Arc<DispatcherStats>,
}

impl Dispatcher {
    /// Starts dispatching from `backend` to `n_engines` Trans Queue pairs,
    /// copying over `streams` (one per engine). `pcie_bytes_per_sec` prices
    /// the async copies; `time_scale` compresses modelled time exactly like
    /// the streams do.
    pub fn start(
        backend: Arc<dyn PreprocessBackend>,
        streams: Arc<StreamSet>,
        n_engines: usize,
        queue_depth: usize,
        pcie_bytes_per_sec: f64,
    ) -> Self {
        Self::start_with_telemetry(
            backend,
            streams,
            n_engines,
            queue_depth,
            pcie_bytes_per_sec,
            &Telemetry::with_defaults(),
        )
    }

    /// Like [`Dispatcher::start`], but recording `dispatcher.*` metrics into
    /// the shared pipeline `telemetry`.
    pub fn start_with_telemetry(
        backend: Arc<dyn PreprocessBackend>,
        streams: Arc<StreamSet>,
        n_engines: usize,
        queue_depth: usize,
        pcie_bytes_per_sec: f64,
        telemetry: &Telemetry,
    ) -> Self {
        assert!(n_engines >= 1 && streams.len() >= n_engines);
        assert!(pcie_bytes_per_sec > 0.0);
        let trans: Vec<Arc<TransQueues>> = (0..n_engines)
            .map(|slot| {
                let tq = Arc::new(TransQueues::new(queue_depth.max(1)));
                tq.full.instrument(telemetry, &format!("trans{slot}.full"));
                tq
            })
            .collect();
        let stats = Arc::new(DispatcherStats::register(telemetry));
        let t = trans.clone();
        let st = Arc::clone(&stats);
        let tc = telemetry.tracer_cell();
        let handle = std::thread::Builder::new()
            .name("dispatcher".into())
            .spawn(move || run_dispatcher(backend, streams, t, st, pcie_bytes_per_sec, tc))
            .expect("spawn dispatcher");
        Self {
            handle: Some(handle),
            trans,
            stats,
        }
    }

    /// The Trans Queues of engine `slot` (engines keep a clone).
    pub fn trans_queues(&self, slot: usize) -> Arc<TransQueues> {
        Arc::clone(&self.trans[slot])
    }

    /// Counters.
    pub fn stats(&self) -> &DispatcherStats {
        &self.stats
    }

    /// Waits for the dispatcher to finish (it exits when the backend is
    /// exhausted or stopped; the full queues are closed on exit).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct PendingMeta {
    sequence: u64,
    items: Vec<ItemDesc>,
    ready_at: Instant,
    arrivals: Vec<u64>,
    submitted_at: Instant,
    trace: u64,
}

impl PendingMeta {
    fn into_device_batch(self, dev: DeviceBuffer) -> DeviceBatch {
        DeviceBatch {
            dev,
            items: self.items,
            sequence: self.sequence,
            ready_at: self.ready_at,
            arrivals: self.arrivals,
        }
    }
}

fn run_dispatcher(
    backend: Arc<dyn PreprocessBackend>,
    streams: Arc<StreamSet>,
    trans: Vec<Arc<TransQueues>>,
    stats: Arc<DispatcherStats>,
    pcie_bytes_per_sec: f64,
    tracer_cell: Arc<OnceLock<Arc<Tracer>>>,
) {
    let n = trans.len();
    let mut pending: Vec<Option<PendingMeta>> = (0..n).map(|_| None).collect();
    'outer: loop {
        // Round-robin submission phase (Alg. 3 lines 1–11).
        let mut submitted_any = false;
        for slot in 0..n {
            let mut batch: HostBatch = match backend.next_batch(slot) {
                Ok(b) => b,
                Err(BackendError::Exhausted) | Err(BackendError::Stopped) => break 'outer,
                Err(BackendError::Failed { .. }) => break 'outer,
            };
            let t0 = Instant::now();
            let dev = match trans[slot].free.pop() {
                Ok(d) => d,
                Err(_) => {
                    backend.recycle(batch.unit);
                    break 'outer;
                }
            };
            let bytes = batch.unit.used();
            let duration = Duration::from_secs_f64(bytes as f64 / pcie_bytes_per_sec);
            // The metadata leaves the host batch here, once, and rides to
            // the device batch by move; the unit goes on to the copy engine
            // with its payload only.
            pending[slot] = Some(PendingMeta {
                sequence: batch.sequence,
                items: batch.unit.take_items(),
                ready_at: batch.ready_at,
                arrivals: batch.arrivals,
                submitted_at: t0,
                trace: batch.trace,
            });
            streams.stream(slot).enqueue(GpuOp::MemcpyH2D {
                host: batch.unit,
                dev,
                duration,
            });
            stats.bytes_copied.add(bytes as u64);
            stats.cpu_busy_nanos.add(t0.elapsed().as_nanos() as u64);
            submitted_any = true;
        }

        // Synchronisation + recycle phase (Alg. 3 lines 12–18).
        for slot in 0..n {
            let Some(meta) = pending[slot].take() else {
                continue;
            };
            let completed = streams.stream(slot).synchronize();
            stats
                .copy_latency
                .record_duration(meta.submitted_at.elapsed());
            if let Some(t) = tracer_cell.get() {
                if meta.trace != 0 {
                    t.span(
                        meta.trace,
                        stages::DISPATCH_H2D,
                        SpanKind::Service,
                        meta.submitted_at,
                        Instant::now(),
                    );
                }
            }
            let t0 = Instant::now();
            // One copy was enqueued for this slot, so the metadata has
            // exactly one taker.
            let mut meta = Some(meta);
            for op in completed {
                if let CompletedOp::MemcpyH2D { host, dev, error } = op {
                    backend.recycle(host);
                    if error.is_some() {
                        stats.copy_errors.inc();
                    }
                    let Some(meta) = meta.take().filter(|_| error.is_none()) else {
                        // Buffer goes back to the engine's free queue unused.
                        let _ = trans[slot].free.push(dev);
                        continue;
                    };
                    stats.batches.inc();
                    if trans[slot].full.push(meta.into_device_batch(dev)).is_err() {
                        break 'outer;
                    }
                }
            }
            stats.cpu_busy_nanos.add(t0.elapsed().as_nanos() as u64);
        }
        if !submitted_any {
            break;
        }
    }
    // Final drain: a round may have been interrupted mid-submission (odd
    // batch totals); synchronize every stream and recycle what remains so
    // no unit or buffer is stranded.
    for slot in 0..n {
        let mut meta = pending[slot].take();
        for op in streams.stream(slot).synchronize() {
            if let CompletedOp::MemcpyH2D { host, dev, error } = op {
                backend.recycle(host);
                match meta.take().filter(|_| error.is_none()) {
                    Some(m) => {
                        let _ = trans[slot].full.push(m.into_device_batch(dev));
                        stats.batches.inc();
                    }
                    None => {
                        let _ = trans[slot].free.push(dev);
                    }
                }
            }
        }
    }
    for t in &trans {
        t.full.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendError;
    use dlb_gpu::{GpuDevice, GpuSpec};
    use dlb_membridge::{BatchUnit, MemManager, PoolConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic in-memory backend producing `total` batches of
    /// `items_per_batch` tagged items.
    struct ScriptedBackend {
        pool: MemManager,
        produced: AtomicU64,
        total: u64,
        items_per_batch: usize,
        recycled: AtomicU64,
        lock: Mutex<()>,
    }

    impl ScriptedBackend {
        fn new(total: u64, items_per_batch: usize) -> Self {
            Self {
                pool: MemManager::new(PoolConfig {
                    unit_size: 4096,
                    unit_count: 8,
                    phys_base: 0,
                })
                .unwrap(),
                produced: AtomicU64::new(0),
                total,
                items_per_batch,
                recycled: AtomicU64::new(0),
                lock: Mutex::new(()),
            }
        }
    }

    impl PreprocessBackend for ScriptedBackend {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn next_batch(&self, _slot: usize) -> Result<HostBatch, BackendError> {
            let _g = self.lock.lock();
            let seq = self.produced.load(Ordering::SeqCst);
            if seq >= self.total {
                return Err(BackendError::Exhausted);
            }
            self.produced.fetch_add(1, Ordering::SeqCst);
            let mut unit = self.pool.get_item().map_err(|e| BackendError::Failed {
                detail: e.to_string(),
            })?;
            for i in 0..self.items_per_batch {
                let tag = (seq as u8).wrapping_add(i as u8);
                unit.append(&[tag; 16], seq * 100 + i as u64, 4, 4, 1)
                    .unwrap();
            }
            unit.seal(seq);
            Ok(HostBatch {
                unit,
                sequence: seq,
                ready_at: Instant::now(),
                arrivals: vec![seq * 10; self.items_per_batch],
                trace: 0,
            })
        }
        fn recycle(&self, unit: BatchUnit) {
            self.recycled.fetch_add(1, Ordering::SeqCst);
            self.pool.recycle_item(unit).unwrap();
        }
        fn max_batch_bytes(&self) -> usize {
            self.pool.unit_size()
        }
        fn cpu_busy_nanos(&self) -> u64 {
            0
        }
        fn shutdown(&self) {}
    }

    #[test]
    fn dispatches_round_robin_and_recycles() {
        let backend = Arc::new(ScriptedBackend::new(6, 2));
        let streams = Arc::new(StreamSet::new("disp", 2, 0.0));
        let gpus: Vec<GpuDevice> = (0..2)
            .map(|i| GpuDevice::new(GpuSpec::tesla_p100(), i))
            .collect();
        let dispatcher = Dispatcher::start(backend.clone(), streams, 2, 4, 12.0e9);
        let tq0 = dispatcher.trans_queues(0);
        let tq1 = dispatcher.trans_queues(1);
        // Engines supply device buffers.
        for (i, tq) in [&tq0, &tq1].iter().enumerate() {
            for _ in 0..3 {
                tq.free.push(gpus[i].alloc(4096).unwrap()).unwrap();
            }
        }
        // Collect per-slot sequences.
        let mut slot0 = Vec::new();
        while let Ok(db) = tq0.full.pop() {
            assert_eq!(db.items.len(), 2);
            // Payload actually copied to "device memory".
            assert_eq!(db.dev.bytes()[0], db.sequence as u8);
            slot0.push(db.sequence);
            tq0.free.push(db.dev).unwrap();
        }
        let mut slot1 = Vec::new();
        while let Ok(db) = tq1.full.pop() {
            slot1.push(db.sequence);
            tq1.free.push(db.dev).unwrap();
        }
        dispatcher.join();
        // Round-robin: even sequences to slot 0, odd to slot 1.
        assert_eq!(slot0, vec![0, 2, 4]);
        assert_eq!(slot1, vec![1, 3, 5]);
        assert_eq!(backend.recycled.load(Ordering::SeqCst), 6);
        assert_eq!(backend.pool.free_count(), 8);
    }

    #[test]
    fn arrivals_travel_with_batches() {
        let backend = Arc::new(ScriptedBackend::new(2, 3));
        let streams = Arc::new(StreamSet::new("arr", 1, 0.0));
        let gpu = GpuDevice::new(GpuSpec::tesla_p100(), 0);
        let dispatcher = Dispatcher::start(backend, streams, 1, 2, 12.0e9);
        let tq = dispatcher.trans_queues(0);
        tq.free.push(gpu.alloc(4096).unwrap()).unwrap();
        tq.free.push(gpu.alloc(4096).unwrap()).unwrap();
        let a = tq.full.pop().unwrap();
        assert_eq!(a.arrivals, vec![0, 0, 0]);
        tq.free.push(a.dev).unwrap();
        let b = tq.full.pop().unwrap();
        assert_eq!(b.arrivals, vec![10, 10, 10]);
        tq.free.push(b.dev).unwrap();
        assert!(tq.full.pop().is_err(), "closed after exhaustion");
        dispatcher.join();
    }

    #[test]
    fn copy_error_recycles_and_counts() {
        let backend = Arc::new(ScriptedBackend::new(1, 1));
        let streams = Arc::new(StreamSet::new("err", 1, 0.0));
        let gpu = GpuDevice::new(GpuSpec::tesla_p100(), 0);
        let dispatcher = Dispatcher::start(backend.clone(), streams, 1, 2, 12.0e9);
        let tq = dispatcher.trans_queues(0);
        // Deliberately undersized device buffer (payload is 16 bytes).
        tq.free.push(gpu.alloc(4).unwrap()).unwrap();
        // The batch errors; queue closes with nothing delivered.
        assert!(tq.full.pop().is_err());
        dispatcher.join();
        assert_eq!(backend.recycled.load(Ordering::SeqCst), 1);
    }
}
