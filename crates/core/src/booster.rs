//! The assembled DLBooster backend.
//!
//! Wires together the substrates exactly as Fig. 3 draws them:
//!
//! ```text
//!   DataCollector ─► FPGAReader ─► FpgaChannel ─► decoder engine (FPGA)
//!        ▲                │   Full_Batch_Queue ◄────────┘
//!   disk manifest /       ▼
//!   NIC descriptors     router (round-robin, hybrid cache) ─► per-engine
//!                                                             slot queues
//! ```
//!
//! The router implements the *hybrid* service of §3.1: during the first
//! epoch every decoded batch is offered to the [`EpochCache`]; if the whole
//! epoch fits ("as it can"), the FPGA path is shut down and later epochs
//! replay from memory — the reason MNIST-scale training shows near-zero
//! preprocessing cost for every backend in Fig. 6(a).

use crate::backend::{BackendError, HostBatch, PreprocessBackend};
use crate::cache::{CachedBatch, EpochCache};
use crate::channel::FpgaChannel;
use crate::collector::DataCollector;
use crate::reader::{FpgaReader, ReaderConfig};
use dlb_cache::SampleCache;
use dlb_fpga::OutputFormat;
use dlb_graph::{CompiledPipeline, DecodeDevice, GraphConfig, PipelineGraph};
use dlb_membridge::{BatchUnit, BlockingQueue, MemManager, PoolConfig};
use dlb_telemetry::{names, Counter, PipelineSnapshot, Telemetry};
use dlb_trace::{stages, SpanKind, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// DLBooster assembly parameters.
#[derive(Debug, Clone)]
pub struct DlBoosterConfig {
    /// Number of compute engines served (GPUs).
    pub n_engines: usize,
    /// Images per batch.
    pub batch_size: usize,
    /// Decoder output width.
    pub target_w: u16,
    /// Decoder output height.
    pub target_h: u16,
    /// Decoder output format.
    pub format: OutputFormat,
    /// Batch buffers in the HugePage pool.
    pub pool_units: usize,
    /// Memory-cache budget in bytes (0 disables the hybrid cache).
    pub cache_bytes: u64,
    /// Decoded-sample cache budget in bytes (0 disables it). Unlike the
    /// batch-indexed hybrid cache above, this one is keyed per *sample*
    /// (disk offset), evicts cheapest-to-redecode entries first, and
    /// quarantines sources whose decode failed. Hits bypass the FPGA
    /// entirely at the reader. An externally built cache (e.g. a
    /// per-tenant partitioned one) can be attached instead via
    /// [`DlBooster::attach_sample_cache`].
    pub sample_cache_bytes: u64,
    /// Batches per epoch (dataset mode; None for streaming — disables the
    /// cache).
    pub batches_per_epoch: Option<u64>,
    /// Total batches to deliver before closing (None = run until the
    /// collector ends or shutdown).
    pub max_batches: Option<u64>,
    /// Per-submission decode deadline forwarded to the reader's timeout
    /// watchdog (see [`ReaderConfig::cmd_timeout`]). None disables it.
    pub cmd_timeout: Option<std::time::Duration>,
}

impl DlBoosterConfig {
    /// A config sized for the given dataset-mode experiment.
    pub fn training(
        n_engines: usize,
        batch_size: usize,
        target: (u16, u16),
        n_records: usize,
        max_batches: Option<u64>,
    ) -> Self {
        Self {
            n_engines,
            batch_size,
            target_w: target.0,
            target_h: target.1,
            format: OutputFormat::Rgb8,
            pool_units: (n_engines * 3).max(4),
            cache_bytes: 2 << 30,
            sample_cache_bytes: 0,
            batches_per_epoch: Some((n_records as u64).div_ceil(batch_size as u64)),
            max_batches,
            cmd_timeout: None,
        }
    }

    /// A streaming (online inference) config.
    pub fn inference(n_engines: usize, batch_size: usize, target: (u16, u16)) -> Self {
        Self {
            n_engines,
            batch_size,
            target_w: target.0,
            target_h: target.1,
            format: OutputFormat::Rgb8,
            pool_units: (n_engines * 3).max(4),
            cache_bytes: 0,
            sample_cache_bytes: 0,
            batches_per_epoch: None,
            max_batches: None,
            cmd_timeout: None,
        }
    }

    fn unit_size(&self) -> usize {
        self.batch_size
            * self.target_w as usize
            * self.target_h as usize
            * self.format.bytes_per_pixel() as usize
    }

    /// The canned graph [`DlBooster::start`] compiles.
    fn canned_graph(&self) -> PipelineGraph {
        if self.batches_per_epoch.is_some() {
            dlb_graph::fpga_training(self.target_w as u32, self.target_h as u32)
        } else {
            dlb_graph::fpga_streaming(self.target_w as u32, self.target_h as u32)
        }
    }

    fn graph_config(&self) -> GraphConfig {
        GraphConfig {
            batch_size: self.batch_size,
            n_engines: self.n_engines,
            default_decode_parallelism: 1,
            seed: 0,
        }
    }
}

/// The DLBooster preprocessing backend (paper Fig. 3).
pub struct DlBooster {
    pool: MemManager,
    slot_queues: Vec<BlockingQueue<HostBatch>>,
    full_queue: BlockingQueue<HostBatch>,
    router: Mutex<Option<JoinHandle<Option<FpgaReader>>>>,
    /// A reader returned by a quiesced router whose daemon may still be
    /// parked on `pool.get_item()`; joined at drop, after `pool.close()`
    /// guarantees the park is released.
    parked_reader: Mutex<Option<FpgaReader>>,
    stop: Arc<AtomicBool>,
    quiesced: AtomicBool,
    cache: Arc<EpochCache>,
    sample_cache_cell: Arc<OnceLock<Arc<SampleCache>>>,
    router_cpu_nanos: Arc<AtomicU64>,
    reader_cpu_nanos: Arc<AtomicU64>,
    delivered: Arc<Counter>,
    telemetry: Arc<Telemetry>,
}

impl DlBooster {
    /// Builds and starts the backend on an already-initialised channel
    /// (device + mirror + engine) and collector, with a private telemetry
    /// registry. Internally compiles the canned training/streaming graph —
    /// see [`DlBooster::from_graph`] for user-composed pipelines.
    pub fn start(
        collector: Arc<DataCollector>,
        channel: FpgaChannel,
        config: DlBoosterConfig,
    ) -> Result<Self, String> {
        Self::start_with_telemetry(collector, channel, config, Telemetry::with_defaults())
    }

    /// Like [`DlBooster::start`], but recording every stage's metrics into
    /// the shared pipeline `telemetry`. For a fully-aggregated
    /// [`PipelineSnapshot`], build the channel with
    /// [`FpgaChannel::init_with_telemetry`] on the same registry.
    pub fn start_with_telemetry(
        collector: Arc<DataCollector>,
        channel: FpgaChannel,
        config: DlBoosterConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, String> {
        let graph = config.canned_graph();
        let compiled = graph
            .compile(&config.graph_config())
            .map_err(|e| e.to_string())?;
        Self::start_wired(collector, channel, config, &compiled, telemetry)
    }

    /// Builds the backend from a user-composed [`PipelineGraph`]. The graph
    /// must decode on the FPGA (`DecodeDevice::Fpga`); its resize geometry
    /// overrides `config.target_w/h`, its queue-depth knobs override the
    /// substrate defaults, and any augmentation stages run host-side after
    /// FINISH with per-(epoch, sample) seeded draws. Augmentation disables
    /// the hybrid batch cache (replaying epoch-1 batches would freeze
    /// epoch-1's crops); the per-*sample* cache stays usable because it
    /// stores pre-augmentation pixels.
    pub fn from_graph(
        collector: Arc<DataCollector>,
        channel: FpgaChannel,
        config: DlBoosterConfig,
        graph: &PipelineGraph,
        seed: u64,
    ) -> Result<Self, String> {
        Self::from_graph_with_telemetry(
            collector,
            channel,
            config,
            graph,
            seed,
            Telemetry::with_defaults(),
        )
    }

    /// [`DlBooster::from_graph`] with a shared telemetry registry.
    pub fn from_graph_with_telemetry(
        collector: Arc<DataCollector>,
        channel: FpgaChannel,
        mut config: DlBoosterConfig,
        graph: &PipelineGraph,
        seed: u64,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, String> {
        let mut gc = config.graph_config();
        gc.seed = seed;
        let compiled = graph.compile(&gc).map_err(|e| e.to_string())?;
        if compiled.decode != DecodeDevice::Fpga {
            return Err(
                "DlBooster executes FPGA-decode graphs; use CpuBackend::from_graph for \
                 DecodeDevice::Cpu"
                    .into(),
            );
        }
        if compiled.resize.0 > u16::MAX as u32 || compiled.resize.1 > u16::MAX as u32 {
            return Err("resize geometry exceeds the FPGA resizer's 16-bit range".into());
        }
        config.target_w = compiled.resize.0 as u16;
        config.target_h = compiled.resize.1 as u16;
        Self::start_wired(collector, channel, config, &compiled, telemetry)
    }

    fn start_wired(
        collector: Arc<DataCollector>,
        channel: FpgaChannel,
        mut config: DlBoosterConfig,
        compiled: &CompiledPipeline,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, String> {
        if config.n_engines == 0 || config.batch_size == 0 {
            return Err("n_engines and batch_size must be positive".into());
        }
        // Resolves `DLB_AUG_SEED` here — at pipeline start, never inside
        // `compile`.
        let augmentor = compiled.augmentor();
        // Units hold the batch both at decode (device writeback) and after
        // augmentation (which may grow items 4x via Normalize).
        let unit_size = match &augmentor {
            Some(aug) => {
                let out = aug.output_bytes(config.target_w as u32, config.target_h as u32);
                config.unit_size().max(config.batch_size * out)
            }
            None => config.unit_size(),
        };
        // An augmented pipeline must not replay whole batches from the
        // hybrid cache: cached payloads carry epoch-1's crops/flips, and
        // serving them again would freeze the augmentation stream.
        if augmentor.is_some() {
            config.cache_bytes = 0;
        }
        let pool = MemManager::with_telemetry(
            PoolConfig {
                unit_size,
                unit_count: config.pool_units,
                phys_base: 0x4_0000_0000,
            },
            &telemetry,
        )
        .map_err(|e| e.to_string())?;

        let reader = FpgaReader::start_with_telemetry(
            collector,
            pool.clone(),
            channel,
            ReaderConfig {
                batch_size: config.batch_size,
                target_w: config.target_w,
                target_h: config.target_h,
                format: config.format,
                // Same bound as the router's: batches submitted past it
                // would be decoded for nobody, and whole-run counters would
                // depend on when shutdown caught the reader.
                max_batches: config.max_batches,
                cmd_timeout: config.cmd_timeout,
                full_queue_depth: compiled.ingest_depth,
                augmentor,
            },
            &telemetry,
        );
        let sample_cache_cell = reader.sample_cache_cell();
        if config.sample_cache_bytes > 0 {
            let _ = sample_cache_cell.set(SampleCache::with_telemetry(
                config.sample_cache_bytes,
                &telemetry,
            ));
        }
        let reader_cpu_nanos = Arc::new(AtomicU64::new(0));
        let slot_queues: Vec<BlockingQueue<HostBatch>> = (0..config.n_engines)
            .map(|i| {
                let q = BlockingQueue::bounded(compiled.slot_depth.max(1));
                q.instrument(&telemetry, &format!("slot{i}"));
                q
            })
            .collect();
        let cache = Arc::new(EpochCache::new(config.cache_bytes));
        let stop = Arc::new(AtomicBool::new(false));
        let router_cpu_nanos = Arc::new(AtomicU64::new(0));
        let delivered = telemetry.registry.counter(names::ROUTER_DELIVERED);

        let ctx = RouterCtx {
            pool: pool.clone(),
            slot_queues: slot_queues.clone(),
            cache: Arc::clone(&cache),
            stop: Arc::clone(&stop),
            cpu_nanos: Arc::clone(&router_cpu_nanos),
            reader_cpu_nanos: Arc::clone(&reader_cpu_nanos),
            delivered: Arc::clone(&delivered),
            config: config.clone(),
            tracer_cell: telemetry.tracer_cell(),
        };
        let full_queue = reader.full_queue().clone();
        let router = std::thread::Builder::new()
            .name("dlbooster-router".into())
            .spawn(move || run_router(reader, ctx))
            .expect("spawn router");

        Ok(Self {
            pool,
            slot_queues,
            full_queue,
            router: Mutex::new(Some(router)),
            parked_reader: Mutex::new(None),
            stop,
            quiesced: AtomicBool::new(false),
            cache,
            sample_cache_cell,
            router_cpu_nanos,
            reader_cpu_nanos,
            delivered,
            telemetry,
        })
    }

    /// The hybrid cache (inspection).
    pub fn cache(&self) -> &EpochCache {
        &self.cache
    }

    /// Attaches a decoded-sample cache to the reader (first attach wins,
    /// mirroring the `attach_chaos` hooks; a no-op when
    /// `sample_cache_bytes` already built one). Use this to share one
    /// cache across backends — e.g. primary and CPU fallback in a
    /// failover pair — or to attach a per-tenant partitioned cache.
    pub fn attach_sample_cache(&self, cache: Arc<SampleCache>) {
        let _ = self.sample_cache_cell.set(cache);
    }

    /// The attached decoded-sample cache, if any.
    pub fn sample_cache(&self) -> Option<Arc<SampleCache>> {
        self.sample_cache_cell.get().cloned()
    }

    /// The pipeline telemetry registry every stage records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// A point-in-time aggregate of every stage's counters, histograms and
    /// watchdog state.
    pub fn pipeline_snapshot(&self) -> PipelineSnapshot {
        self.telemetry.pipeline_snapshot()
    }

    /// Batches delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// The underlying pool (tests verify conservation).
    pub fn pool(&self) -> &MemManager {
        &self.pool
    }

    /// Like [`PreprocessBackend::next_batch`], but gives up after
    /// `timeout`. `Ok(None)` means the wait timed out with the pipeline
    /// still alive — the failover layer's cue that this backend may be
    /// wedged. `Err(Exhausted)` means the slot queue closed for good.
    pub fn next_batch_timeout(
        &self,
        slot: usize,
        timeout: std::time::Duration,
    ) -> Result<Option<HostBatch>, BackendError> {
        let got = self.slot_queues[slot]
            .pop_timeout(timeout)
            .map_err(|_| BackendError::Exhausted)?;
        if let Some(b) = &got {
            self.trace_delivery(b);
        }
        Ok(got)
    }

    /// Records the decoded→consumed wait (full-queue + slot-queue
    /// residency) for a popped batch. One branch when tracing is off.
    fn trace_delivery(&self, batch: &HostBatch) {
        if let Some(t) = self.telemetry.tracer() {
            if batch.trace != 0 {
                t.span(
                    batch.trace,
                    stages::QUEUE_DELIVER,
                    SpanKind::Queue,
                    batch.ready_at,
                    Instant::now(),
                );
            }
        }
    }

    /// Retires a wedged pipeline for failover: stops the router, drains
    /// the reader's output back into the (still open) pool, and joins the
    /// router thread so [`DlBooster::delivered`] is final when this
    /// returns.
    ///
    /// Unlike [`PreprocessBackend::shutdown`] the pool stays **open**:
    /// batches already routed to the slot queues remain poppable, and the
    /// consumer can still recycle their units normally. The count of
    /// batches that will *ever* leave this backend is therefore exactly
    /// `delivered()` — the failover layer sizes its fallback budget off
    /// that. Idempotent.
    pub fn quiesce(&self) {
        if self.quiesced.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Wake a reader blocked pushing decoded batches and a router
        // blocked popping them; recycle whatever the reader had finished
        // but the router never routed (those were never counted
        // delivered, so the fallback re-produces them — no loss).
        self.full_queue.close();
        for stranded in self.full_queue.drain() {
            let _ = self.pool.recycle_item(stranded.unit);
        }
        // Wake a router blocked pushing into a full slot queue; residue
        // already queued stays drainable (close only stops new pushes).
        for q in &self.slot_queues {
            q.close();
        }
        let handle = self.router.lock().take();
        if let Some(h) = handle {
            if let Ok(Some(reader)) = h.join() {
                // The reader daemon may still be parked on
                // `pool.get_item()` waiting for a unit that only frees
                // once the consumer recycles residue. Park it; drop joins
                // it after `pool.close()` releases the wait.
                *self.parked_reader.lock() = Some(reader);
            }
        }
    }
}

impl PreprocessBackend for DlBooster {
    fn name(&self) -> &'static str {
        "DLBooster"
    }

    fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        let batch = self.slot_queues[slot]
            .pop()
            .map_err(|_| BackendError::Exhausted)?;
        self.trace_delivery(&batch);
        Ok(batch)
    }

    fn recycle(&self, unit: BatchUnit) {
        // Ignore foreign/closed errors at shutdown.
        let _ = self.pool.recycle_item(unit);
    }

    fn max_batch_bytes(&self) -> usize {
        self.pool.unit_size()
    }

    fn cpu_busy_nanos(&self) -> u64 {
        self.router_cpu_nanos.load(Ordering::Relaxed)
            + self.reader_cpu_nanos.load(Ordering::Relaxed)
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for q in &self.slot_queues {
            q.close();
        }
        // Unblock a reader parked on `pool.get_item()` (no work in flight,
        // consumers gone).
        self.pool.close();
    }
}

impl Drop for DlBooster {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.router.lock().take() {
            // The router returns the reader (if still live) so its drop
            // joins the daemon cleanly.
            let _ = h.join();
        }
        // A reader parked by quiesce(): pool.close() above released any
        // get_item() wait, so joining is now safe.
        drop(self.parked_reader.lock().take());
    }
}

struct RouterCtx {
    pool: MemManager,
    slot_queues: Vec<BlockingQueue<HostBatch>>,
    cache: Arc<EpochCache>,
    stop: Arc<AtomicBool>,
    cpu_nanos: Arc<AtomicU64>,
    reader_cpu_nanos: Arc<AtomicU64>,
    delivered: Arc<Counter>,
    config: DlBoosterConfig,
    tracer_cell: Arc<OnceLock<Arc<Tracer>>>,
}

fn run_router(reader: FpgaReader, ctx: RouterCtx) -> Option<FpgaReader> {
    let n = ctx.slot_queues.len();
    let mut seq_out: u64 = 0;
    let bpe = ctx
        .config
        .batches_per_epoch
        .filter(|_| ctx.config.cache_bytes > 0);

    // Count a batch delivered only once it actually lands in a slot
    // queue: on a closed queue (shutdown or quiesce) the batch comes
    // back and its unit is recycled, so `delivered` stays an exact count
    // of batches the consumer can still pop — the failover layer sizes
    // its fallback budget off it.
    let deliver = |mut batch: HostBatch, seq_out: &mut u64| -> bool {
        let slot = (*seq_out % n as u64) as usize;
        batch.sequence = *seq_out;
        batch.unit.seal(*seq_out);
        match ctx.slot_queues[slot].push_or_return(batch) {
            Ok(()) => {
                *seq_out += 1;
                ctx.delivered.inc();
                true
            }
            Err(returned) => {
                let _ = ctx.pool.recycle_item(returned.unit);
                false
            }
        }
    };

    let reached_max = |seq_out: u64| ctx.config.max_batches.is_some_and(|m| seq_out >= m);

    // Phase 1: live decode through the FPGA.
    let mut cache_complete = false;
    while !ctx.stop.load(Ordering::SeqCst) && !reached_max(seq_out) {
        let batch = match reader.full_queue().pop() {
            Ok(b) => b,
            Err(_) => break, // collector exhausted; reader closed the queue
        };
        let t0 = Instant::now();
        if let Some(bpe) = bpe {
            if batch.sequence < bpe {
                // Gathered, not read off the unit's storage: a batch served
                // from the sample cache holds lent slots, not inline bytes.
                let mut payload = vec![0; batch.unit.used()];
                batch.unit.gather_into(&mut payload);
                ctx.cache.try_put(
                    batch.sequence,
                    CachedBatch {
                        payload,
                        items: batch.unit.items().to_vec(),
                    },
                );
                if batch.sequence + 1 == bpe && ctx.cache.covers_epoch(bpe) {
                    cache_complete = true;
                }
            }
        }
        ctx.cpu_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if !deliver(batch, &mut seq_out) {
            break;
        }
        if cache_complete {
            break;
        }
    }

    // Publish reader CPU time and shut the FPGA path down if we are going
    // cache-only (the decoder is no longer needed — §3.1's offline phase).
    ctx.reader_cpu_nanos
        .store(reader.stats().cpu_busy_nanos.get(), Ordering::Relaxed);
    if !cache_complete {
        // Live phase ended (exhausted / stopped / max reached).
        for q in &ctx.slot_queues {
            q.close();
        }
        return Some(reader);
    }
    // Going cache-only: the reader has raced ahead into the next epoch.
    // Close its output queue (so further pushes fail and it exits), recycle
    // whatever it already queued, then join it and release the device.
    let fq = reader.full_queue().clone();
    fq.close();
    for stranded in fq.drain() {
        let _ = ctx.pool.recycle_item(stranded.unit);
    }
    drop(reader.stop()); // recycle the channel/device

    // Phase 2: serve from the memory cache.
    let bpe = bpe.expect("cache_complete implies dataset mode");
    let mut key = seq_out % bpe;
    while !ctx.stop.load(Ordering::SeqCst) && !reached_max(seq_out) {
        let Some(cached) = ctx.cache.get(key) else {
            break; // should not happen: coverage was checked
        };
        key = (key + 1) % bpe;
        // Stop-aware acquisition: a plain get_item() could park forever
        // with every unit captive in the slot queues while quiesce()
        // waits to join this thread.
        let unit = loop {
            if ctx.stop.load(Ordering::SeqCst) {
                break None;
            }
            match ctx.pool.try_get_item() {
                Some(u) => break Some(u),
                None => std::thread::sleep(std::time::Duration::from_micros(200)),
            }
        };
        let Some(mut unit) = unit else {
            break;
        };
        let t0 = Instant::now();
        if unit.restore(&cached.payload, &cached.items).is_err() {
            let _ = ctx.pool.recycle_item(unit);
            break;
        }
        ctx.cpu_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // A replayed batch is a fresh delivery: it gets its own trace
        // ordinal, with the restore cost recorded as its service time.
        let trace = match ctx.tracer_cell.get() {
            Some(t) => {
                let id = t.next_batch_id();
                t.span(
                    id,
                    stages::CACHE_REPLAY,
                    SpanKind::Service,
                    t0,
                    Instant::now(),
                );
                id
            }
            None => 0,
        };
        let batch = HostBatch {
            unit,
            sequence: seq_out,
            ready_at: Instant::now(),
            arrivals: Vec::new(),
            trace,
        };
        if !deliver(batch, &mut seq_out) {
            break;
        }
    }
    for q in &ctx.slot_queues {
        q.close();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::CombinedResolver;
    use dlb_fpga::{DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice};
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};

    fn booster(
        n_images: usize,
        n_engines: usize,
        batch: usize,
        cache_bytes: u64,
        max_batches: Option<u64>,
    ) -> DlBooster {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(n_images, 33), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine =
            DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
        let channel = FpgaChannel::init(engine, 0);
        let mut config =
            DlBoosterConfig::training(n_engines, batch, (32, 32), n_images, max_batches);
        config.cache_bytes = cache_bytes;
        DlBooster::start(collector, channel, config).unwrap()
    }

    #[test]
    fn serves_round_robin_across_engines() {
        let b = booster(16, 2, 4, 0, Some(8));
        let mut seq0 = Vec::new();
        let mut seq1 = Vec::new();
        while let Ok(batch) = b.next_batch(0) {
            seq0.push(batch.sequence);
            b.recycle(batch.unit);
        }
        while let Ok(batch) = b.next_batch(1) {
            seq1.push(batch.sequence);
            b.recycle(batch.unit);
        }
        assert_eq!(seq0, vec![0, 2, 4, 6]);
        assert_eq!(seq1, vec![1, 3, 5, 7]);
        assert_eq!(b.delivered(), 8);
        assert_eq!(b.name(), "DLBooster");
    }

    #[test]
    fn hybrid_cache_takes_over_after_first_epoch() {
        // 8 images, batch 4 ⇒ 2 batches/epoch; run 10 batches with a
        // generous cache: epochs 1+ must come from memory.
        let b = booster(8, 1, 4, 64 << 20, Some(10));
        let mut batches = 0;
        let mut payload_first: Option<Vec<u8>> = None;
        let mut payload_epoch1: Option<Vec<u8>> = None;
        while let Ok(batch) = b.next_batch(0) {
            let mut payload = vec![0; batch.unit.used()];
            batch.unit.gather_into(&mut payload);
            match batch.sequence {
                0 => payload_first = Some(payload),
                2 => payload_epoch1 = Some(payload),
                _ => {}
            }
            batches += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(batches, 10);
        let (hits, _, _) = b.cache().stats();
        assert!(hits >= 8, "cache replay expected, hits = {hits}");
        // Unshuffled collector ⇒ epoch-1 batch 0 replays epoch-0 batch 0.
        assert_eq!(payload_first.unwrap(), payload_epoch1.unwrap());
    }

    #[test]
    fn zero_cache_never_replays() {
        let b = booster(8, 1, 4, 0, Some(6));
        let mut batches = 0;
        while let Ok(batch) = b.next_batch(0) {
            batches += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(batches, 6);
        let (hits, _, _) = b.cache().stats();
        assert_eq!(hits, 0);
    }

    #[test]
    fn shutdown_releases_consumers() {
        let b = Arc::new(booster(16, 1, 4, 0, None));
        let b2 = Arc::clone(&b);
        let consumer = std::thread::spawn(move || {
            let mut n = 0;
            while let Ok(batch) = b2.next_batch(0) {
                n += 1;
                b2.recycle(batch.unit);
                if n >= 2 {
                    break;
                }
            }
            n
        });
        assert!(consumer.join().unwrap() >= 2);
        b.shutdown();
        // Closing the slot queues still drains batches the router had
        // already prefetched; after the residue, every pop is Exhausted.
        while let Ok(batch) = b.next_batch(0) {
            b.recycle(batch.unit);
        }
        assert!(matches!(b.next_batch(0), Err(BackendError::Exhausted)));
    }

    #[test]
    fn rejects_zero_engines() {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::mnist_like(4, 1), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine =
            DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
        let channel = FpgaChannel::init(engine, 0);
        let mut config = DlBoosterConfig::training(1, 4, (16, 16), 4, None);
        config.n_engines = 0;
        assert!(DlBooster::start(collector, channel, config).is_err());
    }
}
