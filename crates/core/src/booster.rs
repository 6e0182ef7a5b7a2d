//! The assembled DLBooster backend.
//!
//! Wires together the substrates exactly as Fig. 3 draws them:
//!
//! ```text
//!   DataCollector ─► FPGAReader ─► FpgaChannel ─► decoder engine (FPGA)
//!        ▲             │    ▲                           │
//!   disk manifest /    │    └────── FINISH ◄────────────┘
//!   NIC descriptors    ▼
//!               SlotRouter (round-robin) ─► per-engine slot queues
//! ```
//!
//! The reader delivers every finished batch through the [`SlotRouter`]
//! itself; no thread sits between it and the engines.
//!
//! The *hybrid* service of §3.1 ("preprocesses all data in the first epoch
//! and caches them in memory as it can") is the reader's decoded-sample
//! cache: [`DlBoosterConfig::training`] sizes it to one decoded epoch, every
//! sample decoded in epoch 0 is admitted, and once a batch's samples are
//! all resident the reader serves it from memory without touching the
//! device. With the whole dataset resident the FPGA path is idle — the
//! reason MNIST-scale training shows near-zero preprocessing cost for every
//! backend in Fig. 6(a) — while each epoch still gets the collector's own
//! shuffle and augmentation draws.

use crate::backend::{BackendError, HostBatch, PreprocessBackend};
use crate::channel::FpgaChannel;
use crate::collector::DataCollector;
use crate::reader::{FpgaReader, ReaderConfig};
use crate::router::SlotRouter;
use dlb_cache::SampleCache;
use dlb_fpga::OutputFormat;
use dlb_graph::{CompiledPipeline, DecodeDevice, GraphConfig, PipelineGraph};
use dlb_membridge::{BatchUnit, MemManager, PoolConfig};
use dlb_telemetry::{names, PipelineSnapshot, Telemetry};
use dlb_trace::{stages, SpanKind};
use std::sync::Arc;
use std::time::Instant;

/// Upper bound of the decoded-sample cache [`DlBoosterConfig::training`]
/// reserves: one decoded epoch "as it can" (§3.1).
const HYBRID_CACHE_MAX_BYTES: u64 = 2 << 30;

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
    /// Ignored. It once sized a batch-indexed replay cache; the hybrid
    /// mode is now the sample cache `sample_cache_bytes` sizes, and this
    /// field stays only so callers that assign it still compile.
    pub cache_bytes: u64,
    /// Decoded-sample cache budget in bytes (0 disables it) — the hybrid
    /// mode of §3.1. Keyed per *sample* (disk offset), so every epoch keeps
    /// its own shuffle and augmentation draws; evicts cheapest-to-redecode
    /// entries first and quarantines sources whose decode failed. A batch
    /// whose every sample is resident bypasses the FPGA entirely at the
    /// reader. [`DlBoosterConfig::training`] sets it to one decoded epoch.
    /// An externally built cache (e.g. a per-tenant partitioned one) can be
    /// attached instead via [`DlBooster::attach_sample_cache`].
    pub sample_cache_bytes: u64,
    /// Batches per epoch (dataset mode; None for streaming).
    pub batches_per_epoch: Option<u64>,
    /// Total batches to deliver before closing (None = run until the
    /// collector ends or shutdown).
    pub max_batches: Option<u64>,
    /// Per-submission decode deadline forwarded to the reader's timeout
    /// watchdog (see [`ReaderConfig::cmd_timeout`]). None disables it.
    pub cmd_timeout: Option<std::time::Duration>,
}

impl DlBoosterConfig {
    /// A config sized for the given dataset-mode experiment. The sample
    /// cache holds one decoded epoch of `n_records` images (at most 2 GiB),
    /// so a dataset that fits is decoded once and served from memory after.
    pub fn training(
        n_engines: usize,
        batch_size: usize,
        target: (u16, u16),
        n_records: usize,
        max_batches: Option<u64>,
    ) -> Self {
        let format = OutputFormat::Rgb8;
        let epoch_bytes =
            n_records as u64 * target.0 as u64 * target.1 as u64 * format.bytes_per_pixel() as u64;
        Self {
            n_engines,
            batch_size,
            target_w: target.0,
            target_h: target.1,
            format,
            pool_units: (n_engines * 3).max(4),
            cache_bytes: 0,
            sample_cache_bytes: epoch_bytes.min(HYBRID_CACHE_MAX_BYTES),
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

/// What [`DlBooster::cache`] returns: the statistics of the batch-indexed
/// cache DLBooster no longer has, all zero. The hybrid mode's numbers are
/// on [`DlBooster::sample_cache`].
#[derive(Debug, Clone, Copy)]
pub struct NoBatchCache;

impl NoBatchCache {
    /// `(hits, misses, rejected inserts)`: always zero.
    pub fn stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Bytes held: always zero.
    pub fn used_bytes(&self) -> u64 {
        0
    }
}

/// The DLBooster preprocessing backend (paper Fig. 3).
pub struct DlBooster {
    pool: MemManager,
    router: Arc<SlotRouter>,
    /// Dropped after [`Drop::drop`] has closed the pool, which releases a
    /// reader parked on a lease, so joining it cannot hang.
    reader: FpgaReader,
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
    /// FINISH with per-(epoch, sample) seeded draws. The sample cache stores
    /// pre-augmentation pixels, so a resident sample re-augments under the
    /// epoch that dispenses it.
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
        config: DlBoosterConfig,
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
        let pool = MemManager::with_telemetry(
            PoolConfig {
                unit_size,
                unit_count: config.pool_units,
                phys_base: 0x4_0000_0000,
            },
            &telemetry,
        )
        .map_err(|e| e.to_string())?;
        let router = Arc::new(SlotRouter::new(
            pool.clone(),
            config.n_engines,
            compiled.slot_depth.max(1),
            config.max_batches,
            telemetry.registry.counter(names::ROUTER_DELIVERED),
        ));
        for i in 0..config.n_engines {
            router.queue(i).instrument(&telemetry, &format!("slot{i}"));
        }
        let reader = FpgaReader::start_with_telemetry(
            collector,
            pool.clone(),
            channel,
            Arc::clone(&router),
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
                augmentor,
            },
            &telemetry,
        );
        if config.sample_cache_bytes > 0 {
            reader.attach_sample_cache(SampleCache::with_telemetry(
                config.sample_cache_bytes,
                &telemetry,
            ));
        }
        Ok(Self {
            pool,
            router,
            reader,
            telemetry,
        })
    }

    /// The batch-indexed cache this backend no longer has: all-zero stats.
    pub fn cache(&self) -> NoBatchCache {
        NoBatchCache
    }

    /// Attaches a decoded-sample cache to the reader (first attach wins,
    /// mirroring the `attach_chaos` hooks; a no-op when
    /// `sample_cache_bytes` already built one). Use this to share one
    /// cache across backends — e.g. primary and CPU fallback in a
    /// failover pair — or to attach a per-tenant partitioned cache.
    pub fn attach_sample_cache(&self, cache: Arc<SampleCache>) {
        self.reader.attach_sample_cache(cache);
    }

    /// The attached decoded-sample cache, if any.
    pub fn sample_cache(&self) -> Option<Arc<SampleCache>> {
        self.reader.sample_cache()
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
        self.router.delivered()
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
        let got = self
            .router
            .queue(slot)
            .pop_timeout(timeout)
            .map_err(|_| BackendError::Exhausted)?;
        if let Some(b) = &got {
            self.trace_delivery(b);
        }
        Ok(got)
    }

    /// Records the delivered→consumed wait (slot-queue residency) for a
    /// popped batch. One branch when tracing is off.
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

    /// Retires a wedged pipeline for failover: closes the slot queues, so
    /// the reader's next delivery is refused (its unit recycled) and the
    /// reader winds down, and returns once no delivery is in progress, so
    /// [`DlBooster::delivered`] is final.
    ///
    /// Unlike [`PreprocessBackend::shutdown`] the pool stays **open**:
    /// batches already delivered to the slot queues remain poppable, and
    /// the consumer can still recycle their units normally. The count of
    /// batches that will *ever* leave this backend is therefore exactly
    /// `delivered()` — the failover layer sizes its fallback budget off
    /// that. Idempotent.
    pub fn quiesce(&self) {
        self.router.close();
    }
}

impl PreprocessBackend for DlBooster {
    fn name(&self) -> &'static str {
        "DLBooster"
    }

    fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        let batch = self
            .router
            .queue(slot)
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
        self.reader.stats().cpu_busy_nanos.get()
    }

    fn shutdown(&self) {
        self.router.close();
        // Unblock a reader parked on `pool.get_item()` (no work in flight,
        // consumers gone).
        self.pool.close();
    }
}

impl Drop for DlBooster {
    fn drop(&mut self) {
        // Nobody pops the residue any more: its units go home before the
        // pool closes. The `reader` field drops next and joins the daemon.
        self.router.retire();
        self.pool.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::CombinedResolver;
    use dlb_fpga::{DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice};
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};

    /// An unshuffled booster over `n_images` at 32×32; `tweak` adjusts the
    /// default training config before start.
    fn booster(
        n_images: usize,
        n_engines: usize,
        batch: usize,
        max_batches: Option<u64>,
        tweak: impl FnOnce(&mut DlBoosterConfig),
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
        tweak(&mut config);
        DlBooster::start(collector, channel, config).unwrap()
    }

    #[test]
    fn training_config_reserves_one_decoded_epoch() {
        let config = DlBoosterConfig::training(1, 4, (32, 32), 16, None);
        assert_eq!(config.sample_cache_bytes, 16 * 32 * 32 * 3);
        let huge = DlBoosterConfig::training(1, 4, (224, 224), 1 << 20, None);
        assert_eq!(huge.sample_cache_bytes, HYBRID_CACHE_MAX_BYTES);
        assert_eq!(
            DlBoosterConfig::inference(1, 4, (32, 32)).sample_cache_bytes,
            0
        );
    }

    #[test]
    fn serves_round_robin_across_engines() {
        let b = booster(16, 2, 4, Some(8), |_| {});
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
        // 8 images, batch 4 ⇒ 2 batches/epoch; run 10 batches under the
        // default budget. One pool unit serialises the reader behind the
        // consumer, so every epoch-0 admission lands before the first
        // epoch-1 lookup: epochs 1+ must come from memory.
        let b = booster(8, 1, 4, Some(10), |c| c.pool_units = 1);
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
        let cache = b.sample_cache().expect("training builds the hybrid cache");
        assert_eq!(cache.bypass_batches(), 8, "epochs 1+ bypass the decoder");
        assert_eq!(b.reader.stats().batches_submitted.get(), 2);
        // Unshuffled collector ⇒ epoch-1 batch 0 holds epoch-0 batch 0.
        assert_eq!(payload_first.unwrap(), payload_epoch1.unwrap());
        assert_eq!(b.cache().stats(), (0, 0, 0));
    }

    #[test]
    fn zero_cache_never_replays() {
        let b = booster(8, 1, 4, Some(6), |c| c.sample_cache_bytes = 0);
        let mut batches = 0;
        while let Ok(batch) = b.next_batch(0) {
            batches += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(batches, 6);
        assert!(b.sample_cache().is_none());
        assert_eq!(b.reader.stats().batches_submitted.get(), 6);
    }

    #[test]
    fn quiesce_finalises_delivered_and_keeps_residue_poppable() {
        let b = booster(16, 1, 4, None, |_| {});
        let first = b.next_batch(0).unwrap();
        b.recycle(first.unit);
        b.quiesce();
        let delivered = b.delivered();
        let mut popped = 1;
        while let Ok(batch) = b.next_batch(0) {
            popped += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(popped, delivered, "everything delivered is poppable");
        assert_eq!(b.delivered(), delivered, "nothing delivered after quiesce");
    }

    #[test]
    fn shutdown_releases_consumers() {
        let b = Arc::new(booster(16, 1, 4, None, |_| {}));
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
        // Closing the slot queues still drains batches the reader had
        // already delivered; after the residue, every pop is Exhausted.
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
