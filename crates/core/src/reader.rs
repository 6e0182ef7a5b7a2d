//! `FPGAReader` — the asynchronous feeding daemon of Algorithm 1.
//!
//! The loop structure is the paper's, line for line:
//!
//! * lease a memory holder from the free pool (`free_batch_queue.peak/pop`,
//!   lines 5–10) — and while none is available, *drain completed batches out
//!   of the decoder instead of spinning* (lines 6–9), which simultaneously
//!   applies back-pressure and keeps the engines fed;
//! * generate cmds carrying `mem_holder.phyaddr() + offset` (line 12);
//! * submit asynchronously and deliver whatever came back (lines 13–15);
//! * on shutdown, drain everything and recycle (lines 16–19).
//!
//! Finished batches go straight to the per-engine slot queues through a
//! [`SlotRouter`], in the order the collector dispensed them.

use crate::channel::FpgaChannel;
use crate::collector::{DataCollector, FileMeta};
use crate::router::SlotRouter;
use dlb_cache::{SampleCache, SampleKey, SampleMeta};
use dlb_fpga::{CompletedBatch, DataRef, DecodeCmd, FpgaError, OutputFormat, Submission};
use dlb_graph::{source_identity, SampleAugmentor};
use dlb_membridge::{BatchUnit, MemManager};
use dlb_telemetry::{names, Counter, Gauge, Histogram, Telemetry};
use dlb_trace::{stages, SpanKind, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a stream reader with cmds in flight looks up from the
/// completion channel (which a push cannot signal) to re-check the stream:
/// a meta pushed behind a decode in progress is picked up within this —
/// about one 500×375 image's decode, so less than it would queue for.
const BUSY_RECHECK: Duration = Duration::from_millis(1);

/// The cache identity of a decode source. NIC ring descriptors have none:
/// RX rings reuse physical addresses, so a `(phys, len)` pair aliases
/// different payloads over time and must never be used as a cache key.
pub fn sample_key(src: &DataRef) -> Option<SampleKey> {
    match src {
        DataRef::Disk { offset, len } => Some(SampleKey::Disk {
            offset: *offset,
            len: *len,
        }),
        DataRef::HostMem { .. } => None,
    }
}

/// Compressed payload size — the FPGA path's relative redecode-cost signal.
fn src_len(src: &DataRef) -> u64 {
    match src {
        DataRef::Disk { len, .. } | DataRef::HostMem { len, .. } => *len as u64,
    }
}

/// Stable augmentation identity of a decode source (see
/// `dlb_graph::seed`): a hash of the source location, invariant to worker
/// count, batch composition, delivery order, and retries.
pub fn augment_identity(src: &DataRef) -> u64 {
    match src {
        DataRef::Disk { offset, len } => source_identity(0, *offset, *len as u64),
        DataRef::HostMem { phys_addr, len } => source_identity(1, *phys_addr, *len as u64),
    }
}

/// The whole-batch sample-cache bypass shared by the FPGA reader and the
/// CPU backend. When *every* item of the batch is resident, fills `unit`
/// from the cache and returns `true`: all-or-nothing keeps item order and
/// unit layout identical to a decoded batch, and the unit recycles
/// through the same free queue — only the decode work disappears. On any
/// miss `unit` is left empty and the batch decodes live as a whole (both
/// paths decode a full batch in one go, so partial hits save nothing).
///
/// Each hit is *lent* to the unit, not copied into it: the unit holds the
/// pinned slot, the H2D copy gathers it straight into the device buffer
/// (one copy per warm image, slot → device), and recycling the unit
/// unpins it. Cached samples are pre-augmentation pixels: with an
/// augmentor attached, each bypassed item re-augments under its
/// *dispense* epoch — a cache hit in epoch 3 draws epoch 3's crop, exactly
/// as a live decode would — and the augmented bytes are written inline.
pub fn fill_from_cache(
    cache: &SampleCache,
    metas: &[FileMeta],
    augmentor: Option<&SampleAugmentor>,
    unit: &mut BatchUnit,
) -> bool {
    let lookup = |m: &FileMeta| sample_key(&m.src).and_then(|k| cache.lookup(&k));
    match augmentor {
        None => {
            for meta in metas {
                let Some(pin) = lookup(meta) else {
                    unit.reset(); // returns the pins lent so far
                    return false;
                };
                let s = pin.meta();
                unit.lend(Box::new(pin), s.label, s.width, s.height, s.channels);
            }
        }
        Some(aug) => {
            let Some(pins) = metas.iter().map(lookup).collect::<Option<Vec<_>>>() else {
                return false;
            };
            for (pin, meta) in pins.iter().zip(metas) {
                let s = pin.meta();
                let id = augment_identity(&meta.src);
                let out = aug.apply(meta.epoch, id, pin.bytes(), s.width, s.height, s.channels);
                unit.append(&out.data, s.label, out.width, out.height, out.channels);
            }
        }
    }
    cache.note_bypass_batch();
    true
}

/// Reader configuration.
#[derive(Debug, Clone)]
pub struct ReaderConfig {
    /// Images per batch.
    pub batch_size: usize,
    /// Resizer output width.
    pub target_w: u16,
    /// Resizer output height.
    pub target_h: u16,
    /// Output pixel format.
    pub format: OutputFormat,
    /// Stop after this many batches (None = run until the collector ends).
    pub max_batches: Option<u64>,
    /// Per-submission completion deadline. When a batch stays in flight
    /// longer than this, the reader abandons it and resubmits its cmds
    /// (fresh ids, fresh buffer); the late original is dropped on arrival,
    /// so no batch is ever lost *or* duplicated. None disables the watchdog.
    pub cmd_timeout: Option<Duration>,
    /// Host-side per-sample augmentation applied after FINISH (and to
    /// cache-bypassed samples), keyed by `(epoch, source identity)` so
    /// every draw replays bitwise from the run seed. `None` delivers raw
    /// decoded pixels — the paper's pipeline.
    pub augmentor: Option<SampleAugmentor>,
}

impl ReaderConfig {
    /// Bytes one decoded item occupies.
    pub(crate) fn item_bytes(&self) -> usize {
        self.target_w as usize * self.target_h as usize * self.format.bytes_per_pixel() as usize
    }
}

/// Counters exposed by the reader — `reader.*` telemetry handles.
#[derive(Debug)]
pub(crate) struct ReaderStats {
    /// Batches submitted to the decoder.
    pub batches_submitted: Arc<Counter>,
    /// Batches the decoder completed.
    pub batches_completed: Arc<Counter>,
    /// Batches submitted but never completed (pipeline torn down with
    /// work in flight).
    pub batch_errors: Arc<Counter>,
    /// Items whose decode failed.
    pub item_errors: Arc<Counter>,
    /// Nanoseconds of host CPU busy time in the reader loop (cmd
    /// generation + queue work — the tiny "preprocessing" CPU cost of
    /// Fig. 6(d)).
    pub cpu_busy_nanos: Arc<Counter>,
    /// Submit→completion latency per batch (ns).
    pub submit_latency: Arc<Histogram>,
    /// Batches currently in flight on the device.
    pub inflight: Arc<Gauge>,
    /// Submissions that exceeded the cmd timeout (`retry.cmd_timeouts`).
    pub cmd_timeouts: Arc<Counter>,
    /// Submissions re-issued after a timeout (`retry.cmd_resubmits`).
    pub cmd_resubmits: Arc<Counter>,
    /// Abandoned originals that completed late and were dropped
    /// (`retry.late_completions`).
    pub late_completions: Arc<Counter>,
}

impl ReaderStats {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            batches_submitted: telemetry.registry.counter(names::READER_BATCHES_SUBMITTED),
            batches_completed: telemetry.registry.counter(names::READER_BATCHES_COMPLETED),
            batch_errors: telemetry.registry.counter(names::READER_BATCH_ERRORS),
            item_errors: telemetry.registry.counter(names::READER_ITEM_ERRORS),
            cpu_busy_nanos: telemetry.registry.counter(names::READER_CPU_BUSY_NANOS),
            submit_latency: telemetry.registry.histogram(names::READER_SUBMIT_LATENCY),
            inflight: telemetry.registry.gauge(names::READER_INFLIGHT),
            cmd_timeouts: telemetry.registry.counter(names::RETRY_CMD_TIMEOUTS),
            cmd_resubmits: telemetry.registry.counter(names::RETRY_CMD_RESUBMITS),
            late_completions: telemetry.registry.counter(names::RETRY_LATE_COMPLETIONS),
        }
    }
}

/// The running reader daemon.
pub struct FpgaReader {
    handle: Option<JoinHandle<FpgaChannel>>,
    stats: Arc<ReaderStats>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    /// Kept to wake a daemon parked on an idle stream at shutdown.
    collector: Arc<DataCollector>,
    cache_cell: Arc<OnceLock<Arc<SampleCache>>>,
}

impl FpgaReader {
    /// Spawns the daemon. Completed batches are delivered through
    /// `router`, whose queues close when the reader stops. Metrics land in
    /// a private registry; use `FpgaReader::start_with_telemetry` to share
    /// the pipeline's.
    pub fn start(
        collector: Arc<DataCollector>,
        pool: MemManager,
        channel: FpgaChannel,
        router: Arc<SlotRouter>,
        config: ReaderConfig,
    ) -> Self {
        Self::start_with_telemetry(
            collector,
            pool,
            channel,
            router,
            config,
            &Telemetry::with_defaults(),
        )
    }

    /// Like [`FpgaReader::start`], but recording `reader.*` metrics into
    /// the shared pipeline `telemetry`.
    pub(crate) fn start_with_telemetry(
        collector: Arc<DataCollector>,
        pool: MemManager,
        channel: FpgaChannel,
        router: Arc<SlotRouter>,
        config: ReaderConfig,
        telemetry: &Telemetry,
    ) -> Self {
        assert!(config.batch_size >= 1, "batch size must be >= 1");
        assert!(
            config.item_bytes() * config.batch_size <= pool.unit_size(),
            "pool units ({} B) cannot hold a {}-image batch of {} B items",
            pool.unit_size(),
            config.batch_size,
            config.item_bytes()
        );
        if let Some(aug) = &config.augmentor {
            let out = aug.output_bytes(config.target_w as u32, config.target_h as u32);
            assert!(
                out * config.batch_size <= pool.unit_size(),
                "pool units ({} B) cannot hold a {}-image batch of {} B augmented items",
                pool.unit_size(),
                config.batch_size,
                out
            );
        }
        let stats = Arc::new(ReaderStats::register(telemetry));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cache_cell: Arc<OnceLock<Arc<SampleCache>>> = Arc::new(OnceLock::new());
        let st = Arc::clone(&stats);
        let sp = Arc::clone(&stop);
        let cc = Arc::clone(&cache_cell);
        let tc = telemetry.tracer_cell();
        let co = Arc::clone(&collector);
        let handle = std::thread::Builder::new()
            .name("fpga-reader".into())
            .spawn(move || run_reader(co, pool, channel, config, router, st, sp, cc, tc))
            .expect("spawn reader");
        Self {
            handle: Some(handle),
            stats,
            stop,
            collector,
            cache_cell,
        }
    }

    /// Attaches a decoded-sample cache: batches whose every item is
    /// resident are filled from memory and never submitted to the device,
    /// successful decodes are admitted with their compressed size as the
    /// redecode-cost signal, and failed decodes poison their key. First
    /// attach wins (mirrors the chaos `attach_chaos` hooks); the daemon
    /// probes the cell per batch, so attaching mid-run is safe.
    pub(crate) fn attach_sample_cache(&self, cache: Arc<SampleCache>) {
        let _ = self.cache_cell.set(cache);
    }

    /// The attached decoded-sample cache, if any.
    pub(crate) fn sample_cache(&self) -> Option<Arc<SampleCache>> {
        self.cache_cell.get().cloned()
    }

    /// Reader counters.
    pub(crate) fn stats(&self) -> &ReaderStats {
        &self.stats
    }

    /// Stops the daemon, returning its channel for reuse.
    #[cfg(test)]
    pub(crate) fn stop(mut self) -> FpgaChannel {
        self.stop.store(true, Ordering::SeqCst);
        self.collector.wake();
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .expect("reader panicked")
    }
}

impl Drop for FpgaReader {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.collector.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for FpgaReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpgaReader")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

/// One in-flight submission, keyed by its first cmd id. Carries enough to
/// re-issue the batch after a timeout: sources, labels and dispense epochs
/// (geometry comes from the config). The epoch rides along so a resubmitted
/// sample re-derives the *same* augmentation seed — retries replay bitwise.
struct Pending {
    arrivals: Vec<u64>,
    submitted_at: Instant,
    items: Vec<(DataRef, u64, u64)>,
    /// Trace ordinal the batch keeps across resubmissions (0 = untraced).
    trace: u64,
}

/// Mutable reader-loop state shared by the submit / complete / resubmit
/// paths.
struct ReaderCore<'a> {
    pool: &'a MemManager,
    channel: &'a FpgaChannel,
    config: &'a ReaderConfig,
    router: &'a SlotRouter,
    stats: &'a ReaderStats,
    cache: &'a OnceLock<Arc<SampleCache>>,
    tracer: &'a OnceLock<Arc<Tracer>>,
    next_cmd_id: u64,
    /// In-flight submissions by first cmd id.
    pending: HashMap<u64, Pending>,
    /// First cmd ids of submissions abandoned after a timeout; their late
    /// completions are dropped (the resubmission is the live one).
    abandoned: HashSet<u64>,
}

impl ReaderCore<'_> {
    /// Reserves `items` into `unit`, packs cmds with fresh ids, registers
    /// the submission, and submits. Returns opportunistically-drained
    /// completions (Alg. 1 lines 13–15).
    fn submit(
        &mut self,
        mut unit: BatchUnit,
        items: Vec<(DataRef, u64, u64)>,
        arrivals: Vec<u64>,
        trace: u64,
    ) -> Result<Vec<CompletedBatch>, FpgaError> {
        let t0 = Instant::now();
        let first_id = self.next_cmd_id;
        let out_len = self.config.item_bytes();
        let out_ch = self.config.format.bytes_per_pixel() as u8;
        let mut cmds = Vec::with_capacity(items.len());
        for (src, label, _epoch) in &items {
            let offset = unit
                .reserve(
                    out_len,
                    *label,
                    self.config.target_w as u32,
                    self.config.target_h as u32,
                    out_ch,
                )
                .expect("batch sized to fit unit");
            cmds.push(
                DecodeCmd {
                    cmd_id: self.next_cmd_id,
                    src: *src,
                    dst_phys: unit.phys_addr() + offset as u64,
                    dst_capacity: out_len as u32,
                    target_w: self.config.target_w,
                    target_h: self.config.target_h,
                    format: self.config.format,
                }
                .pack(),
            );
            self.next_cmd_id += 1;
        }
        self.stats
            .cpu_busy_nanos
            .add(t0.elapsed().as_nanos() as u64);
        self.pending.insert(
            first_id,
            Pending {
                arrivals,
                submitted_at: Instant::now(),
                items,
                trace,
            },
        );
        self.channel.submit_cmd(Submission { unit, cmds })
    }

    /// Routes one completion: abandoned originals are dropped (unit
    /// recycled), live batches are delivered. Returns false when the
    /// router refused the batch (closed or done: time to stop).
    fn on_completion(&mut self, done: CompletedBatch) -> bool {
        let key = done.finishes.first().map(|f| f.cmd_id).unwrap_or(u64::MAX);
        if self.abandoned.remove(&key) {
            // The resubmission already carries (or will carry) this data.
            self.stats.late_completions.inc();
            let _ = self.pool.recycle_item(done.unit);
            return true;
        }
        let pending = self.pending.remove(&key);
        let arrivals = pending
            .as_ref()
            .map(|p| p.arrivals.clone())
            .unwrap_or_default();
        let trace = pending.as_ref().map_or(0, |p| p.trace);
        if let Some(p) = &pending {
            self.stats
                .submit_latency
                .record_duration(p.submitted_at.elapsed());
            if let Some(t) = self.tracer.get() {
                t.span(
                    trace,
                    stages::FPGA_DECODE,
                    SpanKind::Service,
                    p.submitted_at,
                    Instant::now(),
                );
            }
        }
        self.stats.inflight.dec();
        let errors = done.finishes.iter().filter(|f| !f.status.is_ok()).count() as u64;
        self.stats.item_errors.add(errors);
        let mut unit = done.unit;
        // Admission boundary: successful decodes are copied from the unit
        // straight into a recycled cache slot (compressed size as the
        // redecode-cost signal — FINISH signals carry no per-item timing,
        // and entropy bits scale with payload size); failed decodes poison
        // their key so a corrupt source is never admitted, now or on a
        // later epoch.
        if let (Some(cache), Some(p)) = (self.cache.get(), &pending) {
            for (i, (finish, (src, label, _epoch))) in
                done.finishes.iter().zip(&p.items).enumerate()
            {
                let Some(key) = sample_key(src) else { continue };
                if finish.status.is_ok() {
                    let item = &unit.items()[i];
                    let meta = SampleMeta {
                        label: *label,
                        width: item.width,
                        height: item.height,
                        channels: item.channels,
                    };
                    cache.admit(key, unit.item_bytes(i), meta, src_len(src));
                } else {
                    cache.poison(key);
                }
            }
        }
        // Augmentation runs host-side after FINISH (the paper keeps crops
        // and flips off the FPGA, §3.1) and *after* cache admission, so
        // cached samples stay pre-augmentation and every epoch redraws.
        // Draws key on (dispense epoch, source identity) — a resubmitted
        // or replayed sample augments identically.
        if let (Some(aug), Some(p)) = (&self.config.augmentor, &pending) {
            let t0 = Instant::now();
            let rebuilt: Vec<(Vec<u8>, u64, u32, u32, u8)> = p
                .items
                .iter()
                .enumerate()
                .map(|(i, (src, label, epoch))| {
                    let item = unit.items()[i].clone();
                    let out = aug.apply(
                        *epoch,
                        augment_identity(src),
                        unit.item_bytes(i),
                        item.width,
                        item.height,
                        item.channels,
                    );
                    (out.data, *label, out.width, out.height, out.channels)
                })
                .collect();
            unit.reset();
            for (data, label, w, h, c) in &rebuilt {
                unit.append(data, *label, *w, *h, *c);
            }
            self.stats
                .cpu_busy_nanos
                .add(t0.elapsed().as_nanos() as u64);
            if let Some(t) = self.tracer.get() {
                t.span(
                    trace,
                    stages::AUGMENT,
                    SpanKind::Service,
                    t0,
                    Instant::now(),
                );
            }
        }
        self.stats.batches_completed.inc();
        self.router.deliver(unit, arrivals, trace)
    }

    /// Waits out every submission in flight, delivering each. Returns
    /// false when a delivery was refused or the engine is gone.
    fn flush(&mut self) -> bool {
        while self.channel.in_flight() > 0 {
            match self.wait_completion() {
                WaitOutcome::Got(done) => {
                    if !self.on_completion(done) {
                        return false;
                    }
                }
                WaitOutcome::Idle => {}
                WaitOutcome::EngineGone | WaitOutcome::QueueDown => return false,
            }
        }
        true
    }

    /// Timeout watchdog: if the oldest in-flight submission is past the
    /// deadline and a fresh unit is free, abandon it and re-issue its cmds
    /// under fresh ids. Returns false when the router refused one of the
    /// resubmission's opportunistic completions.
    fn check_timeouts(&mut self, timeout: Duration) -> bool {
        let Some(key) = self
            .pending
            .iter()
            .filter(|(_, p)| p.submitted_at.elapsed() >= timeout)
            .min_by_key(|(_, p)| p.submitted_at)
            .map(|(k, _)| *k)
        else {
            return true;
        };
        // A resubmission needs somewhere to decode into; without a free
        // unit we keep waiting (the wedged unit is captive on the device).
        let Some(unit) = self.pool.try_get_item() else {
            return true;
        };
        let p = self.pending.remove(&key).expect("key from pending");
        self.abandoned.insert(key);
        self.stats.cmd_timeouts.inc();
        self.stats.cmd_resubmits.inc();
        if let Some(t) = self.tracer.get() {
            // The batch keeps its ordinal across the retry; the mark makes
            // the abandoned window visible in the dump.
            t.mark(p.trace, stages::RETRY_RESUBMIT);
        }
        match self.submit(unit, p.items, p.arrivals, p.trace) {
            Ok(done_batches) => {
                for done in done_batches {
                    if !self.on_completion(done) {
                        return false;
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Blocking wait for one completion, honouring the cmd timeout: each
    /// expiry runs the watchdog before waiting again.
    fn wait_completion(&mut self) -> WaitOutcome {
        match self.config.cmd_timeout {
            None => match self.channel.wait_one() {
                Some(done) => WaitOutcome::Got(done),
                None => WaitOutcome::EngineGone,
            },
            Some(timeout) => loop {
                match self.channel.wait_one_timeout(timeout) {
                    Ok(Some(done)) => return WaitOutcome::Got(done),
                    Ok(None) => {
                        if !self.check_timeouts(timeout) {
                            return WaitOutcome::QueueDown;
                        }
                        if self.channel.in_flight() == 0 {
                            return WaitOutcome::Idle;
                        }
                    }
                    Err(_) => return WaitOutcome::EngineGone,
                }
            },
        }
    }
}

enum WaitOutcome {
    Got(CompletedBatch),
    /// Nothing in flight anymore (everything timed out and was resubmitted
    /// or drained while waiting).
    Idle,
    EngineGone,
    QueueDown,
}

#[allow(clippy::too_many_arguments)]
fn run_reader(
    collector: Arc<DataCollector>,
    pool: MemManager,
    channel: FpgaChannel,
    config: ReaderConfig,
    router: Arc<SlotRouter>,
    stats: Arc<ReaderStats>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    cache_cell: Arc<OnceLock<Arc<SampleCache>>>,
    tracer_cell: Arc<OnceLock<Arc<Tracer>>>,
) -> FpgaChannel {
    let mut core = ReaderCore {
        pool: &pool,
        channel: &channel,
        config: &config,
        router: &router,
        stats: &stats,
        cache: &cache_cell,
        tracer: &tracer_cell,
        next_cmd_id: 0,
        pending: HashMap::new(),
        abandoned: HashSet::new(),
    };
    // Batches delivered straight from cache. They never touch
    // `batches_submitted`/`batches_completed` (those count decode-path
    // conservation: submitted == completed + errors), but they do count
    // toward `max_batches` so a bounded reader still stops on time.
    let mut bypassed: u64 = 0;

    'main: while !stop.load(Ordering::SeqCst) {
        if let Some(max) = config.max_batches {
            if stats.batches_submitted.get() + bypassed >= max {
                break;
            }
        }
        // Fetch the next batch worth of metadata.
        let metas = match collector.next_metas(config.batch_size) {
            Some(m) => m,
            None => break, // stream closed and drained
        };
        if metas.is_empty() {
            // Stream idle: sleep until the event that ends it. With cmds
            // in flight that is a completion to forward (or a cmd going
            // overdue); with none, only a push, a close or shutdown can
            // give this loop anything to do, and each signals the
            // collector.
            if channel.in_flight() == 0 {
                collector.wait_stream(|| stop.load(Ordering::SeqCst));
                continue;
            }
            match channel.wait_one_timeout(BUSY_RECHECK) {
                Ok(Some(done)) => {
                    if !core.on_completion(done) {
                        break 'main;
                    }
                }
                Ok(None) => {
                    if let Some(timeout) = config.cmd_timeout {
                        if !core.check_timeouts(timeout) {
                            break 'main;
                        }
                    }
                }
                Err(_) => break 'main, // engine gone
            }
            continue;
        }

        // Lease a holder; while none is free, drain completions (Alg. 1
        // lines 5–9) — this is both back-pressure and forward progress.
        let lease_t0 = tracer_cell.get().map(|_| Instant::now());
        let mut unit = loop {
            match pool.try_get_item() {
                Some(u) => break u,
                // With work in flight, a completion will free pipeline
                // capacity soon: wait for it and forward it. With nothing
                // in flight the only way a unit comes back is a consumer
                // recycle, so block on the pool itself.
                None if channel.in_flight() > 0 => match core.wait_completion() {
                    WaitOutcome::Got(done) => {
                        if !core.on_completion(done) {
                            break 'main;
                        }
                    }
                    WaitOutcome::Idle => {}
                    WaitOutcome::EngineGone | WaitOutcome::QueueDown => break 'main,
                },
                None => match pool.get_item() {
                    Ok(u) => break u,
                    Err(_) => break 'main, // pool closed (shutdown)
                },
            }
        };

        let arrivals: Vec<u64> = metas.iter().map(|m| m.arrival_nanos.unwrap_or(0)).collect();

        // Trace identity is born here: one ordinal per batch attempt,
        // carried through decode (or bypass), retries, and delivery.
        let trace_id = match tracer_cell.get() {
            Some(t) => {
                let id = t.next_batch_id();
                if let Some(t0) = lease_t0 {
                    t.span(id, stages::POOL_LEASE, SpanKind::Queue, t0, Instant::now());
                }
                id
            }
            None => 0,
        };

        // Batch-granular cache bypass: a fully resident batch skips the
        // device entirely. Looked up *after* the lease: completions
        // drained while waiting may have just inserted this batch.
        let t0 = Instant::now();
        let bypass = cache_cell
            .get()
            .is_some_and(|c| fill_from_cache(c, &metas, config.augmentor.as_ref(), &mut unit));
        if bypass {
            bypassed += 1;
            stats.cpu_busy_nanos.add(t0.elapsed().as_nanos() as u64);
            if let Some(t) = tracer_cell.get() {
                t.span(
                    trace_id,
                    stages::CACHE_BYPASS,
                    SpanKind::Service,
                    t0,
                    Instant::now(),
                );
            }
            // Batches still decoding were dispensed first: deliver them
            // before this one, so the engines see collector order whether
            // a batch was decoded or resident.
            if !core.flush() {
                let _ = pool.recycle_item(unit);
                break 'main;
            }
            if !router.deliver(unit, arrivals, trace_id) {
                break 'main;
            }
            continue;
        }

        // Cmd generation (Alg. 1 lines 11–12) and async submit.
        let items: Vec<(DataRef, u64, u64)> =
            metas.iter().map(|m| (m.src, m.label, m.epoch)).collect();
        stats.batches_submitted.inc();
        stats.inflight.inc();
        match core.submit(unit, items, arrivals, trace_id) {
            Ok(done_batches) => {
                for done in done_batches {
                    if !core.on_completion(done) {
                        break 'main;
                    }
                }
            }
            Err(_) => break,
        }
    }

    // Drain everything still in flight, then close (Alg. 1 lines 16–19).
    // Once the router is closed nobody will take the batches: their units
    // are recycled untouched (no cache admission or poisoning of a decode
    // a failover cut short), and they count as lost below.
    while channel.in_flight() > 0 {
        match core.wait_completion() {
            WaitOutcome::Got(done) if router.is_closed() => {
                let _ = pool.recycle_item(done.unit);
            }
            WaitOutcome::Got(done) => {
                core.on_completion(done);
            }
            WaitOutcome::Idle => {}
            WaitOutcome::EngineGone | WaitOutcome::QueueDown => break,
        }
    }
    // Whatever was submitted but never made it back is a batch error — this
    // keeps the submitted == completed + errors conservation law exact.
    let lost = stats
        .batches_submitted
        .get()
        .saturating_sub(stats.batches_completed.get());
    stats.batch_errors.add(lost);
    stats.inflight.set(0);
    router.close();
    channel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::CombinedResolver;
    use dlb_fpga::{DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice};
    use dlb_membridge::PoolConfig;
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};

    /// A one-slot router over `pool`, deep enough to take every batch a
    /// test produces without blocking the reader.
    fn router(pool: &MemManager) -> Arc<SlotRouter> {
        Arc::new(SlotRouter::new(pool.clone(), 1, 64, None, Arc::default()))
    }

    fn pipeline(
        n_images: usize,
        batch: usize,
        max_batches: Option<u64>,
    ) -> (FpgaReader, Arc<SlotRouter>, MemManager) {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(n_images, 21), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 3));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine =
            DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
        let channel = FpgaChannel::init(engine, 0);
        let pool = MemManager::new(PoolConfig {
            unit_size: 2 << 20,
            unit_count: 4,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let router = router(&pool);
        let reader = FpgaReader::start(
            collector,
            pool.clone(),
            channel,
            Arc::clone(&router),
            ReaderConfig {
                batch_size: batch,
                target_w: 64,
                target_h: 64,
                format: OutputFormat::Rgb8,
                max_batches,
                cmd_timeout: None,
                augmentor: None,
            },
        );
        (reader, router, pool)
    }

    #[test]
    fn closing_the_router_returns_every_unit_to_the_pool() {
        // What quiesce does: close the reader's output mid-epoch with
        // batches queued and in flight. None of their units may leave
        // circulation — a failover's residue recycles into this pool.
        for _ in 0..8 {
            let (reader, router, pool) = pipeline(64, 4, None);
            let first = router.queue(0).pop().unwrap();
            pool.recycle_item(first.unit).unwrap();
            router.retire();
            drop(reader.stop());
            assert_eq!(pool.free_count(), pool.unit_count());
        }
    }

    #[test]
    fn produces_decoded_batches_with_backpressure() {
        let (reader, router, pool) = pipeline(16, 4, Some(6));
        let mut seen = 0u64;
        let mut sequences = Vec::new();
        while let Ok(batch) = router.queue(0).pop() {
            assert_eq!(batch.len(), 4);
            sequences.push(batch.sequence);
            // Every item is a 64×64 RGB region.
            for item in batch.unit.items() {
                assert_eq!(item.len, 64 * 64 * 3);
            }
            seen += 1;
            pool.recycle_item(batch.unit).unwrap();
        }
        assert_eq!(seen, 6);
        assert_eq!(sequences, vec![0, 1, 2, 3, 4, 5]);
        let channel = reader.stop();
        assert_eq!(channel.in_flight(), 0);
        assert_eq!(pool.free_count(), 4, "all units recycled");
    }

    #[test]
    fn epoch_wrapping_keeps_feeding() {
        // 8 images, batch 4, 5 batches ⇒ wraps into the second epoch.
        let (reader, router, pool) = pipeline(8, 4, Some(5));
        let mut seen = 0;
        while let Ok(batch) = router.queue(0).pop() {
            seen += 1;
            pool.recycle_item(batch.unit).unwrap();
        }
        assert_eq!(seen, 5);
        drop(reader);
    }

    #[test]
    fn sample_cache_bypass_replays_later_epochs_without_decode() {
        // 8 images, batch 4 ⇒ 2 batches/epoch; 6 batches = 3 epochs. A
        // single pool unit serialises the reader behind the consumer, so
        // every epoch-1 completion lands in the cache before any epoch-2
        // lookup fires.
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(8, 21), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 3));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine =
            DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
        let channel = FpgaChannel::init(engine, 0);
        let pool = MemManager::new(PoolConfig {
            unit_size: 2 << 20,
            unit_count: 1,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let router = router(&pool);
        let reader = FpgaReader::start(
            collector,
            pool.clone(),
            channel,
            Arc::clone(&router),
            ReaderConfig {
                batch_size: 4,
                target_w: 64,
                target_h: 64,
                format: OutputFormat::Rgb8,
                max_batches: Some(6),
                cmd_timeout: None,
                augmentor: None,
            },
        );
        let cache = SampleCache::new(64 << 20);
        reader.attach_sample_cache(Arc::clone(&cache));
        // Pixel bytes per label, recorded on first sight: a cache hit must
        // reproduce the decode bit-for-bit even though the collector
        // reshuffles every epoch (sample keys are order-independent).
        let mut by_label: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        let mut delivered = 0;
        while let Ok(batch) = router.queue(0).pop() {
            assert_eq!(batch.len(), 4);
            for (i, item) in batch.unit.items().iter().enumerate() {
                let pixels = batch.unit.item_bytes(i).to_vec();
                match by_label.entry(item.label) {
                    std::collections::hash_map::Entry::Occupied(prev) => {
                        assert_eq!(prev.get(), &pixels, "label {} diverged", item.label);
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(pixels);
                    }
                }
            }
            delivered += 1;
            pool.recycle_item(batch.unit).unwrap();
        }
        assert_eq!(delivered, 6);
        // Decode-path + bypass-path batches account for every delivery.
        let submitted = reader.stats().batches_submitted.get();
        assert_eq!(submitted + cache.bypass_batches(), 6);
        assert!(
            cache.bypass_batches() >= 2,
            "epochs 2-3 must come from cache, bypassed = {}",
            cache.bypass_batches()
        );
        let channel = reader.stop();
        assert_eq!(channel.in_flight(), 0);
        assert_eq!(pool.free_count(), 1);
    }

    /// A stream-mode reader over a NIC holding `n` deposited JPEGs (their
    /// descriptors are returned, not yet pushed to the collector).
    fn stream_pipeline(
        n: u64,
    ) -> (
        FpgaReader,
        Arc<SlotRouter>,
        MemManager,
        Arc<DataCollector>,
        Vec<dlb_net::RxDescriptor>,
    ) {
        use dlb_codec::synth::{generate, SynthStyle};
        use dlb_net::{Frame, NicRx, NicSpec};
        let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x9000_0000));
        let descs = (0..n)
            .map(|id| {
                let img = generate(40, 30, SynthStyle::Photo, id);
                let payload = dlb_codec::JpegEncoder::new(85)
                    .unwrap()
                    .encode(&img)
                    .unwrap();
                let wire = Frame {
                    request_id: id,
                    client_id: 0,
                    send_ts_nanos: 0,
                    payload,
                }
                .encode();
                nic.deliver(&wire, id).unwrap();
                nic.poll().unwrap()
            })
            .collect();
        let collector = Arc::new(DataCollector::load_from_net());
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine = DecoderEngine::start(dev, Arc::new(CombinedResolver::nic_only(nic))).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 1 << 20,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let router = router(&pool);
        let reader = FpgaReader::start(
            Arc::clone(&collector),
            pool.clone(),
            FpgaChannel::init(engine, 0),
            Arc::clone(&router),
            ReaderConfig {
                batch_size: 4,
                target_w: 16,
                target_h: 16,
                format: OutputFormat::Rgb8,
                max_batches: None,
                cmd_timeout: None,
                augmentor: None,
            },
        );
        (reader, router, pool, collector, descs)
    }

    #[test]
    fn idle_stream_reader_delivers_a_meta_pushed_after_a_quiet_period() {
        let (reader, router, pool, collector, descs) = stream_pipeline(2);
        for d in &descs {
            // Long enough for the daemon to park on the empty stream (the
            // second time with nothing in flight either); the outcome does
            // not depend on it having done so.
            std::thread::sleep(Duration::from_millis(30));
            collector.push_from_net(d);
            let batch = router
                .queue(0)
                .pop_timeout(Duration::from_secs(10))
                .expect("reader alive")
                .expect("the push woke the reader");
            assert_eq!(batch.len(), 1);
            assert_eq!(batch.unit.items()[0].label, d.request_id);
            pool.recycle_item(batch.unit).unwrap();
        }
        collector.close_stream();
        assert!(router.queue(0).pop().is_err(), "closed and drained");
        drop(reader.stop());
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn shutdown_of_a_reader_parked_on_an_idle_stream_returns_promptly() {
        let (reader, _router, pool, _collector, _) = stream_pipeline(0);
        std::thread::sleep(Duration::from_millis(30)); // let it park
        let (tx, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            let t0 = Instant::now();
            drop(reader.stop());
            tx.send(t0.elapsed()).unwrap();
        });
        let took = stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("stop() wakes a reader blocked on the collector");
        stopper.join().unwrap();
        assert!(took < Duration::from_millis(100), "stop took {took:?}");
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn cmd_timeout_resubmits_wedged_batches_without_loss_or_duplication() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let telemetry = Telemetry::with_defaults();
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine = DecoderEngine::start_with_telemetry(
            dev,
            Arc::new(CombinedResolver::disk_only(disk)),
            &telemetry,
        )
        .unwrap();
        // Delay-flavoured FPGA faults wedge individual lanes well past the
        // reader's deadline; resubmissions draw fresh cmd ids and recover.
        let mut plan = FaultPlan::disabled();
        plan.seed = 1;
        plan.fpga = StageSpec::rate(0.35).with_delay(Duration::from_millis(300));
        engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let pool = MemManager::new(PoolConfig {
            unit_size: 2 << 20,
            unit_count: 4,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let router = router(&pool);
        let reader = FpgaReader::start_with_telemetry(
            collector,
            pool.clone(),
            channel,
            Arc::clone(&router),
            ReaderConfig {
                batch_size: 2,
                target_w: 32,
                target_h: 32,
                format: OutputFormat::Rgb8,
                max_batches: Some(8),
                cmd_timeout: Some(Duration::from_millis(40)),
                augmentor: None,
            },
            &telemetry,
        );
        let mut sequences = Vec::new();
        while let Ok(batch) = router.queue(0).pop() {
            assert_eq!(batch.len(), 2);
            sequences.push(batch.sequence);
            pool.recycle_item(batch.unit).unwrap();
        }
        // Every submitted batch arrived exactly once, in sequence order.
        assert_eq!(sequences, (0..8).collect::<Vec<u64>>());
        let resubmits = reader.stats().cmd_resubmits.get();
        let timeouts = reader.stats().cmd_timeouts.get();
        assert!(
            timeouts > 0,
            "300ms stalls vs a 40ms deadline must time out"
        );
        assert_eq!(resubmits, timeouts);
        let channel = reader.stop();
        assert_eq!(channel.in_flight(), 0);
        assert_eq!(
            pool.free_count(),
            4,
            "late completions recycled, not leaked"
        );
        // Conservation: submitted == completed (no errors, no duplicates).
        let snap = telemetry.pipeline_snapshot();
        assert_eq!(snap.invariant_violations(), Vec::<String>::new());
    }

    #[test]
    fn config_validation_panics_on_oversized_batch() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
            let ds = Dataset::build(DatasetSpec::mnist_like(4, 1), &disk).unwrap();
            let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
            let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
            dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
            let engine =
                DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
            let pool = MemManager::new(PoolConfig {
                unit_size: 1024, // far too small for 256 × 224×224×3
                unit_count: 1,
                phys_base: 0,
            })
            .unwrap();
            FpgaReader::start(
                collector,
                pool.clone(),
                FpgaChannel::init(engine, 0),
                router(&pool),
                ReaderConfig {
                    batch_size: 256,
                    target_w: 224,
                    target_h: 224,
                    format: OutputFormat::Rgb8,
                    max_batches: Some(1),
                    cmd_timeout: None,
                    augmentor: None,
                },
            )
        }));
        assert!(result.is_err());
    }
}
