//! # dlb-trace — per-batch span tracing for the DLBooster pipeline
//!
//! A zero-external-dependency span/event plane. Each pipeline stage records
//! [`SpanRecord`]s keyed by a **batch ordinal** (allocated once by the
//! producing stage via [`Tracer::next_batch_id`] and carried alongside the
//! batch through every hand-off), so a whole run can later be folded into
//! per-batch latency attribution ([`analysis`]) or exported as a
//! Chrome/Perfetto `trace_event` JSON dump ([`perfetto`]).
//!
//! ## Design
//!
//! * **Per-thread bounded rings.** Every recording thread owns a private
//!   ring buffer (drop-oldest on overflow; drops are counted and exported
//!   via [`Tracer::dropped`]). The hot path is a thread-local lookup plus an
//!   uncontended mutex — no cross-thread contention, no allocation after the
//!   ring warms up.
//! * **Pay for what you use.** A [`Tracer`] is only consulted by stages when
//!   one has been installed; an uninstalled tracer costs exactly one branch
//!   per record site. Recording never perturbs pipeline control flow, RNG
//!   state, or batch payloads, so output is bitwise identical with tracing
//!   on or off.
//! * **Identity propagation.** Batch ordinals start at
//!   [`BATCH_ORDINAL_BASE`] so they can never collide with pipeline sequence
//!   numbers; duplicated work (cluster hedges, failover re-decodes) links the
//!   duplicate's ordinal to the winner's with [`Tracer::link`], letting the
//!   analyzer re-key duplicate spans onto the surviving copy.
//!
//! ## Quickstart
//!
//! ```
//! use dlb_trace::{SpanKind, Tracer};
//!
//! let tracer = Tracer::new();
//! let batch = tracer.next_batch_id();
//! let t0 = tracer.now();
//! // ... do the decode ...
//! tracer.span(batch, dlb_trace::stages::CPU_DECODE, SpanKind::Service, t0, tracer.now());
//! let snap = tracer.snapshot();
//! assert_eq!(snap.events.len(), 1);
//! let report = snap.critical_path();
//! assert_eq!(report.batches.len(), 1);
//! println!("{}", snap.to_perfetto());
//! ```

pub mod analysis;
pub mod perfetto;

pub use analysis::CriticalPathReport;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// First value handed out by [`Tracer::next_batch_id`].
///
/// Batch ordinals live in their own namespace far above any pipeline
/// sequence number, so a `trace` field of `0` (or any raw sequence) can
/// never be mistaken for a traced identity.
pub const BATCH_ORDINAL_BASE: u64 = 1 << 48;

/// Default per-thread ring capacity (spans per recording thread).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Canonical stage names used by the pipeline's record sites.
///
/// Keeping these in one place means the analyzer, the figures, and the tests
/// all agree on spelling; record sites must not invent ad-hoc strings.
pub mod stages {
    /// Reader/worker waiting to lease a `BatchUnit` from the memory pool.
    pub const POOL_LEASE: &str = "pool.lease";
    /// FPGA decode: command submit to last completion of the batch.
    pub const FPGA_DECODE: &str = "fpga.decode";
    /// CPU baseline JPEG decode of a batch.
    pub const CPU_DECODE: &str = "cpu.decode";
    /// CPU baseline fetch of encoded bytes from storage.
    pub const FETCH: &str = "storage.fetch";
    /// CPU baseline resize of decoded samples.
    pub const RESIZE: &str = "cpu.resize";
    /// Seeded augmentation pass over a decoded batch.
    pub const AUGMENT: &str = "augment";
    /// Whole batch served from the decoded-sample cache (decode bypassed).
    pub const CACHE_BYPASS: &str = "cache.bypass";
    /// Decoded batch waiting between delivery and consumer pick-up
    /// (slot queue residency).
    pub const QUEUE_DELIVER: &str = "queue.deliver";
    /// Dispatcher host-to-device copy of a batch.
    pub const DISPATCH_H2D: &str = "dispatch.h2d";
    /// Failover event: primary declared dead, fallback takes over.
    pub const FAILOVER: &str = "failover";
    /// Reader resubmitted a timed-out decode under fresh cmd ids (the
    /// batch keeps its ordinal across the retry).
    pub const RETRY_RESUBMIT: &str = "retry.resubmit";
    /// Cluster hedge duplicate completion (linked to the winning copy).
    pub const HEDGE_DUP: &str = "cluster.hedge_dup";
    /// Synthetic stage name used for [`super::SpanKind::Link`] records.
    pub(crate) const LINK: &str = "link";
}

/// What a recorded interval represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Time spent waiting (queue residency, lease waits, backpressure).
    Queue,
    /// Time spent doing work (decode, resize, augment, copies).
    Service,
    /// A zero-length point event.
    Mark,
    /// Identity link: `batch` is an alias of `link` (hedge dup → winner).
    Link,
}

impl SpanKind {
    /// Short lowercase label, used by exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Service => "service",
            SpanKind::Mark => "mark",
            SpanKind::Link => "link",
        }
    }
}

/// One recorded span or event.
///
/// Times are nanoseconds since the owning tracer's epoch (its creation
/// instant), so records from different threads share one clock.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Batch ordinal this span belongs to (see [`Tracer::next_batch_id`]);
    /// for [`SpanKind::Link`] this is the *duplicate* ordinal.
    pub batch: u64,
    /// Unique span id: `thread << 32 | per-thread sequence`.
    pub span: u64,
    /// Canonical stage name (see [`stages`]).
    pub stage: &'static str,
    /// Queue wait, service time, point event, or identity link.
    pub kind: SpanKind,
    /// Start, nanoseconds since tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since tracer epoch (`== start_ns` for marks).
    pub end_ns: u64,
    /// For [`SpanKind::Link`]: the ordinal this batch aliases. Otherwise 0.
    pub link: u64,
    /// Ordinal of the recording thread (assigned at first record).
    pub thread: u32,
}

struct RingState {
    buf: VecDeque<SpanRecord>,
    dropped: u64,
    next_span: u32,
}

struct Ring {
    thread: u32,
    state: Mutex<RingState>,
}

struct Inner {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_thread: AtomicU32,
    next_batch: AtomicU64,
}

thread_local! {
    /// Per-thread cache of (tracer identity → ring). Keyed by a `Weak` to the
    /// tracer's inner so a dead tracer's entry can never alias a new one
    /// allocated at the same address (the `Weak` upgrade fails first).
    static LOCAL_RINGS: RefCell<Vec<(Weak<Inner>, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder. Cheap to clone (an `Arc` internally); one tracer is
/// shared by every stage of a pipeline, typically via
/// `Telemetry::install_tracer`.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.inner.capacity)
            .field("threads", &self.inner.next_thread.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default per-thread ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A tracer whose per-thread rings hold at most `capacity` spans each;
    /// the oldest span is dropped (and counted) when a ring is full.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
                next_thread: AtomicU32::new(0),
                next_batch: AtomicU64::new(BATCH_ORDINAL_BASE),
            }),
        }
    }

    /// Allocate the next batch ordinal. Called once per batch by the stage
    /// that creates it; the ordinal then rides with the batch through every
    /// hand-off (e.g. `HostBatch::trace`).
    pub fn next_batch_id(&self) -> u64 {
        self.inner.next_batch.fetch_add(1, Ordering::Relaxed)
    }

    /// Current instant, for bracketing a span at its record site.
    pub fn now(&self) -> Instant {
        Instant::now()
    }

    /// Nanoseconds between the tracer's epoch and `t` (saturating at 0 for
    /// instants that precede the epoch).
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.inner.epoch).as_nanos() as u64
    }

    /// Record a `[start, end]` interval for `batch` at `stage`.
    pub fn span(
        &self,
        batch: u64,
        stage: &'static str,
        kind: SpanKind,
        start: Instant,
        end: Instant,
    ) {
        self.push(batch, stage, kind, self.ns_of(start), self.ns_of(end), 0);
    }

    /// Record an interval with pre-converted epoch-relative nanoseconds.
    #[cfg(test)]
    pub(crate) fn span_ns(
        &self,
        batch: u64,
        stage: &'static str,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.push(batch, stage, kind, start_ns, end_ns.max(start_ns), 0);
    }

    /// Record a zero-length point event for `batch` at `stage`.
    pub fn mark(&self, batch: u64, stage: &'static str) {
        let now = self.ns_of(Instant::now());
        self.push(batch, stage, SpanKind::Mark, now, now, 0);
    }

    /// Declare that ordinal `from` is a duplicate of ordinal `to` (e.g. a
    /// hedged copy that lost the race). The analyzer folds `from`'s spans
    /// into `to`'s attribution.
    pub fn link(&self, from: u64, to: u64) {
        let now = self.ns_of(Instant::now());
        self.push(from, stages::LINK, SpanKind::Link, now, now, to);
    }

    /// Total spans dropped so far across all per-thread rings.
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock().unwrap();
        rings.iter().map(|r| r.state.lock().unwrap().dropped).sum()
    }

    /// Copy out every retained span, sorted by start time then span id.
    pub fn snapshot(&self) -> TraceSnapshot {
        let rings = self.inner.rings.lock().unwrap();
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            let st = ring.state.lock().unwrap();
            dropped += st.dropped;
            events.extend(st.buf.iter().copied());
        }
        drop(rings);
        events.sort_by_key(|e| (e.start_ns, e.span));
        TraceSnapshot { events, dropped }
    }

    fn push(
        &self,
        batch: u64,
        stage: &'static str,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        link: u64,
    ) {
        let ring = self.ring();
        let mut st = ring.state.lock().unwrap();
        let span = (u64::from(ring.thread) << 32) | u64::from(st.next_span);
        st.next_span = st.next_span.wrapping_add(1);
        if st.buf.len() >= self.inner.capacity {
            st.buf.pop_front();
            st.dropped += 1;
        }
        st.buf.push_back(SpanRecord {
            batch,
            span,
            stage,
            kind,
            start_ns,
            end_ns,
            link,
            thread: ring.thread,
        });
    }

    fn ring(&self) -> Arc<Ring> {
        LOCAL_RINGS.with(|slot| {
            let mut cached = slot.borrow_mut();
            cached.retain(|(owner, _)| owner.strong_count() > 0);
            let me = Arc::as_ptr(&self.inner);
            if let Some((_, ring)) = cached.iter().find(|(owner, _)| owner.as_ptr() == me) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(Ring {
                thread: self.inner.next_thread.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(RingState {
                    buf: VecDeque::with_capacity(self.inner.capacity.min(1024)),
                    dropped: 0,
                    next_span: 0,
                }),
            });
            self.inner.rings.lock().unwrap().push(Arc::clone(&ring));
            cached.push((Arc::downgrade(&self.inner), Arc::clone(&ring)));
            ring
        })
    }
}

/// An immutable copy of every span a tracer retained, plus the drop count.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Spans sorted by `(start_ns, span)`.
    pub events: Vec<SpanRecord>,
    /// Spans lost to ring overflow before this snapshot was taken.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn batch_ordinals_are_namespaced_and_unique() {
        let t = Tracer::new();
        let a = t.next_batch_id();
        let b = t.next_batch_id();
        assert_eq!(a, BATCH_ORDINAL_BASE);
        assert_eq!(b, BATCH_ORDINAL_BASE + 1);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.span_ns(i, stages::CPU_DECODE, SpanKind::Service, i, i + 1);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        assert_eq!(t.dropped(), 6);
        // Oldest were dropped: surviving batches are 6..10.
        let batches: Vec<u64> = snap.events.iter().map(|e| e.batch).collect();
        assert_eq!(batches, vec![6, 7, 8, 9]);
    }

    #[test]
    fn threads_get_distinct_rings_and_span_ids() {
        let t = Tracer::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        t.span_ns(1, stages::AUGMENT, SpanKind::Service, i, i + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 400);
        assert_eq!(snap.dropped, 0);
        let mut ids: Vec<u64> = snap.events.iter().map(|e| e.span).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400, "span ids must be unique across threads");
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_mix() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.span_ns(1, stages::CPU_DECODE, SpanKind::Service, 0, 1);
        b.span_ns(2, stages::CPU_DECODE, SpanKind::Service, 0, 1);
        a.span_ns(3, stages::CPU_DECODE, SpanKind::Service, 1, 2);
        assert_eq!(a.snapshot().events.len(), 2);
        assert_eq!(b.snapshot().events.len(), 1);
    }

    #[test]
    fn dropped_tracer_does_not_alias_new_one() {
        let a = Tracer::new();
        a.span_ns(1, stages::CPU_DECODE, SpanKind::Service, 0, 1);
        drop(a);
        // Allocate fresh tracers until the TLS slot is exercised again; none
        // may inherit the dead tracer's ring.
        for _ in 0..8 {
            let b = Tracer::new();
            b.span_ns(9, stages::CPU_DECODE, SpanKind::Service, 0, 1);
            assert_eq!(b.snapshot().events.len(), 1);
        }
    }

    #[test]
    fn link_records_carry_target() {
        let t = Tracer::new();
        t.link(10, 20);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, SpanKind::Link);
        assert_eq!(snap.events[0].batch, 10);
        assert_eq!(snap.events[0].link, 20);
    }
}
