//! Blocking MPMC queues with close semantics.
//!
//! These implement the `Free_Batch_Queue` / `Full_Batch_Queue` behaviour of
//! Algorithms 1–3: producers block when a bounded queue is full ("FPGAReader
//! ... will be blocked until a new memory unit is available"), consumers
//! block when it is empty ("full_batch_queue.blocking_wait()"), and a close
//! signal lets every pipeline daemon drain and exit cleanly at shutdown.

use dlb_telemetry::{names, Counter, Gauge, Heartbeat, Telemetry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Error returned when an operation cannot complete because the queue was
/// closed (pipeline shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue closed")
    }
}

impl std::error::Error for QueueClosed {}

/// Telemetry handles attached to one queue by [`BlockingQueue::instrument`]:
/// `queue.<name>.{depth,pushed,popped,blocked_push_nanos,blocked_pop_nanos}`
/// plus a watchdog heartbeat tied to the depth gauge.
#[derive(Debug, Clone)]
pub(crate) struct QueueHooks {
    depth: Arc<Gauge>,
    pushed: Arc<Counter>,
    popped: Arc<Counter>,
    blocked_push_nanos: Arc<Counter>,
    blocked_pop_nanos: Arc<Counter>,
    heartbeat: Arc<Heartbeat>,
}

impl QueueHooks {
    /// Registers the per-queue metric set under `queue.<name>.*` and a
    /// watchdog entry keyed by the queue name.
    pub(crate) fn register(telemetry: &Telemetry, name: &str) -> Self {
        use names::queue::*;
        let key = |field: &str| names::member_key(PREFIX, name, field);
        let depth = telemetry.registry.gauge(&key(DEPTH));
        Self {
            pushed: telemetry.registry.counter(&key(PUSHED)),
            popped: telemetry.registry.counter(&key(POPPED)),
            blocked_push_nanos: telemetry.registry.counter(&key(BLOCKED_PUSH_NANOS)),
            blocked_pop_nanos: telemetry.registry.counter(&key(BLOCKED_POP_NANOS)),
            heartbeat: telemetry.watchdog.watch_queue(name, Arc::clone(&depth)),
            depth,
        }
    }
}

struct Inner<T> {
    queue: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    hooks: OnceLock<QueueHooks>,
}

impl<T> Inner<T> {
    /// Records one push while the state lock is held.
    fn note_push(&self, st: &State<T>) {
        if let Some(h) = self.hooks.get() {
            h.pushed.inc();
            h.depth.set(st.items.len() as i64);
            h.heartbeat.beat();
        }
    }

    /// Records `n` pops while the state lock is held.
    fn note_pop(&self, st: &State<T>, n: u64) {
        if let Some(h) = self.hooks.get() {
            h.popped.add(n);
            h.depth.set(st.items.len() as i64);
            h.heartbeat.beat();
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Total items ever pushed — conservation checks in tests.
    pushed: u64,
    /// Total items ever popped.
    popped: u64,
}

/// A blocking bounded (or unbounded) MPMC FIFO queue, cheaply cloneable.
pub struct BlockingQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for BlockingQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.queue.lock();
        f.debug_struct("BlockingQueue")
            .field("len", &st.items.len())
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T> Clone for BlockingQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> BlockingQueue<T> {
    /// A queue bounded at `capacity` items (`usize::MAX` ≈ unbounded).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        Self {
            inner: Arc::new(Inner {
                queue: Mutex::new(State {
                    items: VecDeque::new(),
                    closed: false,
                    pushed: 0,
                    popped: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
                hooks: OnceLock::new(),
            }),
        }
    }

    /// An unbounded queue.
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// Attaches telemetry: registers `queue.<name>.*` metrics on
    /// `telemetry` and starts watching this queue for stalls. The first
    /// call wins; later calls are ignored. Items already queued are
    /// credited to the pushed counter so conservation holds.
    pub fn instrument(&self, telemetry: &Telemetry, name: &str) {
        let hooks = QueueHooks::register(telemetry, name);
        let st = self.inner.queue.lock();
        if self.inner.hooks.set(hooks).is_ok() {
            let h = self.inner.hooks.get().expect("just set");
            h.pushed.add(st.items.len() as u64);
            h.depth.set(st.items.len() as i64);
        }
    }

    /// Pushes, blocking while the queue is full. Errors if closed.
    pub fn push(&self, item: T) -> Result<(), QueueClosed> {
        let mut st = self.inner.queue.lock();
        if st.items.len() >= self.inner.capacity && !st.closed {
            let blocked = Instant::now();
            while st.items.len() >= self.inner.capacity && !st.closed {
                self.inner.not_full.wait(&mut st);
            }
            if let Some(h) = self.inner.hooks.get() {
                h.blocked_push_nanos
                    .add(blocked.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
        }
        if st.closed {
            return Err(QueueClosed);
        }
        st.items.push_back(item);
        st.pushed += 1;
        self.inner.note_push(&st);
        drop(st);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Like [`BlockingQueue::push`], but hands the item back instead of
    /// dropping it when the queue is closed. Callers that own scarce
    /// resources inside the item (pool units) can recycle them rather
    /// than leak them at shutdown.
    pub fn push_or_return(&self, item: T) -> Result<(), T> {
        let mut st = self.inner.queue.lock();
        if st.items.len() >= self.inner.capacity && !st.closed {
            let blocked = Instant::now();
            while st.items.len() >= self.inner.capacity && !st.closed {
                self.inner.not_full.wait(&mut st);
            }
            if let Some(h) = self.inner.hooks.get() {
                h.blocked_push_nanos
                    .add(blocked.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            }
        }
        if st.closed {
            return Err(item);
        }
        st.items.push_back(item);
        st.pushed += 1;
        self.inner.note_push(&st);
        drop(st);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Pops, blocking while empty. Errors once the queue is closed *and*
    /// drained (items pushed before close are still delivered).
    pub fn pop(&self) -> Result<T, QueueClosed> {
        let mut st = self.inner.queue.lock();
        let mut blocked: Option<Instant> = None;
        loop {
            if let Some(item) = st.items.pop_front() {
                st.popped += 1;
                self.inner.note_pop(&st, 1);
                if let (Some(start), Some(h)) = (blocked, self.inner.hooks.get()) {
                    h.blocked_pop_nanos
                        .add(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }
                drop(st);
                self.inner.not_full.notify_one();
                return Ok(item);
            }
            if st.closed {
                return Err(QueueClosed);
            }
            blocked.get_or_insert_with(Instant::now);
            self.inner.not_empty.wait(&mut st);
        }
    }

    /// Non-blocking pop.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let mut st = self.inner.queue.lock();
        let item = st.items.pop_front();
        if item.is_some() {
            st.popped += 1;
            self.inner.note_pop(&st, 1);
            drop(st);
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Pops with a timeout; `Ok(None)` on timeout.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<T>, QueueClosed> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.queue.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                st.popped += 1;
                self.inner.note_pop(&st, 1);
                drop(st);
                self.inner.not_full.notify_one();
                return Ok(Some(item));
            }
            if st.closed {
                return Err(QueueClosed);
            }
            if self
                .inner
                .not_empty
                .wait_until(&mut st, deadline)
                .timed_out()
            {
                return Ok(match st.items.pop_front() {
                    Some(item) => {
                        st.popped += 1;
                        self.inner.note_pop(&st, 1);
                        Some(item)
                    }
                    None => None,
                });
            }
        }
    }

    /// Drains everything currently queued (the `drain_out` of Algorithm 1).
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.inner.queue.lock();
        let n = st.items.len();
        st.popped += n as u64;
        let items: Vec<T> = st.items.drain(..).collect();
        if n > 0 {
            self.inner.note_pop(&st, n as u64);
        }
        drop(st);
        for _ in 0..n {
            self.inner.not_full.notify_one();
        }
        items
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending and future pushes fail, pops drain whatever
    /// remains and then fail. Idempotent.
    pub fn close(&self) {
        let mut st = self.inner.queue.lock();
        st.closed = true;
        drop(st);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.inner.queue.lock().closed
    }

    /// (pushed, popped) lifetime counters — used by conservation tests.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> (u64, u64) {
        let st = self.inner.queue.lock();
        (st.pushed, st.popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = BlockingQueue::unbounded();
        for i in 0..10 {
            q.push(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap(), i);
        }
    }

    #[test]
    fn bounded_blocks_producer_until_consumed() {
        let q = BlockingQueue::bounded(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.push(3));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2, "producer must be blocked");
        assert_eq!(q.pop().unwrap(), 1);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.pop().unwrap(), 3);
    }

    #[test]
    fn consumer_blocks_until_produced() {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), 42);
    }

    #[test]
    fn close_drains_then_errors() {
        let q = BlockingQueue::unbounded();
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.push(3).is_err());
        assert_eq!(q.pop().unwrap(), 1);
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.pop(), Err(QueueClosed));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || q.pop())
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), Err(QueueClosed));
        }
    }

    #[test]
    fn close_wakes_blocked_producers() {
        let q = BlockingQueue::bounded(1);
        q.push(0u32).unwrap();
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.push(1));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(QueueClosed));
    }

    #[test]
    fn pop_timeout_returns_none_then_value() {
        let q: BlockingQueue<u32> = BlockingQueue::unbounded();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)).unwrap(), None);
        q.push(5).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)).unwrap(), Some(5));
    }

    #[test]
    fn drain_empties_queue() {
        let q = BlockingQueue::unbounded();
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        let (pushed, popped) = q.counters();
        assert_eq!(pushed, 5);
        assert_eq!(popped, 5);
    }

    #[test]
    fn mpmc_conservation_under_contention() {
        let q = BlockingQueue::bounded(8);
        let n_producers = 4;
        let per_producer = 500u64;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let q = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..per_producer {
                    q.push(p * per_producer + i).unwrap();
                }
            }));
        }
        let total = n_producers * per_producer;
        let consumed = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            let consumed = consumed.clone();
            consumers.push(thread::spawn(move || {
                let mut sum = 0u64;
                while let Ok(v) = q.pop() {
                    sum = sum.wrapping_add(v);
                    consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                sum
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Wait for drain, then close to release consumers.
        while consumed.load(std::sync::atomic::Ordering::Relaxed) < total {
            thread::yield_now();
        }
        q.close();
        let mut grand = 0u64;
        for c in consumers {
            grand = grand.wrapping_add(c.join().unwrap());
        }
        let expect: u64 = (0..total).sum();
        assert_eq!(grand, expect);
        let (pushed, popped) = q.counters();
        assert_eq!(pushed, total);
        assert_eq!(popped, total);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = BlockingQueue::<u8>::bounded(0);
    }

    #[test]
    fn instrumented_queue_reports_depth_and_conservation() {
        let t = dlb_telemetry::Telemetry::with_defaults();
        let q = BlockingQueue::bounded(4);
        // One item queued before instrumentation: must be credited so the
        // pushed == popped + depth invariant holds from the start.
        q.push(1u32).unwrap();
        q.instrument(&t, "unit");
        q.push(2).unwrap();
        assert_eq!(q.pop().unwrap(), 1);
        let snap = t.pipeline_snapshot();
        let qm = snap.queues.iter().find(|m| m.name == "unit").unwrap();
        assert_eq!(qm.pushed, 2);
        assert_eq!(qm.popped, 1);
        assert_eq!(qm.depth, 1);
        assert_eq!(qm.high_water, 2);
        assert!(snap.invariant_violations().is_empty());
    }

    #[test]
    fn instrumented_queue_accounts_blocked_time() {
        let t = dlb_telemetry::Telemetry::with_defaults();
        let q: BlockingQueue<u32> = BlockingQueue::bounded(1);
        q.instrument(&t, "blocked");
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        assert_eq!(consumer.join().unwrap(), 9);
        let snap = t.pipeline_snapshot();
        let qm = snap.queues.iter().find(|m| m.name == "blocked").unwrap();
        assert!(
            qm.blocked_pop_nanos >= 10_000_000,
            "blocked {} ns",
            qm.blocked_pop_nanos
        );
    }
}
