//! Lock-free metric primitives: [`Counter`], [`Gauge`], and fixed-bucket
//! [`Histogram`], each with a cheap mergeable snapshot.
//!
//! Recording is wait-free (relaxed atomics on the hot path); snapshots are
//! point-in-time copies that merge associatively, so per-thread or
//! per-stage snapshots can be folded in any grouping and produce the same
//! totals — the property the snapshot-merge tests pin down.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, inflight ops) with a
/// high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
            high_water: AtomicI64::new(0),
        }
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(new, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    pub(crate) fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket upper bounds: exponential (×4) from 1 µs to
/// ~68 s, in nanoseconds. 14 buckets + overflow.
pub(crate) fn default_latency_bounds() -> Vec<u64> {
    let mut bounds = Vec::with_capacity(14);
    let mut b = 1_000u64; // 1 µs
    for _ in 0..14 {
        bounds.push(b);
        b = b.saturating_mul(4);
    }
    bounds
}

/// Fixed-bucket histogram with lock-free recording.
///
/// `bounds` are inclusive upper bounds per bucket; one implicit overflow
/// bucket catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Histogram over the given inclusive upper bounds (must be strictly
    /// ascending and non-empty).
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Histogram with the default latency bucket layout.
    pub fn latency() -> Self {
        Self::new(default_latency_bounds())
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Mergeable copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (buckets has one extra overflow slot).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `bounds`.
    pub fn empty(bounds: Vec<u64>) -> Self {
        let buckets = vec![0; bounds.len() + 1];
        Self {
            bounds,
            buckets,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Folds `other` into `self`. Panics when bucket layouts differ —
    /// merging is only defined across snapshots of the same shape.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram layouts differ");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-th observation (`q` in [0, 1]). Returns 0 when empty; the exact
    /// `max` for the overflow bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::new();
        g.add(3);
        g.add(2);
        g.dec();
        assert_eq!(g.get(), 4);
        assert_eq!(g.high_water(), 5);
        g.set(-2);
        assert_eq!(g.get(), -2);
        assert_eq!(g.high_water(), 5);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5000);
        assert_eq!(s.sum, 5126);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new(vec![10, 20, 30, 40]);
        // 10 values ≤10, 10 in (10,20], 10 in (20,30].
        for v in 1..=10 {
            h.record(v);
            h.record(10 + v);
            h.record(20 + v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 10);
        assert_eq!(s.quantile(0.33), 10);
        assert_eq!(s.quantile(0.5), 20);
        assert_eq!(s.quantile(0.99), 30);
        assert_eq!(s.quantile(1.0), 30);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new(vec![10, 100]);
        let b = Histogram::new(vec![10, 100]);
        a.record(5);
        b.record(50);
        b.record(500);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets, vec![1, 1, 1]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 500);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::latency().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
