//! Measurement instruments: busy-time accounting (→ "CPU cores" figures),
//! throughput meters, latency histograms, and time-weighted levels.

use crate::time::SimTime;

/// Accumulates busy intervals of a logical worker. Dividing the accumulated
/// busy time by elapsed time yields *core-equivalents* — exactly the "CPU
/// cost (# cores)" metric of the paper's Figures 2(b), 6 and 9.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimTime,
    intervals: u64,
}

impl BusyTracker {
    /// New, empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval of the given length.
    pub fn add(&mut self, duration: SimTime) {
        self.busy += duration;
        self.intervals += 1;
    }

    /// Number of recorded intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Busy time as a fraction of `elapsed` — i.e. core-equivalents.
    pub fn cores(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / elapsed.as_secs_f64()
    }
}

/// Counts discrete completions over a window → items/second.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    count: u64,
    first: Option<SimTime>,
    last: SimTime,
}

impl ThroughputMeter {
    /// New, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` completions at time `now`.
    pub fn record(&mut self, now: SimTime, n: u64) {
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.count += n;
        self.last = self.last.max(now);
    }

    /// Total completions.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Completions per second measured from simulation start to the last
    /// recorded completion.
    pub fn rate_from_origin(&self) -> f64 {
        if self.last == SimTime::ZERO {
            return 0.0;
        }
        self.count as f64 / self.last.as_secs_f64()
    }

    /// Completions per second over an explicit window.
    pub fn rate_over(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.count as f64 / elapsed.as_secs_f64()
    }
}

/// Latency distribution with exact storage (samples are few in these
/// experiments — one per inference request batch).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// New, empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        self.samples_ns.push(latency.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// True when no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> SimTime {
        if self.samples_ns.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u128 = self.samples_ns.iter().map(|&v| v as u128).sum();
        SimTime::from_nanos((sum / self.samples_ns.len() as u128) as u64)
    }

    /// Quantile in `[0, 1]` by nearest-rank.
    pub fn quantile(&mut self, q: f64) -> SimTime {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples_ns.is_empty() {
            return SimTime::ZERO;
        }
        self.ensure_sorted();
        let idx = ((q * (self.samples_ns.len() - 1) as f64).round() as usize)
            .min(self.samples_ns.len() - 1);
        SimTime::from_nanos(self.samples_ns[idx])
    }

    /// Median shortcut.
    pub fn median(&mut self) -> SimTime {
        self.quantile(0.5)
    }

    /// 99th percentile shortcut.
    pub fn p99(&mut self) -> SimTime {
        self.quantile(0.99)
    }

    /// Maximum sample.
    pub fn max(&mut self) -> SimTime {
        self.ensure_sorted();
        self.samples_ns
            .last()
            .map(|&v| SimTime::from_nanos(v))
            .unwrap_or(SimTime::ZERO)
    }
}

/// Tracks the time-average of an integer level (queue depth, pool occupancy).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    level: i64,
    last_change: SimTime,
    weighted_sum: f64, // level · seconds
    peak: i64,
}

impl TimeWeighted {
    /// Starts tracking at `initial` level from time zero.
    pub fn new(initial: i64) -> Self {
        Self {
            level: initial,
            last_change: SimTime::ZERO,
            weighted_sum: 0.0,
            peak: initial,
        }
    }

    /// Sets the level at time `now`.
    pub fn set(&mut self, now: SimTime, level: i64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.weighted_sum += self.level as f64 * now.since(self.last_change).as_secs_f64();
        self.level = level;
        self.last_change = now;
        self.peak = self.peak.max(level);
    }

    /// Adjusts the level by `delta` at time `now`.
    pub fn adjust(&mut self, now: SimTime, delta: i64) {
        let lvl = self.level + delta;
        self.set(now, lvl);
    }

    /// Current level.
    pub fn level(&self) -> i64 {
        self.level
    }

    /// Highest level seen.
    pub fn peak(&self) -> i64 {
        self.peak
    }

    /// Time-average of the level from time zero to `now`.
    pub fn average(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return self.level as f64;
        }
        let tail = self.level as f64 * now.since(self.last_change).as_secs_f64();
        (self.weighted_sum + tail) / now.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_core_equivalents() {
        let mut bt = BusyTracker::new();
        bt.add(SimTime::from_millis(250));
        bt.add(SimTime::from_millis(250));
        // 0.5s busy over 1s elapsed = 0.5 cores.
        assert!((bt.cores(SimTime::from_secs(1)) - 0.5).abs() < 1e-12);
        assert_eq!(bt.intervals(), 2);
        assert_eq!(bt.cores(SimTime::ZERO), 0.0);
    }

    #[test]
    fn busy_tracker_can_exceed_one_core() {
        // 12 workers busy the whole time = 12 cores (paper Fig. 6 CPU-based).
        let mut bt = BusyTracker::new();
        for _ in 0..12 {
            bt.add(SimTime::from_secs(10));
        }
        assert!((bt.cores(SimTime::from_secs(10)) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_meter_rates() {
        let mut tm = ThroughputMeter::new();
        tm.record(SimTime::from_secs(1), 100);
        tm.record(SimTime::from_secs(2), 300);
        assert_eq!(tm.count(), 400);
        assert!((tm.rate_from_origin() - 200.0).abs() < 1e-9);
        assert!((tm.rate_over(SimTime::from_secs(4)) - 100.0).abs() < 1e-9);
        assert_eq!(ThroughputMeter::new().rate_from_origin(), 0.0);
    }

    #[test]
    fn latency_quantiles() {
        let mut ls = LatencyStats::new();
        for ms in 1..=100u64 {
            ls.record(SimTime::from_millis(ms));
        }
        assert_eq!(ls.len(), 100);
        // Nearest-rank on an even count lands on the upper of the two
        // middle samples: index round(0.5·99) = 50 → the 51 ms sample.
        assert_eq!(ls.median(), SimTime::from_millis(51));
        assert_eq!(ls.p99(), SimTime::from_millis(99));
        assert_eq!(ls.quantile(0.0), SimTime::from_millis(1));
        assert_eq!(ls.quantile(1.0), SimTime::from_millis(100));
        assert_eq!(ls.max(), SimTime::from_millis(100));
        assert_eq!(ls.mean(), SimTime::from_micros(50_500));
    }

    #[test]
    fn latency_empty_is_zero() {
        let mut ls = LatencyStats::new();
        assert!(ls.is_empty());
        assert_eq!(ls.median(), SimTime::ZERO);
        assert_eq!(ls.mean(), SimTime::ZERO);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0);
        tw.set(SimTime::from_secs(1), 10); // level 0 for 1s
        tw.set(SimTime::from_secs(3), 0); // level 10 for 2s
                                          // Average over 4s: (0·1 + 10·2 + 0·1) / 4 = 5.
        assert!((tw.average(SimTime::from_secs(4)) - 5.0).abs() < 1e-9);
        assert_eq!(tw.peak(), 10);
        assert_eq!(tw.level(), 0);
    }

    #[test]
    fn time_weighted_adjust() {
        let mut tw = TimeWeighted::new(5);
        tw.adjust(SimTime::from_secs(1), 3);
        assert_eq!(tw.level(), 8);
        tw.adjust(SimTime::from_secs(2), -8);
        assert_eq!(tw.level(), 0);
        assert_eq!(tw.peak(), 8);
    }
}
