//! Measurement instruments: busy-time accounting (→ "CPU cores" figures)
//! and latency histograms.

use crate::time::SimTime;

/// Accumulates busy intervals of a logical worker. Dividing the accumulated
/// busy time by elapsed time yields *core-equivalents* — exactly the "CPU
/// cost (# cores)" metric of the paper's Figures 2(b), 6 and 9.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimTime,
}

impl BusyTracker {
    /// New, empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval of the given length.
    pub fn add(&mut self, duration: SimTime) {
        self.busy += duration;
    }

    /// Busy time as a fraction of `elapsed` — i.e. core-equivalents.
    pub fn cores(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / elapsed.as_secs_f64()
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
    pub(crate) fn quantile(&mut self, q: f64) -> SimTime {
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
    #[cfg(test)]
    pub(crate) fn max(&mut self) -> SimTime {
        self.ensure_sorted();
        self.samples_ns
            .last()
            .map(|&v| SimTime::from_nanos(v))
            .unwrap_or(SimTime::ZERO)
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
}
