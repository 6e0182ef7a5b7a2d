//! The few order statistics the benchmark reports.

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let (j, delta) = ((i * (ld + 1)) / 4, (i * (ld + 1)) % 4);
        let j = j.clamp(1, ld - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Number of windows a measured section is cut into.
pub const WINDOWS: usize = 30;
/// A window holds at least this many pops; a short section has fewer windows.
const MIN_POPS_PER_WINDOW: usize = 8;
/// One window in this many is kept: the least disturbed fifth.
const KEEP_ONE_IN: usize = 5;

/// One batch the benchmark's consumer popped from the Trans Queue.
struct Pop {
    /// Seconds since the section began.
    at_s: f64,
    /// Process CPU time when it was popped, in milliseconds.
    cpu_ms: f64,
    /// Images it carried.
    images: u64,
    /// Those that count towards `images_per_s` (`serve_open`: the requests
    /// answered within the SLO; training: all of them).
    good: u64,
    /// Its latencies are `Record::latency_ms[previous pop's end..this]`.
    latencies_end: usize,
}

/// What a measured section recorded, pop by pop.
pub struct Record {
    /// Process CPU time when the section began.
    cpu0_ms: f64,
    pops: Vec<Pop>,
    /// Training: the engine's wait per batch over the round each batch
    /// ended. `serve_open`: due time → popped, for each request of each batch.
    pub latency_ms: Vec<f64>,
}

/// The time-based end-to-end metrics of a section, taken over its least
/// disturbed windows.
pub struct Steady {
    pub images_per_s: f64,
    pub cpu_ms_per_image: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Latencies behind the two percentiles.
    pub samples: usize,
    /// `images_per_s` of every window, in time order, and how many were kept.
    pub window_rates: Vec<f64>,
    pub kept: usize,
}

struct Window {
    pops: std::ops::Range<usize>,
    seconds: f64,
    cpu_ms: f64,
    images: u64,
    good: u64,
}

impl Record {
    pub fn begin(cpu0_ms: f64, expected_pops: usize, expected_latencies: usize) -> Self {
        Record {
            cpu0_ms,
            pops: Vec::with_capacity(expected_pops),
            latency_ms: Vec::with_capacity(expected_latencies),
        }
    }

    /// Books a pop whose latencies were pushed onto `latency_ms` just before.
    pub fn pop(&mut self, at_s: f64, cpu_ms: f64, images: u64, good: u64) {
        self.pops.push(Pop {
            at_s,
            cpu_ms,
            images,
            good,
            latencies_end: self.latency_ms.len(),
        });
    }

    pub fn pop_count(&self) -> usize {
        self.pops.len()
    }

    /// Good images per second over the whole section: what `serve_open`
    /// reports as `images_per_s`, because an open loop's rate is the offered
    /// one whatever the host does, and its cheapest windows are the ones in
    /// which more requests than usual arrived and shared a batch.
    pub fn whole_rate(&self) -> f64 {
        let good: u64 = self.pops.iter().map(|p| p.good).sum();
        self.pops.last().map_or(0.0, |last| good as f64 / last.at_s)
    }

    /// Up to [`WINDOWS`] windows of equal pop counts. Equal counts and not
    /// equal time: at 31 batches/s a half-second window would gain or lose
    /// 6 % with one batch.
    fn windows(&self) -> Vec<Window> {
        let n = self.pops.len();
        let count = WINDOWS.min(n / MIN_POPS_PER_WINDOW).max(1);
        (0..count)
            .filter(|_| n > 0)
            .map(|w| {
                let pops = w * n / count..(w + 1) * n / count;
                let (t0, c0) = match pops.start.checked_sub(1) {
                    Some(i) => (self.pops[i].at_s, self.pops[i].cpu_ms),
                    None => (0.0, self.cpu0_ms),
                };
                let last = &self.pops[pops.end - 1];
                Window {
                    seconds: last.at_s - t0,
                    cpu_ms: last.cpu_ms - c0,
                    images: self.pops[pops.clone()].iter().map(|p| p.images).sum(),
                    good: self.pops[pops.clone()].iter().map(|p| p.good).sum(),
                    pops,
                }
            })
            .collect()
    }

    /// The metrics over the fifth of the windows in which an image cost the
    /// least CPU time.
    ///
    /// The host this runs on is shared: a neighbour slows the memory system
    /// for seconds to minutes, the same instructions then take up to a third
    /// more CPU time, and nothing the guest can read says so. That noise only
    /// ever adds time, so the windows with the cheapest images are the ones
    /// the host disturbed least, and what they read is what the pipeline
    /// does when left alone. CPU time per image ranks the open loop, whose
    /// rate is the offered one, as well as the closed loops.
    pub fn steady(&self) -> Steady {
        let windows = self.windows();
        let rate = |w: &Window| w.good as f64 / w.seconds;
        let window_rates = windows.iter().map(rate).collect();
        let mut kept: Vec<&Window> = windows.iter().filter(|w| w.images > 0).collect();
        kept.sort_by(|a, b| (a.cpu_ms / a.images as f64).total_cmp(&(b.cpu_ms / b.images as f64)));
        kept.truncate(windows.len().div_ceil(KEEP_ONE_IN));
        let sum = |f: fn(&Window) -> f64| kept.iter().map(|w| f(w)).sum::<f64>();
        let latencies: Vec<f64> = kept
            .iter()
            .flat_map(|w| {
                let from = match w.pops.start.checked_sub(1) {
                    Some(i) => self.pops[i].latencies_end,
                    None => 0,
                };
                &self.latency_ms[from..self.pops[w.pops.end - 1].latencies_end]
            })
            .copied()
            .collect();
        let of = |q| {
            if latencies.is_empty() {
                0.0
            } else {
                quantile(&latencies, q)
            }
        };
        Steady {
            images_per_s: sum(|w| w.good as f64) / sum(|w| w.seconds).max(f64::MIN_POSITIVE),
            cpu_ms_per_image: sum(|w| w.cpu_ms) / sum(|w| w.images as f64).max(1.0),
            latency_p50_ms: of(0.5),
            latency_p90_ms: of(0.9),
            samples: latencies.len(),
            window_rates,
            kept: kept.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    /// 80 pops, one a second, 32 images each; CPU time per image is 1 ms
    /// except in the pops `slow` names, where it is 3 ms and the pop takes
    /// three seconds.
    fn record(slow: std::ops::Range<usize>) -> Record {
        let mut r = Record::begin(100.0, 80, 80);
        let (mut at, mut cpu) = (0.0, 100.0);
        for i in 0..80 {
            let k = if slow.contains(&i) { 3.0 } else { 1.0 };
            at += k;
            cpu += 32.0 * k;
            r.latency_ms.push(1e3 * k);
            r.pop(at, cpu, 32, 32);
        }
        r
    }

    #[test]
    fn steady_metrics_of_an_undisturbed_section() {
        let s = record(0..0).steady();
        assert_eq!(s.window_rates, vec![32.0; 10]);
        assert_eq!((s.kept, s.samples), (2, 16));
        assert_eq!(s.images_per_s, 32.0);
        assert_eq!(s.cpu_ms_per_image, 1.0);
        assert_eq!((s.latency_p50_ms, s.latency_p90_ms), (1e3, 1e3));
    }

    #[test]
    fn steady_metrics_leave_disturbed_windows_out() {
        // Eight of the ten windows are slow, the first among them.
        let s = record(0..64).steady();
        assert_eq!(s.window_rates[0], 32.0 / 3.0);
        assert_eq!(s.kept, 2);
        assert_eq!(s.images_per_s, 32.0);
        assert_eq!(s.cpu_ms_per_image, 1.0);
        assert_eq!((s.latency_p50_ms, s.latency_p90_ms), (1e3, 1e3));
        assert_eq!(
            record(0..64).whole_rate(),
            80.0 * 32.0 / (64.0 * 3.0 + 16.0)
        );
        // A section too short for two windows is one window, kept.
        let mut short = Record::begin(0.0, 3, 3);
        for i in 1..=3 {
            short.latency_ms.push(i as f64);
            short.pop(i as f64, 2.0 * i as f64, 1, 1);
        }
        let s = short.steady();
        assert_eq!((s.kept, s.samples, s.images_per_s), (1, 3, 1.0));
        assert_eq!(Record::begin(0.0, 0, 0).steady().images_per_s, 0.0);
    }
}
