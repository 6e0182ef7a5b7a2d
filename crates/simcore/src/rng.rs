//! Deterministic random numbers and the distributions the workload models
//! need (uniform, exponential inter-arrivals, lognormal image sizes).

/// A splitmix64-seeded xorshift128+ generator: tiny, fast, and fully
/// deterministic. Not cryptographic — simulation only.
#[derive(Debug, Clone)]
pub struct SimRng {
    s0: u64,
    s1: u64,
    /// Cached second normal variate from the Box–Muller pair.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seeds the generator; any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        Self {
            s0,
            s1,
            spare_normal: None,
        }
    }

    /// Derives an independent stream (for per-client / per-device RNGs).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64 bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Modulo bias is negligible for simulation bounds ≪ 2^64.
        self.next_u64() % bound
    }

    /// Exponential variate with the given mean (inter-arrival times of the
    /// paper's online inference clients).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller (cached pair).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let (u1, u2) = loop {
            let u1 = self.uniform();
            let u2 = self.uniform();
            if u1 > 0.0 {
                break (u1, u2);
            }
        };
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal variate parameterised by the *target* median and the shape
    /// sigma — models JPEG file-size spread around the paper's ≈100 KB mean.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0 && sigma >= 0.0);
        (median.ln() + sigma * self.standard_normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval_with_sane_mean() {
        let mut rng = SimRng::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::new(9);
        let n = 50_000;
        let mean_target = 2.5;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let mut rng = SimRng::new(13);
        let mut xs: Vec<f64> = (0..20_001).map(|_| rng.lognormal(100_000.0, 0.4)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!(
            (median / 100_000.0 - 1.0).abs() < 0.05,
            "median {median} vs 100000"
        );
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let mut root = SimRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let collisions = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn below_bound() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }
}
