//! Seed derivation for replayable augmentation.
//!
//! The scheme follows the chaos plane's determinism rules: every random
//! decision is a pure function of a run seed and a *stable operation
//! identity*, never of scheduling. For augmentation the identity is the
//! pair `(epoch, sample identity)`, where the sample identity hashes the
//! source location (disk offset + length). Consequences:
//!
//! * the same run seed replays every epoch's augmentations bitwise;
//! * worker count, batch composition and delivery order are irrelevant —
//!   a sample draws the same crop/flip no matter which thread decodes it;
//! * a chaos-injected retry (FPGA cmd resubmission, failover re-decode)
//!   re-derives the same seed and therefore the same augmentation;
//! * different epochs fold a different epoch ordinal in, so draws differ.

/// The splitmix64 increment (golden-ratio constant).
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer — the same diffusion function the chaos plane and
/// the collector's epoch shuffle use.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-sample augmentation seed: a chained splitmix64 hash of
/// `(run_seed, epoch, identity)`, each component fully diffused before the
/// next is folded in so that nearby epochs / offsets decorrelate.
pub(crate) fn derive_sample_seed(run_seed: u64, epoch: u64, identity: u64) -> u64 {
    let a = splitmix64(run_seed ^ 0xD1B5_4A32_D192_ED03);
    let b = splitmix64(a ^ epoch);
    splitmix64(b ^ identity)
}

/// Stable identity of a decode source. `tag` separates source spaces
/// (0 = disk, 1 = host memory); `a`/`b` are the location coordinates
/// (offset + length, or physical address + length).
pub fn source_identity(tag: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(tag ^ 0xA076_1D64_78BD_642F) ^ a.rotate_left(17) ^ b)
}

/// Environment override for the augmentation run seed. When `DLB_AUG_SEED`
/// parses as a u64 it replaces `config_seed`; resolution happens at
/// pipeline *start*, never inside `compile` (compilation stays a pure
/// function of its inputs).
pub(crate) fn resolve_run_seed(config_seed: u64) -> u64 {
    std::env::var("DLB_AUG_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(config_seed)
}

/// A deterministic draw stream: splitmix64 over an advancing counter. Each
/// sample gets its own stream seeded by [`derive_sample_seed`]; ops consume
/// a fixed number of draws so the stream position after op *k* is the same
/// for every sample.
#[derive(Debug, Clone)]
pub(crate) struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// A stream over `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        splitmix64(self.state)
    }

    /// Uniform draw in `[0, bound]` (inclusive); `bound == 0` always
    /// returns 0 but still consumes one draw, keeping stream positions
    /// aligned across images of different sizes.
    pub(crate) fn next_upto(&mut self, bound: u64) -> u64 {
        let draw = self.next_u64();
        if bound == 0 {
            0
        } else {
            draw % (bound + 1)
        }
    }

    /// Uniform draw in `[0, 1)` with 53 significant bits.
    pub(crate) fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_seed_is_stable_and_sensitive() {
        let s = derive_sample_seed(7, 1, 42);
        assert_eq!(s, derive_sample_seed(7, 1, 42));
        assert_ne!(s, derive_sample_seed(8, 1, 42), "run seed must matter");
        assert_ne!(s, derive_sample_seed(7, 2, 42), "epoch must matter");
        assert_ne!(s, derive_sample_seed(7, 1, 43), "identity must matter");
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = SeedStream::new(99);
        let mut b = SeedStream::new(99);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounded_draw_in_range_and_position_preserving() {
        let mut a = SeedStream::new(5);
        let mut b = SeedStream::new(5);
        for bound in [0u64, 1, 7, 1000] {
            assert!(a.next_upto(bound) <= bound);
            b.next_u64(); // zero-bound still consumed a draw
        }
        assert_eq!(a.next_u64(), b.next_u64(), "stream positions aligned");
    }

    #[test]
    fn identity_separates_source_spaces() {
        assert_ne!(source_identity(0, 4096, 100), source_identity(1, 4096, 100));
        assert_ne!(source_identity(0, 4096, 100), source_identity(0, 4096, 101));
    }

    #[test]
    fn env_override_resolves() {
        // Serialised with any other env-touching test by running in its own
        // process when it matters; here the var is set and removed locally.
        std::env::set_var("DLB_AUG_SEED", "314159");
        assert_eq!(resolve_run_seed(1), 314159);
        std::env::set_var("DLB_AUG_SEED", "not-a-number");
        assert_eq!(resolve_run_seed(1), 1);
        std::env::remove_var("DLB_AUG_SEED");
        assert_eq!(resolve_run_seed(1), 1);
    }
}
