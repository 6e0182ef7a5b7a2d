//! `dlb-chaos` — a deterministic chaos/fault plane for the DLBooster
//! pipeline.
//!
//! Every stage boundary in the reproduction (storage reads, NIC frame
//! delivery, FPGA decode lanes, the HugePage batch pool, GPU copy slots)
//! can ask a [`StageInjector`] whether a *seeded, schedulable* fault should
//! fire for a given operation. Decisions are pure functions of
//! `(plan seed, stage salt, operation identity)` — **not** of wall-clock
//! time or thread interleaving — so a run under a given [`FaultPlan`] seed
//! injects the same fault set on replay, which is what lets the soak tests
//! assert determinism.
//!
//! The crate also carries the pipeline's recovery policy:
//!
//! * [`retry`] — bounded retry with exponential backoff + deterministic
//!   jitter for transient stage errors (storage fetches, NIC delivery),
//!   with `retry.*` telemetry counters.
//! * [`CancelToken`] — a cooperative cancellation handle threaded through
//!   every injected delay/stall so a wedged stage can be released promptly
//!   at shutdown or failover time (no un-interruptible sleeps anywhere in
//!   the fault plane).
//!
//! Fault *kinds* are generic ([`FaultKind`]); each stage interprets the
//! subset that makes sense at its boundary (the storage plane maps
//! `Error`→failed read and `Delay`→slow read; the FPGA plane maps
//! `Delay`→lane stall and `Poison`→corrupted segment; …).

use dlb_telemetry::{names, Counter, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub mod retry;

pub use retry::{Retrier, RetryPolicy};

/// SplitMix64 — the repo's standard seeded generator (also used by
/// `DataCollector::reshuffle`). Pure function: good for identity-keyed
/// fault decisions.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pipeline stages a fault plan can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// NVMe reads (`dlb-storage`): read errors and slow reads.
    Storage,
    /// NIC RX (`dlb-net`): frame corruption and forced ring overflow.
    Net,
    /// FPGA decode lanes (`dlb-fpga`): stalls and poisoned segments.
    Fpga,
    /// Batch memory pool (`dlb-membridge`): lease denial and delayed
    /// recycling.
    Pool,
    /// GPU copy slots (`dlb-gpu`): slot failures and slow copies.
    Gpu,
}

impl Stage {
    /// Per-stage salt mixed into the decision hash so the same identity
    /// draws independent faults at different stages.
    fn salt(self) -> u64 {
        match self {
            Stage::Storage => 0x5354_4F52_4147_4501,
            Stage::Net => 0x4E45_5457_4F52_4B02,
            Stage::Fpga => 0x4650_4741_4650_4103,
            Stage::Pool => 0x504F_4F4C_504F_4F04,
            Stage::Gpu => 0x4750_5547_5055_4705,
        }
    }

    /// Canonical `chaos.injected.<stage>` counter name.
    pub fn counter_name(self) -> &'static str {
        match self {
            Stage::Storage => names::CHAOS_INJECTED_STORAGE,
            Stage::Net => names::CHAOS_INJECTED_NET,
            Stage::Fpga => names::CHAOS_INJECTED_FPGA,
            Stage::Pool => names::CHAOS_INJECTED_POOL,
            Stage::Gpu => names::CHAOS_INJECTED_GPU,
        }
    }

    /// All stages, for iteration in tests.
    #[cfg(test)]
    const ALL: [Stage; 5] = [
        Stage::Storage,
        Stage::Net,
        Stage::Fpga,
        Stage::Pool,
        Stage::Gpu,
    ];
}

/// What a fired fault should do. Stages interpret the subset relevant to
/// their boundary and treat the rest as [`FaultKind::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with a typed, recoverable error.
    Error,
    /// Delay the operation (slow read, delayed recycle, slow copy slot,
    /// FPGA lane stall). Always serviced through `CancelToken::sleep`.
    Delay(Duration),
    /// Corrupt payload bytes before they are parsed (NIC frames).
    Corrupt,
    /// Force a capacity rejection (NIC ring overflow, pool lease denial).
    Overflow,
    /// Poison the decoded output (FPGA segment corruption → decode error).
    Poison,
}

/// Per-stage fault schedule: a rate, a burst length and the delay used by
/// latency-flavoured faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Probability in `[0, 1]` that a given operation identity draws a
    /// fault. `0.0` disables the stage entirely (near-zero overhead).
    pub rate: f64,
    /// When a fault fires, the next `burst - 1` decisions at this stage
    /// also fire (models correlated failures, e.g. a flapping link).
    pub burst: u32,
    /// Duration used by `Delay`-flavoured faults at this stage.
    pub delay: Duration,
}

impl StageSpec {
    /// A disabled stage.
    pub(crate) const fn off() -> Self {
        StageSpec {
            rate: 0.0,
            burst: 1,
            delay: Duration::from_millis(0),
        }
    }

    /// A stage firing at `rate` with single-shot faults and a small delay.
    pub fn rate(rate: f64) -> Self {
        StageSpec {
            rate,
            burst: 1,
            delay: Duration::from_millis(2),
        }
    }

    /// Builder: delay for latency-flavoured faults.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    fn enabled(&self) -> bool {
        self.rate > 0.0
    }
}

/// Cooperative cancellation shared by every injected delay and every
/// retry backoff. Cancelling releases all in-flight chaos sleeps within
/// one polling slice (2 ms), so shutdown and failover never wait out a
/// stall.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Signal cancellation; all current and future `CancelToken::sleep`
    /// calls return promptly.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Sleep for `dur`, waking early if cancelled. Returns `true` if the
    /// full duration elapsed, `false` if interrupted.
    pub(crate) fn sleep(&self, dur: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(2);
        let mut left = dur;
        while left > Duration::ZERO {
            if self.is_cancelled() {
                return false;
            }
            let step = left.min(SLICE);
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        !self.is_cancelled()
    }
}

/// A seeded, schedulable fault plan covering every stage boundary.
///
/// The plan itself is plain data; stages receive [`StageInjector`] handles
/// built by [`FaultPlan::injector`], which pair the schedule with the
/// shared telemetry counters and cancellation token.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; every stage derives its own decision stream from it.
    pub seed: u64,
    /// Storage read faults.
    pub storage: StageSpec,
    /// NIC RX faults.
    pub net: StageSpec,
    /// FPGA decode faults.
    pub fpga: StageSpec,
    /// Pool lease/recycle faults.
    pub pool: StageSpec,
    /// GPU copy-slot faults.
    pub gpu: StageSpec,
    cancel: CancelToken,
}

impl FaultPlan {
    /// A plan with every stage disabled (hooks cost one branch).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            storage: StageSpec::off(),
            net: StageSpec::off(),
            fpga: StageSpec::off(),
            pool: StageSpec::off(),
            gpu: StageSpec::off(),
            cancel: CancelToken::new(),
        }
    }

    /// Every stage firing at the same `rate` with single-shot faults —
    /// the acceptance-criteria configuration ("all fault planes active at
    /// 5% rates").
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            storage: StageSpec::rate(rate),
            net: StageSpec::rate(rate),
            fpga: StageSpec::rate(rate),
            pool: StageSpec::rate(rate),
            gpu: StageSpec::rate(rate),
            cancel: CancelToken::new(),
        }
    }

    /// Seed from the `DLB_CHAOS_SEED` environment variable, falling back
    /// to `default` when unset or unparsable. Lets CI run the same soak
    /// battery under a second seed without a code change.
    pub fn seed_from_env(default: u64) -> u64 {
        std::env::var("DLB_CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(default)
    }

    /// The plan-wide cancellation token (shared by all injectors built
    /// from this plan — cloning the plan keeps sharing it).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    fn spec(&self, stage: Stage) -> StageSpec {
        match stage {
            Stage::Storage => self.storage,
            Stage::Net => self.net,
            Stage::Fpga => self.fpga,
            Stage::Pool => self.pool,
            Stage::Gpu => self.gpu,
        }
    }

    /// Build the injector handle a stage threads through its
    /// `*_with_telemetry` constructor. Returns `None` when the stage is
    /// disabled, so fault-free pipelines carry no chaos state at all.
    pub fn injector(&self, stage: Stage, telemetry: &Telemetry) -> Option<Arc<StageInjector>> {
        let spec = self.spec(stage);
        if !spec.enabled() {
            return None;
        }
        Some(Arc::new(StageInjector {
            stage,
            spec,
            seed: self.seed,
            burst_left: AtomicU32::new(0),
            injected: telemetry.registry.counter(stage.counter_name()),
            total: telemetry.registry.counter(names::CHAOS_FAULTS_TOTAL),
            cancel: self.cancel.clone(),
        }))
    }
}

/// A per-stage fault decision handle. Cheap to query (`decide` is one
/// hash + compare on the hot path), deterministic per
/// `(seed, stage, identity)`, thread-safe.
pub struct StageInjector {
    stage: Stage,
    spec: StageSpec,
    seed: u64,
    burst_left: AtomicU32,
    injected: Arc<Counter>,
    total: Arc<Counter>,
    cancel: CancelToken,
}

impl StageInjector {
    /// Should the operation identified by `identity` fault, and how?
    ///
    /// `identity` must be a stable per-operation key (disk offset, cmd id,
    /// frame index, lease ordinal…): replaying a seed over the same
    /// identity stream reproduces the same fault set. Burst continuation
    /// is the one intentionally stateful part (correlated failures).
    pub fn decide(&self, identity: u64) -> Option<FaultKind> {
        let fired = if self
            .burst_left
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .is_ok()
        {
            true
        } else {
            let h = splitmix64(
                self.seed ^ self.stage.salt() ^ identity.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
            if draw < self.spec.rate {
                if self.spec.burst > 1 {
                    self.burst_left
                        .store(self.spec.burst - 1, Ordering::Release);
                }
                true
            } else {
                false
            }
        };
        if !fired {
            return None;
        }
        self.injected.inc();
        self.total.inc();
        // Second, independent hash picks the flavour for this stage.
        let h2 = splitmix64(self.seed ^ self.stage.salt().rotate_left(17) ^ identity);
        Some(self.flavour(h2))
    }

    fn flavour(&self, h: u64) -> FaultKind {
        let latency = h & 1 == 0;
        match (self.stage, latency) {
            (Stage::Storage, true) => FaultKind::Delay(self.spec.delay),
            (Stage::Storage, false) => FaultKind::Error,
            (Stage::Net, true) => FaultKind::Corrupt,
            (Stage::Net, false) => FaultKind::Overflow,
            (Stage::Fpga, true) => FaultKind::Delay(self.spec.delay),
            (Stage::Fpga, false) => FaultKind::Poison,
            (Stage::Pool, true) => FaultKind::Delay(self.spec.delay),
            (Stage::Pool, false) => FaultKind::Overflow,
            (Stage::Gpu, true) => FaultKind::Delay(self.spec.delay),
            (Stage::Gpu, false) => FaultKind::Error,
        }
    }

    /// The configured delay for latency-flavoured faults at this stage.
    pub fn delay(&self) -> Duration {
        self.spec.delay
    }

    /// Cancel-aware sleep used by stages to service `Delay` faults.
    /// Returns `false` when interrupted by cancellation.
    pub fn sleep(&self, dur: Duration) -> bool {
        self.cancel.sleep(dur)
    }
}

impl std::fmt::Debug for StageInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageInjector")
            .field("stage", &self.stage)
            .field("spec", &self.spec)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(rate: f64, seed: u64) -> Arc<StageInjector> {
        let mut plan = FaultPlan::disabled();
        plan.seed = seed;
        plan.storage = StageSpec::rate(rate);
        plan.injector(Stage::Storage, &Telemetry::with_defaults())
            .expect("enabled stage yields an injector")
    }

    #[test]
    fn disabled_stage_yields_no_injector() {
        let plan = FaultPlan::disabled();
        let t = Telemetry::with_defaults();
        for stage in Stage::ALL {
            assert!(plan.injector(stage, &t).is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_identity() {
        let a = injector(0.3, 42);
        let b = injector(0.3, 42);
        for id in 0..500u64 {
            assert_eq!(a.decide(id), b.decide(id), "identity {id} diverged");
        }
    }

    #[test]
    fn different_seeds_draw_different_fault_sets() {
        let a = injector(0.3, 1);
        let b = injector(0.3, 2);
        let set_a: Vec<bool> = (0..200).map(|id| a.decide(id).is_some()).collect();
        let set_b: Vec<bool> = (0..200).map(|id| b.decide(id).is_some()).collect();
        assert_ne!(set_a, set_b);
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let inj = injector(0.05, 7);
        let fired = (0..20_000u64)
            .filter(|&id| inj.decide(id).is_some())
            .count();
        let observed = fired as f64 / 20_000.0;
        assert!(
            (observed - 0.05).abs() < 0.01,
            "observed rate {observed} too far from 0.05"
        );
    }

    #[test]
    fn bursts_extend_a_fired_fault() {
        let mut plan = FaultPlan::disabled();
        plan.seed = 9;
        plan.storage = StageSpec {
            burst: 4,
            ..StageSpec::rate(0.02)
        };
        let inj = plan
            .injector(Stage::Storage, &Telemetry::with_defaults())
            .unwrap();
        // Find the first natural fire, then the next 3 decisions must
        // fire regardless of their own hash.
        let mut id = 0u64;
        while inj.decide(id).is_none() {
            id += 1;
            assert!(id < 10_000, "no fault fired at 2%");
        }
        for k in 1..4 {
            assert!(inj.decide(id + k).is_some(), "burst continuation {k}");
        }
    }

    #[test]
    fn injections_bump_stage_and_total_counters() {
        let t = Telemetry::with_defaults();
        let mut plan = FaultPlan::disabled();
        plan.net = StageSpec::rate(1.0);
        let inj = plan.injector(Stage::Net, &t).unwrap();
        for id in 0..10 {
            assert!(inj.decide(id).is_some());
        }
        let snap = t.registry.snapshot();
        assert_eq!(snap.counter(names::CHAOS_INJECTED_NET), 10);
        assert_eq!(snap.counter(names::CHAOS_FAULTS_TOTAL), 10);
    }

    #[test]
    fn cancel_interrupts_sleep() {
        let token = CancelToken::new();
        let t2 = token.clone();
        let start = std::time::Instant::now();
        let h = std::thread::spawn(move || t2.sleep(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        assert!(!h.join().unwrap(), "sleep must report interruption");
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn seed_from_env_falls_back_to_default() {
        // The variable is not set in unit-test context unless CI sets it;
        // accept either the env value or the default.
        let seed = FaultPlan::seed_from_env(1234);
        if std::env::var("DLB_CHAOS_SEED").is_err() {
            assert_eq!(seed, 1234);
        }
    }
}
