//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Transient stage errors (a chaos-injected storage read error, a flaky
//! NIC delivery) should not kill a batch: the recovery policy is "retry a
//! few times, backing off exponentially with jitter, then surface a typed
//! error". Backoff sleeps go through the plan's [`CancelToken`] so a
//! retry loop never outlives shutdown, and every attempt/giveup/backoff
//! nanosecond is accounted under the `retry.*` telemetry names.

use crate::{splitmix64, CancelToken};
use dlb_telemetry::{names, Counter, Telemetry};
use std::sync::Arc;
use std::time::Duration;

/// Retry schedule: `max_attempts` tries total, sleeping
/// `base * factor^attempt` (capped at `max_delay`) between tries, with
/// ±`jitter` fractional deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Multiplier applied per retry.
    pub factor: f64,
    /// Upper bound on any single backoff.
    pub max_delay: Duration,
    /// Fractional jitter in `[0, 1]`: the backoff is scaled by a
    /// deterministic draw from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A single attempt — retry disabled, error surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            factor: 1.0,
            max_delay: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// The backoff before retry number `attempt` (0-based retry index)
    /// for operation `identity`. Deterministic: jitter is drawn from
    /// `splitmix64(identity, attempt)`, not from a global RNG.
    pub(crate) fn backoff(&self, attempt: u32, identity: u64) -> Duration {
        let exp = self.base.as_secs_f64() * self.factor.powi(attempt as i32);
        let capped = exp.min(self.max_delay.as_secs_f64());
        let h = splitmix64(identity ^ ((attempt as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let scale = 1.0 + self.jitter * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * scale).max(0.0))
    }
}

/// A retry executor bound to a policy, the shared telemetry registry and
/// a cancellation token.
pub struct Retrier {
    policy: RetryPolicy,
    cancel: CancelToken,
    attempts: Arc<Counter>,
    retries: Arc<Counter>,
    giveups: Arc<Counter>,
    backoff_nanos: Arc<Counter>,
}

impl Retrier {
    /// Build a retrier recording into `telemetry` and interruptible via
    /// `cancel`.
    pub fn new(policy: RetryPolicy, telemetry: &Telemetry, cancel: CancelToken) -> Self {
        Retrier {
            policy,
            cancel,
            attempts: telemetry.registry.counter(names::RETRY_ATTEMPTS),
            retries: telemetry.registry.counter(names::RETRY_RETRIES),
            giveups: telemetry.registry.counter(names::RETRY_GIVEUPS),
            backoff_nanos: telemetry.registry.counter(names::RETRY_BACKOFF_NANOS),
        }
    }

    /// The policy this retrier runs.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Run `op` until it succeeds or attempts are exhausted. `op` receives
    /// the 0-based attempt number (so chaos injectors can key decisions on
    /// `(identity, attempt)` and let retries genuinely recover).
    ///
    /// Returns the last error on giveup. Cancellation cuts the backoff
    /// short but still performs the remaining attempts — the final
    /// attempt's result always surfaces.
    pub fn run<T, E>(
        &self,
        identity: u64,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            self.attempts.inc();
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if attempt + 1 >= self.policy.max_attempts.max(1) || self.cancel.is_cancelled()
                    {
                        self.giveups.inc();
                        return Err(e);
                    }
                    let pause = self.policy.backoff(attempt, identity);
                    self.backoff_nanos.add(pause.as_nanos() as u64);
                    self.retries.inc();
                    self.cancel.sleep(pause);
                    attempt += 1;
                }
            }
        }
    }
}

impl std::fmt::Debug for Retrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retrier")
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn retrier(policy: RetryPolicy) -> (Retrier, std::sync::Arc<Telemetry>) {
        let t = Telemetry::with_defaults();
        (Retrier::new(policy, &t, CancelToken::new()), t)
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let (r, t) = retrier(RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(1),
            factor: 2.0,
            max_delay: Duration::from_millis(20),
            jitter: 0.5,
        });
        let calls = AtomicU32::new(0);
        let out: Result<u32, &str> = r.run(77, |_| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err("transient")
            } else {
                Ok(99)
            }
        });
        assert_eq!(out, Ok(99));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let snap = t.registry.snapshot();
        assert_eq!(snap.counter(names::RETRY_ATTEMPTS), 3);
        assert_eq!(snap.counter(names::RETRY_RETRIES), 2);
        assert_eq!(snap.counter(names::RETRY_GIVEUPS), 0);
        assert!(snap.counter(names::RETRY_BACKOFF_NANOS) > 0);
    }

    #[test]
    fn gives_up_after_max_attempts_with_last_error() {
        let (r, t) = retrier(RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(10),
            factor: 2.0,
            max_delay: Duration::from_millis(1),
            jitter: 0.0,
        });
        let calls = AtomicU32::new(0);
        let out: Result<(), u32> = r.run(5, |a| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(a)
        });
        assert_eq!(out, Err(2), "last attempt's error surfaces");
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(t.registry.snapshot().counter(names::RETRY_GIVEUPS), 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(1),
            factor: 2.0,
            max_delay: Duration::from_millis(4),
            jitter: 0.0,
        };
        assert_eq!(p.backoff(0, 0), Duration::from_millis(1));
        assert_eq!(p.backoff(1, 0), Duration::from_millis(2));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(4));
        assert_eq!(p.backoff(5, 0), Duration::from_millis(4), "capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(10),
            factor: 1.0,
            max_delay: Duration::from_millis(10),
            jitter: 0.5,
        };
        for id in 0..50u64 {
            let a = p.backoff(1, id);
            let b = p.backoff(1, id);
            assert_eq!(a, b, "same (attempt, identity) → same jitter");
            assert!(a >= Duration::from_millis(5) && a <= Duration::from_millis(15));
        }
        assert_ne!(p.backoff(1, 1), p.backoff(1, 2), "identities jitter apart");
    }

    #[test]
    fn policy_none_never_retries() {
        let (r, _t) = retrier(RetryPolicy::none());
        let calls = AtomicU32::new(0);
        let out: Result<(), &str> = r.run(0, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err("boom")
        });
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
