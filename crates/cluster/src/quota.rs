//! Cluster-wide per-tenant rate quotas.
//!
//! Each tenant holds a token bucket refilled lazily against virtual
//! [`SimTime`]: a request costs one token, `burst` bounds how far an idle
//! tenant can get ahead. The buckets sit *above* each node's
//! `WeightedFairQueue` — the WFQ arbitrates service order among admitted
//! requests, the buckets bound how much total work a tenant may inject
//! into the cluster per second, so one tenant flooding the ring cannot
//! starve the others no matter which shards its keys hash to.
//!
//! On membership change the router calls [`TenantQuotas::rebalance`]:
//! every tenant's refill rate scales by `alive/total`, shrinking the
//! cluster-wide admission rate in proportion to lost capacity instead of
//! letting the survivors drown.

use dlb_simcore::SimTime;
use std::collections::BTreeMap;

/// One tenant's quota: sustained refill rate and burst ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuotaConfig {
    /// Sustained admission rate, tokens (requests) per second.
    pub rate_per_sec: f64,
    /// Maximum accumulated tokens (burst size); clamped to ≥ 1.
    pub burst: f64,
}

#[derive(Debug)]
struct Bucket {
    /// Configured full-membership rate.
    base_rate: f64,
    /// Effective rate after the current membership scale.
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled_at: SimTime,
}

impl Bucket {
    fn refill(&mut self, now: SimTime) {
        if now > self.refilled_at {
            let dt = now.saturating_sub(self.refilled_at).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        }
        self.refilled_at = self.refilled_at.max(now);
    }
}

/// Token buckets for every registered tenant.
///
/// Tenants never registered are admitted unthrottled — quotas are an
/// opt-in ceiling, not an allow-list.
#[derive(Debug)]
pub struct TenantQuotas {
    buckets: BTreeMap<u32, Bucket>,
}

impl TenantQuotas {
    /// Buckets from explicit per-tenant configs. Bursts start full.
    pub(crate) fn new(configs: impl IntoIterator<Item = (u32, QuotaConfig)>) -> Self {
        let buckets = configs
            .into_iter()
            .map(|(id, cfg)| {
                let burst = cfg.burst.max(1.0);
                (
                    id,
                    Bucket {
                        base_rate: cfg.rate_per_sec.max(0.0),
                        rate: cfg.rate_per_sec.max(0.0),
                        burst,
                        tokens: burst,
                        refilled_at: SimTime::ZERO,
                    },
                )
            })
            .collect();
        Self { buckets }
    }

    /// Splits `cluster_rate` across tenants in proportion to their WFQ
    /// weights (the same `(id, weight)` pairs
    /// `WeightedFairQueue::tenants` reports), with `burst_secs` seconds
    /// of burst headroom each.
    pub fn from_weights(
        weights: impl IntoIterator<Item = (u32, u32)>,
        cluster_rate: f64,
        burst_secs: f64,
    ) -> Self {
        let weights: Vec<(u32, u32)> = weights.into_iter().collect();
        let total: f64 = weights.iter().map(|&(_, w)| f64::from(w.max(1))).sum();
        Self::new(weights.iter().map(|&(id, w)| {
            let rate = cluster_rate * f64::from(w.max(1)) / total.max(1.0);
            (
                id,
                QuotaConfig {
                    rate_per_sec: rate,
                    burst: rate * burst_secs,
                },
            )
        }))
    }

    /// Spends one token for `tenant` at virtual time `now`. Returns false
    /// when the bucket is dry (the request should be shed at the door).
    pub fn try_acquire(&mut self, tenant: u32, now: SimTime) -> bool {
        match self.buckets.get_mut(&tenant) {
            None => true,
            Some(b) => {
                b.refill(now);
                if b.tokens >= 1.0 {
                    b.tokens -= 1.0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Rescales every tenant's rate to `alive/total` of its configured
    /// full-membership rate — called when ring membership changes.
    pub fn rebalance(&mut self, alive: u32, total: u32) {
        let scale = if total == 0 {
            0.0
        } else {
            f64::from(alive.min(total)) / f64::from(total)
        };
        for b in self.buckets.values_mut() {
            b.rate = b.base_rate * scale;
            // Cap stored burst credit too: a dead node's capacity must not
            // linger as spendable tokens.
            b.tokens = b.tokens.min(b.burst * scale.max(f64::MIN_POSITIVE));
        }
    }

    /// Current effective rate for `tenant` (None if unregistered).
    #[cfg(test)]
    pub(crate) fn rate(&self, tenant: u32) -> Option<f64> {
        self.buckets.get(&tenant).map(|b| b.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut q = TenantQuotas::new([(
            0,
            QuotaConfig {
                rate_per_sec: 10.0,
                burst: 1.0,
            },
        )]);
        // Drain the single burst token, then offer 100 requests over 1 s:
        // only ~10 may pass.
        assert!(q.try_acquire(0, SimTime::ZERO));
        let admitted = (1..=100)
            .filter(|i| q.try_acquire(0, secs(f64::from(*i) / 100.0)))
            .count();
        assert!((9..=11).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn burst_caps_idle_credit() {
        let mut q = TenantQuotas::new([(
            0,
            QuotaConfig {
                rate_per_sec: 100.0,
                burst: 5.0,
            },
        )]);
        // A long idle stretch must not bank more than `burst` tokens.
        let now = secs(1000.0);
        let back_to_back = (0..50).filter(|_| q.try_acquire(0, now)).count();
        assert_eq!(back_to_back, 5);
    }

    #[test]
    fn unregistered_tenants_are_unthrottled() {
        let mut q = TenantQuotas::new([]);
        for _ in 0..1000 {
            assert!(q.try_acquire(9, SimTime::ZERO));
        }
    }

    #[test]
    fn rebalance_scales_rates_and_clips_credit() {
        let mut q = TenantQuotas::new([(
            0,
            QuotaConfig {
                rate_per_sec: 80.0,
                burst: 8.0,
            },
        )]);
        q.rebalance(6, 8);
        assert!((q.rate(0).unwrap() - 60.0).abs() < 1e-9);
        // The full burst of 8 is clipped to 6 spendable tokens.
        for _ in 0..6 {
            assert!(q.try_acquire(0, SimTime::ZERO));
        }
        assert!(!q.try_acquire(0, SimTime::ZERO));
        // Back to full membership: rate restores to base.
        q.rebalance(8, 8);
        assert!((q.rate(0).unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn weight_proportional_split() {
        let q = TenantQuotas::from_weights([(0, 3), (1, 1)], 400.0, 0.5);
        assert!((q.rate(0).unwrap() - 300.0).abs() < 1e-9);
        assert!((q.rate(1).unwrap() - 100.0).abs() < 1e-9);
        assert!(q.rate(2).is_none());
    }
}
