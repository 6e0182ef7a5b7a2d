//! Deadline-budget hedging: p99-derived budgets and exact
//! first-completion-wins dedup accounting.
//!
//! A request dispatched to a shard gets a *hedge budget* — the shard's
//! recent p99 completion latency times a safety multiplier. If the
//! primary copy is still in flight when the budget expires, the router
//! launches one hedge copy on the next ring replica. Whichever copy
//! completes first wins; every later completion of the same request is a
//! *duplicate* and must be counted as such so the cluster conservation
//! law (`requests + hedge_dups == served + replayed + shed`) balances
//! exactly — the same no-loss/no-dup discipline `FailoverBackend` proved
//! for FPGA→CPU failover, lifted to the cluster.
//!
//! [`DedupLedger`] is the authority on copy state: one entry per request,
//! tracking in-flight copy count and terminal outcome. The router asks it
//! to classify every completion and every copy lost to a node kill, so
//! the counters cannot drift from the actual copy lifecycle.

use dlb_simcore::SimTime;
use std::collections::HashMap;

/// Hedging policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Budget = recent p99 × this multiplier.
    pub multiplier: f64,
    /// Budget floor — never hedge faster than this.
    pub min_budget: SimTime,
    /// Budget ceiling, and the budget used before enough samples exist.
    pub max_budget: SimTime,
    /// Maximum hedge copies per request (0 disables hedging).
    pub max_hedges: u32,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            multiplier: 2.0,
            min_budget: SimTime::from_millis(1),
            max_budget: SimTime::from_millis(250),
            max_hedges: 1,
        }
    }
}

/// Sliding-window p99 estimator for one shard's completion latency.
#[derive(Debug)]
pub struct LatencyBudget {
    cfg: HedgeConfig,
    /// Recent completion latencies in nanoseconds, oldest first.
    window: Vec<u64>,
    cap: usize,
    next: usize,
    /// Below this many samples the estimator stays at `max_budget`.
    min_samples: usize,
}

impl LatencyBudget {
    /// An estimator over the last `window` completions (clamped ≥ 8).
    pub fn new(cfg: HedgeConfig, window: usize) -> Self {
        let cap = window.max(8);
        Self {
            cfg,
            window: Vec::with_capacity(cap),
            cap,
            next: 0,
            min_samples: 8,
        }
    }

    /// Records one dispatch→completion latency.
    pub fn observe(&mut self, latency: SimTime) {
        let ns = latency.as_nanos();
        if self.window.len() < self.cap {
            self.window.push(ns);
        } else {
            self.window[self.next] = ns;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// The current hedge budget: p99-of-window × multiplier, clamped to
    /// `[min_budget, max_budget]`; `max_budget` until the window has
    /// enough samples to trust.
    pub fn budget(&self) -> SimTime {
        if self.window.len() < self.min_samples {
            return self.cfg.max_budget;
        }
        let mut sorted = self.window.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * 0.99).round() as usize;
        let p99 = sorted[idx.min(sorted.len() - 1)] as f64;
        let budget = SimTime::from_nanos((p99 * self.cfg.multiplier) as u64);
        budget.max(self.cfg.min_budget).min(self.cfg.max_budget)
    }
}

/// Which copy of a request a dispatch or completion belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// The first dispatch, to the key's ring owner.
    Primary,
    /// A budget-expiry hedge to a ring replica.
    Hedge,
    /// A re-dispatch of work lost to a node kill.
    Replay,
}

/// What a completion meant for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionOutcome {
    /// First completion — the request is now served by this copy.
    Won(CopyKind),
    /// The request was already terminal; this completion is a duplicate.
    Duplicate,
}

/// What losing a copy (node kill) meant for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossOutcome {
    /// Last live copy of a still-open request — the router must replay
    /// it on a successor or shed it.
    Replayable,
    /// Other copies of the still-open request remain in flight.
    Covered,
    /// The request was already terminal; nothing to do.
    Stale,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Open,
    Served,
    Shed,
}

#[derive(Debug)]
struct ReqEntry {
    inflight: u32,
    state: Terminal,
}

/// Per-request copy bookkeeping (see module docs).
#[derive(Debug, Default)]
pub struct DedupLedger {
    reqs: HashMap<u64, ReqEntry>,
}

impl DedupLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers request `req` at the admission door (zero copies yet).
    pub fn admit(&mut self, req: u64) {
        self.reqs.entry(req).or_insert(ReqEntry {
            inflight: 0,
            state: Terminal::Open,
        });
    }

    /// Records one more in-flight copy of `req`.
    pub fn dispatch(&mut self, req: u64) {
        self.admit(req);
        let e = self.reqs.get_mut(&req).expect("admitted above");
        e.inflight += 1;
    }

    /// Classifies a copy completion and retires the copy.
    pub fn complete(&mut self, req: u64, kind: CopyKind) -> CompletionOutcome {
        let e = self
            .reqs
            .get_mut(&req)
            .expect("completion for unknown request");
        e.inflight = e.inflight.saturating_sub(1);
        match e.state {
            Terminal::Open => {
                e.state = Terminal::Served;
                CompletionOutcome::Won(kind)
            }
            _ => CompletionOutcome::Duplicate,
        }
    }

    /// Classifies a copy lost to a node kill and retires the copy. On
    /// [`LossOutcome::Replayable`] the caller must either re-dispatch
    /// (another [`DedupLedger::dispatch`]) or [`DedupLedger::shed`].
    pub fn lose(&mut self, req: u64) -> LossOutcome {
        let e = self.reqs.get_mut(&req).expect("loss for unknown request");
        e.inflight = e.inflight.saturating_sub(1);
        match e.state {
            Terminal::Open if e.inflight == 0 => LossOutcome::Replayable,
            Terminal::Open => LossOutcome::Covered,
            _ => LossOutcome::Stale,
        }
    }

    /// Marks `req` terminally shed (quota denial, dead ring, or an
    /// unreplayable loss).
    pub fn shed(&mut self, req: u64) {
        self.admit(req);
        let e = self.reqs.get_mut(&req).expect("admitted above");
        e.state = Terminal::Shed;
    }

    /// True once `req` is served or shed.
    pub fn is_terminal(&self, req: u64) -> bool {
        self.reqs
            .get(&req)
            .is_some_and(|e| e.state != Terminal::Open)
    }

    /// Requests not yet terminal — must be zero at quiescence ("no stuck
    /// requests").
    pub fn open_requests(&self) -> usize {
        self.reqs
            .values()
            .filter(|e| e.state == Terminal::Open)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_tracks_p99_with_clamps() {
        let cfg = HedgeConfig {
            multiplier: 2.0,
            min_budget: SimTime::from_nanos(100),
            max_budget: SimTime::from_millis(10),
            max_hedges: 1,
        };
        let mut b = LatencyBudget::new(cfg, 64);
        // Too few samples: pessimistic max budget.
        b.observe(SimTime::from_nanos(500));
        assert_eq!(b.budget(), cfg.max_budget);
        for _ in 0..63 {
            b.observe(SimTime::from_nanos(500));
        }
        // p99 ≈ 500 ns → budget 1 µs.
        let budget = b.budget().as_nanos();
        assert!((900..=1100).contains(&budget), "budget {budget}");
        // A tail spike raises it.
        for _ in 0..64 {
            b.observe(SimTime::from_nanos(50_000));
        }
        assert!(b.budget().as_nanos() >= 90_000);
    }

    #[test]
    fn first_completion_wins_rest_are_dups() {
        let mut l = DedupLedger::new();
        l.admit(1);
        l.dispatch(1);
        l.dispatch(1); // hedge
        assert_eq!(
            l.complete(1, CopyKind::Hedge),
            CompletionOutcome::Won(CopyKind::Hedge)
        );
        assert_eq!(
            l.complete(1, CopyKind::Primary),
            CompletionOutcome::Duplicate
        );
        assert!(l.is_terminal(1));
        assert_eq!(l.open_requests(), 0);
    }

    #[test]
    fn loss_classification() {
        let mut l = DedupLedger::new();
        // Last copy lost → replayable.
        l.dispatch(1);
        assert_eq!(l.lose(1), LossOutcome::Replayable);
        l.dispatch(1); // the replay
        assert_eq!(
            l.complete(1, CopyKind::Replay),
            CompletionOutcome::Won(CopyKind::Replay)
        );

        // Copy lost while a hedge survives → covered.
        l.dispatch(2);
        l.dispatch(2);
        assert_eq!(l.lose(2), LossOutcome::Covered);
        assert_eq!(
            l.complete(2, CopyKind::Hedge),
            CompletionOutcome::Won(CopyKind::Hedge)
        );

        // Copy lost after the request already completed → stale.
        l.dispatch(3);
        l.dispatch(3);
        assert_eq!(
            l.complete(3, CopyKind::Primary),
            CompletionOutcome::Won(CopyKind::Primary)
        );
        assert_eq!(l.lose(3), LossOutcome::Stale);
        assert_eq!(l.open_requests(), 0);
    }

    #[test]
    fn shed_terminates_a_request() {
        let mut l = DedupLedger::new();
        l.admit(9);
        l.shed(9);
        assert!(l.is_terminal(9));
        assert_eq!(l.open_requests(), 0);
    }
}
