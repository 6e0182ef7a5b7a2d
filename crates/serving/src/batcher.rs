//! Deadline-aware dynamic batch former (Triton/Clipper-style), made
//! work-conserving.
//!
//! A forming batch closes on the first of three rules:
//!
//! | rule | closes when | [`CloseReason`] | what it is for |
//! |---|---|---|---|
//! | full | it holds `max_batch` items | `Full` | saturation: ship the largest batch the pipeline takes |
//! | linger | its first item has waited `max_linger` | `Linger` | bounds the forming wait while the pipeline is busy |
//! | idle | nothing dispatched earlier is still in flight | `Idle` | light load: waiting buys no larger batch the pipeline could use sooner |
//!
//! The idle rule is what makes the former work-conserving: lingering only
//! pays while the pipeline is busy with an earlier batch (the forming one
//! grows for free — batch-while-busy); once the pipeline has drained, every
//! further microsecond of linger is pure latency. Idleness is *observed*,
//! not configured — the caller hands [`BatchFormer::close_if_idle`] the
//! requests it dispatched and has not seen complete — so there is no
//! threshold to tune and the same `max_batch`/`max_linger` serve every
//! load: at saturation the pipeline is never idle and the two timer rules
//! close exactly as they would alone. An in-flight request stops counting
//! once its deadline has passed: a lost batch (whose completion never
//! comes) must not pin the former in timer mode forever.
//!
//! The former is clock-domain agnostic: the DES arms a
//! [`BatchFormer::linger_deadline`] timer event carrying the current
//! [`BatchFormer::generation`], and stale timers (the batch already closed
//! by another rule) are detected by generation mismatch.

use crate::config::ServeRequest;
use crate::instruments::ServingInstruments;
use dlb_simcore::SimTime;
use std::sync::Arc;

/// Why a batch closed — one of the three rules, or a pipeline drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// It reached `max_batch` items.
    Full,
    /// Its first item had waited `max_linger`.
    Linger,
    /// Nothing dispatched earlier was still in flight downstream.
    Idle,
    /// [`BatchFormer::force_close`] flushed it (pipeline drain).
    Drain,
}

/// A closed batch ready for the decode/inference pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormedBatch {
    /// Member requests in admission order.
    pub requests: Vec<ServeRequest>,
    /// The rule that closed it.
    pub reason: CloseReason,
}

impl FormedBatch {
    /// Items in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the batch has no members (never produced by the former).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// The dynamic batch former.
#[derive(Debug)]
pub struct BatchFormer {
    max_batch: u32,
    max_linger: SimTime,
    pending: Vec<ServeRequest>,
    /// When the oldest pending item entered the former.
    opened_at: Option<SimTime>,
    /// Bumped on every close; identifies the forming batch so stale linger
    /// timers can be discarded.
    generation: u64,
    instruments: Option<Arc<ServingInstruments>>,
}

impl BatchFormer {
    /// Former closing at `max_batch` items or `max_linger` wait.
    pub fn new(max_batch: u32, max_linger: SimTime) -> Self {
        assert!(max_batch >= 1, "max_batch must be >= 1");
        Self {
            max_batch,
            max_linger,
            pending: Vec::with_capacity(max_batch as usize),
            opened_at: None,
            generation: 0,
            instruments: None,
        }
    }

    /// Attaches telemetry handles.
    pub fn with_instruments(mut self, instruments: Arc<ServingInstruments>) -> Self {
        self.instruments = Some(instruments);
        self
    }

    /// Items currently forming.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Identifier of the forming batch; linger timers armed for an older
    /// generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Absolute time at which the forming batch must close, or `None` when
    /// nothing is forming. Arm (or re-arm) a timer for this instant after
    /// every push that returns `None` on a fresh batch.
    pub fn linger_deadline(&self) -> Option<SimTime> {
        self.opened_at.map(|t| t + self.max_linger)
    }

    /// Adds one request at `now`. Returns the closed batch when this push
    /// filled it to `max_batch`.
    pub fn push(&mut self, req: ServeRequest, now: SimTime) -> Option<FormedBatch> {
        if self.pending.is_empty() {
            self.opened_at = Some(now);
        }
        self.pending.push(req);
        if self.pending.len() >= self.max_batch as usize {
            Some(self.close(CloseReason::Full, Some(now)))
        } else {
            None
        }
    }

    /// Closes the forming batch if the linger timer armed for
    /// `generation` is still current and has expired at `now`. Stale
    /// timers (batch already closed) and early timers return `None`.
    pub fn close_if_due(&mut self, now: SimTime, generation: u64) -> Option<FormedBatch> {
        if generation != self.generation || self.pending.is_empty() {
            return None;
        }
        match self.linger_deadline() {
            Some(due) if now >= due => Some(self.close(CloseReason::Linger, Some(now))),
            _ => None,
        }
    }

    /// Closes the forming batch if the pipeline downstream is idle at
    /// `now`: none of `in_flight` — the requests the caller dispatched
    /// earlier and has not seen complete — is still within its deadline.
    /// One past it is lost or hopelessly late; waiting on it would turn
    /// the linger timer back on for good.
    pub fn close_if_idle<'a>(
        &mut self,
        now: SimTime,
        in_flight: impl IntoIterator<Item = &'a ServeRequest>,
    ) -> Option<FormedBatch> {
        if self.pending.is_empty() || in_flight.into_iter().any(|r| !r.expired(now)) {
            return None;
        }
        Some(self.close(CloseReason::Idle, Some(now)))
    }

    /// Unconditionally closes the forming batch (pipeline drain).
    pub fn force_close(&mut self) -> Option<FormedBatch> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.close(CloseReason::Drain, None))
        }
    }

    /// `now` is `None` for a drain, which has no clock: its wait was cut
    /// short by shutdown, not chosen by a rule, and is not recorded.
    fn close(&mut self, reason: CloseReason, now: Option<SimTime>) -> FormedBatch {
        let requests = std::mem::take(&mut self.pending);
        let opened_at = self
            .opened_at
            .take()
            .expect("a forming batch has an open time");
        self.generation += 1;
        if let Some(inst) = &self.instruments {
            let waited = now.map(|t| t.saturating_sub(opened_at));
            inst.on_batch_closed(requests.len() as u32, reason, waited);
        }
        FormedBatch { requests, reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> ServeRequest {
        ServeRequest {
            id,
            tenant: 0,
            arrival: SimTime::from_micros(id),
            deadline: SimTime::from_micros(id) + SimTime::from_millis(10),
        }
    }

    #[test]
    fn closes_full_at_max_batch() {
        let mut f = BatchFormer::new(3, SimTime::from_millis(1));
        let now = SimTime::ZERO;
        assert!(f.push(req(0), now).is_none());
        assert!(f.push(req(1), now).is_none());
        let b = f.push(req(2), now).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.reason, CloseReason::Full);
        assert_eq!(f.pending(), 0);
        assert_eq!(f.generation(), 1);
    }

    #[test]
    fn linger_closes_partial_batch() {
        let mut f = BatchFormer::new(8, SimTime::from_micros(100));
        let t0 = SimTime::from_millis(1);
        f.push(req(0), t0);
        f.push(req(1), t0 + SimTime::from_micros(10));
        let gen = f.generation();
        assert_eq!(f.linger_deadline(), Some(t0 + SimTime::from_micros(100)));
        // Timer fires early: nothing.
        assert!(f.close_if_due(t0 + SimTime::from_micros(50), gen).is_none());
        let b = f.close_if_due(t0 + SimTime::from_micros(100), gen).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.reason, CloseReason::Linger);
    }

    #[test]
    fn idle_pipeline_closes_a_partial_batch_at_once() {
        let mut f = BatchFormer::new(8, SimTime::from_millis(1));
        let now = SimTime::from_micros(5);
        assert!(f.close_if_idle(now, []).is_none(), "nothing forming");
        f.push(req(0), now);
        let b = f.close_if_idle(now, []).unwrap();
        assert_eq!((b.len(), b.reason), (1, CloseReason::Idle));
        assert_eq!(f.pending(), 0);
        assert_eq!(f.linger_deadline(), None);
    }

    #[test]
    fn busy_pipeline_lingers_and_the_batch_grows() {
        let mut f = BatchFormer::new(8, SimTime::from_micros(100));
        let in_flight = [req(0)];
        let t0 = SimTime::from_micros(10);
        f.push(req(1), t0);
        assert!(f.close_if_idle(t0, &in_flight).is_none());
        f.push(req(2), t0 + SimTime::from_micros(40));
        assert!(f
            .close_if_idle(t0 + SimTime::from_micros(40), &in_flight)
            .is_none());
        // The earlier batch completes: the grown batch ships without
        // waiting out the rest of its linger.
        let b = f.close_if_idle(t0 + SimTime::from_micros(60), []).unwrap();
        assert_eq!((b.len(), b.reason), (2, CloseReason::Idle));
    }

    #[test]
    fn linger_timer_armed_before_an_idle_close_is_stale() {
        let mut f = BatchFormer::new(8, SimTime::from_micros(100));
        let t0 = SimTime::ZERO;
        f.push(req(0), t0);
        let armed = f.generation();
        f.close_if_idle(t0 + SimTime::from_micros(20), []).unwrap();
        f.push(req(1), t0 + SimTime::from_micros(90));
        // The first batch's timer fires: it must not clip the second,
        // which has lingered only 10 us.
        assert!(f
            .close_if_due(t0 + SimTime::from_micros(100), armed)
            .is_none());
        assert_eq!(f.pending(), 1);
    }

    #[test]
    fn in_flight_request_past_its_deadline_does_not_hold_the_batch() {
        let mut f = BatchFormer::new(8, SimTime::from_millis(50));
        let lost = req(0); // deadline 10 ms
        f.push(req(1), SimTime::from_millis(9));
        assert!(
            f.close_if_idle(lost.deadline, [&lost]).is_none(),
            "at its deadline it may still complete in time"
        );
        let b = f
            .close_if_idle(lost.deadline + SimTime::from_nanos(1), [&lost])
            .unwrap();
        assert_eq!(b.reason, CloseReason::Idle);
    }

    #[test]
    fn stale_generation_timer_is_ignored() {
        let mut f = BatchFormer::new(2, SimTime::from_micros(100));
        let t0 = SimTime::ZERO;
        f.push(req(0), t0);
        let gen = f.generation();
        f.push(req(1), t0).unwrap(); // closed full; gen advanced
        f.push(req(2), t0 + SimTime::from_micros(10));
        // The old timer fires after the close: must not clip the new batch.
        assert!(f
            .close_if_due(t0 + SimTime::from_micros(100), gen)
            .is_none());
        assert_eq!(f.pending(), 1);
    }

    #[test]
    fn linger_clock_restarts_per_batch() {
        let mut f = BatchFormer::new(4, SimTime::from_micros(100));
        f.push(req(0), SimTime::from_micros(0));
        f.force_close().unwrap();
        f.push(req(1), SimTime::from_micros(500));
        assert_eq!(
            f.linger_deadline(),
            Some(SimTime::from_micros(600)),
            "linger measured from the new batch's first push"
        );
    }

    /// Drives `n` Poisson arrivals at `rate` req/s through a former with
    /// batch 32 and 2 ms linger, firing each due linger timer before the
    /// next arrival, and returns (mean batch size, fraction of batches not
    /// closed full, mean first-push-to-close time in ms). Only the two
    /// timer rules run: no pipeline is modelled, so the idle rule never
    /// fires. The trailing partial batch is drained at the last arrival.
    fn close_sweep_point(rate: f64, n: u64, seed: u64) -> (f64, f64, f64) {
        let mut f = BatchFormer::new(32, SimTime::from_millis(2));
        let mut rng = dlb_simcore::SimRng::new(seed);
        let (mut now, mut opened) = (SimTime::ZERO, SimTime::ZERO);
        let (mut batches, mut items, mut lingered) = (0u64, 0u64, 0u64);
        let mut waited = SimTime::ZERO;
        let mut record = |b: FormedBatch, wait: SimTime| {
            batches += 1;
            items += b.len() as u64;
            lingered += u64::from(b.reason != CloseReason::Full);
            waited += wait;
        };
        for id in 0..n {
            let arrival = now + SimTime::from_secs_f64(rng.exponential(1.0 / rate));
            if let Some(due) = f.linger_deadline().filter(|&due| due <= arrival) {
                if let Some(b) = f.close_if_due(due, f.generation()) {
                    record(b, due - opened);
                }
            }
            now = arrival;
            if f.pending() == 0 {
                opened = now;
            }
            let request = ServeRequest {
                id,
                tenant: (id % 5) as u32,
                arrival: now,
                deadline: now + SimTime::from_millis(50),
            };
            if let Some(b) = f.push(request, now) {
                record(b, now - opened);
            }
        }
        if let Some(b) = f.force_close() {
            record(b, now - opened);
        }
        let per_batch = |x: f64| x / batches as f64;
        (
            per_batch(items as f64),
            per_batch(lingered as f64),
            per_batch(waited.as_secs_f64() * 1e3),
        )
    }

    #[test]
    fn close_rule_follows_arrival_rate() {
        // (rate, mean batch, linger closes, mean close ms): light load
        // closes by linger at 2 ms, heavy load fills batches of 32.
        let expected = [
            (500.0, "2.0", "100%", "2.000"),
            (2_000.0, "5.0", "100%", "2.000"),
            (8_000.0, "16.9", "100%", "2.000"),
            (16_000.0, "30.1", "40%", "1.826"),
            (32_000.0, "32.0", "0%", "0.970"),
            (64_000.0, "32.0", "0%", "0.485"),
        ];
        for (rate, mean, linger, close_ms) in expected {
            let (m, l, c) = close_sweep_point(rate, 50_000, 17);
            let got = (
                format!("{m:.1}"),
                format!("{:.0}%", l * 100.0),
                format!("{c:.3}"),
            );
            assert_eq!(
                got,
                (mean.into(), linger.into(), close_ms.into()),
                "{rate} req/s"
            );
        }
    }

    #[test]
    fn force_close_flushes_partial() {
        let mut f = BatchFormer::new(4, SimTime::from_millis(1));
        assert!(f.force_close().is_none());
        f.push(req(0), SimTime::ZERO);
        let b = f.force_close().unwrap();
        assert_eq!((b.len(), b.reason), (1, CloseReason::Drain));
        assert!(f.force_close().is_none());
    }
}
