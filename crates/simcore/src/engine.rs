//! The event loop: a binary heap of timestamped events dispatched to a model.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A model advanced by the simulation: the whole system state plus the logic
/// reacting to each event.
pub trait SimModel {
    /// The event alphabet of the model.
    type Event;

    /// Reacts to `event` occurring at `now`, posting follow-up events through
    /// `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq): earlier first, FIFO at ties.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Handle through which a model posts future events. Borrowed mutably by the
/// engine during [`SimModel::handle`].
pub struct Scheduler<E> {
    now: SimTime,
    next_seq: u64,
    pending: Vec<Entry<E>>,
}

impl<E> Scheduler<E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Posts `event` to fire `delay` after now.
    #[inline]
    pub fn after(&mut self, delay: SimTime, event: E) {
        self.at(self.now + delay, event);
    }

    /// Posts `event` at the absolute time `at` (clamped to now if in the
    /// past, preserving monotonicity).
    #[inline]
    pub fn at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Entry { at, seq, event });
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events dispatched.
    pub events: u64,
    /// Virtual time of the last dispatched event.
    pub end_time: SimTime,
    /// True if the run stopped because the event horizon was exhausted
    /// (as opposed to hitting the event or deadline limit).
    pub drained: bool,
}

/// A discrete-event simulation over a [`SimModel`].
pub struct Simulation<M: SimModel> {
    model: M,
    heap: BinaryHeap<Entry<M::Event>>,
    clock: SimTime,
    next_seq: u64,
    dispatched: u64,
}

impl<M: SimModel> Simulation<M> {
    /// Wraps a model with an empty event queue at time zero.
    pub fn new(model: M) -> Self {
        Self {
            model,
            heap: BinaryHeap::new(),
            clock: SimTime::ZERO,
            next_seq: 0,
            dispatched: 0,
        }
    }

    /// Seeds an initial event at absolute time `at`.
    pub fn seed(&mut self, at: SimTime, event: M::Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Borrow the model (for inspection between runs).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Runs until the queue drains, `deadline` passes, or `max_events` have
    /// been dispatched — whichever happens first.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> RunSummary {
        let mut dispatched_this_run = 0u64;
        while dispatched_this_run < max_events {
            let Some(top) = self.heap.peek() else {
                return RunSummary {
                    events: dispatched_this_run,
                    end_time: self.clock,
                    drained: true,
                };
            };
            if top.at > deadline {
                return RunSummary {
                    events: dispatched_this_run,
                    end_time: self.clock,
                    drained: false,
                };
            }
            let entry = self.heap.pop().expect("peeked");
            debug_assert!(entry.at >= self.clock, "event heap violated monotonicity");
            self.clock = entry.at;
            let mut sched = Scheduler {
                now: self.clock,
                next_seq: self.next_seq,
                pending: Vec::new(),
            };
            self.model.handle(self.clock, entry.event, &mut sched);
            self.next_seq = sched.next_seq;
            for e in sched.pending {
                self.heap.push(e);
            }
            dispatched_this_run += 1;
            self.dispatched += 1;
        }
        RunSummary {
            events: dispatched_this_run,
            end_time: self.clock,
            drained: false,
        }
    }

    /// Runs to quiescence with a generous event cap (panics if exceeded,
    /// which almost always indicates an event loop in the model).
    pub fn run_to_completion(&mut self) -> RunSummary {
        const CAP: u64 = 2_000_000_000;
        let summary = self.run_until(SimTime::MAX, CAP);
        assert!(
            summary.drained,
            "simulation did not drain within {CAP} events — model is likely self-perpetuating"
        );
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order in which its events fire.
    struct Recorder {
        log: Vec<(u64, u32)>, // (time ns, tag)
        chain: u32,           // remaining chained events to emit
    }

    impl SimModel for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now.as_nanos(), event));
            if event == 999 && self.chain > 0 {
                self.chain -= 1;
                sched.after(SimTime::from_nanos(10), 999);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder {
            log: vec![],
            chain: 0,
        });
        sim.seed(SimTime::from_nanos(30), 3);
        sim.seed(SimTime::from_nanos(10), 1);
        sim.seed(SimTime::from_nanos(20), 2);
        let s = sim.run_to_completion();
        assert_eq!(s.events, 3);
        assert!(s.drained);
        assert_eq!(sim.model().log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulation::new(Recorder {
            log: vec![],
            chain: 0,
        });
        for tag in 0..50 {
            sim.seed(SimTime::from_nanos(5), tag);
        }
        sim.run_to_completion();
        let tags: Vec<u32> = sim.model().log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Recorder {
            log: vec![],
            chain: 5,
        });
        sim.seed(SimTime::ZERO, 999);
        let s = sim.run_to_completion();
        assert_eq!(s.events, 6);
        assert_eq!(s.end_time, SimTime::from_nanos(50));
        assert_eq!(sim.model().log.len(), 6);
    }

    #[test]
    fn deadline_stops_early() {
        let mut sim = Simulation::new(Recorder {
            log: vec![],
            chain: 100,
        });
        sim.seed(SimTime::ZERO, 999);
        let s = sim.run_until(SimTime::from_nanos(35), u64::MAX);
        assert!(!s.drained);
        // Events at 0, 10, 20, 30 fire; 40 is beyond the deadline.
        assert_eq!(s.events, 4);
        // Remaining events still run afterwards.
        let s2 = sim.run_until(SimTime::MAX, u64::MAX);
        assert!(s2.drained);
        assert_eq!(sim.model().log.len(), 101);
    }

    #[test]
    fn event_cap_stops_early() {
        let mut sim = Simulation::new(Recorder {
            log: vec![],
            chain: 100,
        });
        sim.seed(SimTime::ZERO, 999);
        let s = sim.run_until(SimTime::MAX, 10);
        assert_eq!(s.events, 10);
        assert!(!s.drained);
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct PastPoster {
            fired: Vec<u64>,
        }
        impl SimModel for PastPoster {
            type Event = u8;
            fn handle(&mut self, now: SimTime, event: u8, sched: &mut Scheduler<u8>) {
                self.fired.push(now.as_nanos());
                if event == 0 {
                    // Deliberately post "in the past": must clamp, not panic.
                    sched.at(SimTime::ZERO, 1);
                }
            }
        }
        let mut sim = Simulation::new(PastPoster { fired: vec![] });
        sim.seed(SimTime::from_nanos(100), 0);
        sim.run_to_completion();
        assert_eq!(sim.model().fired, vec![100, 100]);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = Simulation::new(Recorder {
                log: vec![],
                chain: 20,
            });
            sim.seed(SimTime::from_nanos(7), 999);
            sim.seed(SimTime::from_nanos(7), 1);
            sim.seed(SimTime::from_nanos(3), 2);
            sim.run_to_completion();
            sim.into_model().log
        };
        assert_eq!(run(), run());
    }
}
