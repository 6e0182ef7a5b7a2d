//! Stall watchdog: stages register a heartbeat tied to a queue-depth
//! gauge; a stage whose queue holds work but whose heartbeat has not
//! advanced within the threshold is flagged as stalled.

use crate::metrics::Gauge;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Progress pulse for one stage. Cheap to beat from hot paths.
#[derive(Debug)]
pub struct Heartbeat {
    epoch: Instant,
    last_nanos: AtomicU64,
}

impl Heartbeat {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            last_nanos: AtomicU64::new(0),
        }
    }

    /// Records progress now.
    pub fn beat(&self) {
        let nanos = self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.last_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Time since the last beat (or since registration when never beaten).
    pub(crate) fn idle(&self) -> Duration {
        let last = Duration::from_nanos(self.last_nanos.load(Ordering::Relaxed));
        self.epoch.elapsed().saturating_sub(last)
    }
}

struct Watched {
    stage: String,
    heartbeat: Arc<Heartbeat>,
    depth: Arc<Gauge>,
}

/// Progress state of one watched stage, captured when a stall trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueProgress {
    /// Stage name as registered.
    pub stage: String,
    /// Time since this stage last made progress.
    pub last_progress: Duration,
    /// Queue depth right now (0 for stages watched without a depth gauge).
    pub depth: i64,
}

/// One stalled stage, as reported by [`Watchdog::stalled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Stage name as registered.
    pub stage: String,
    /// Time since the stage last made progress.
    pub idle: Duration,
    /// Queue depth at detection time (0 for stages watched without a
    /// depth gauge).
    pub depth: i64,
    /// Progress age + depth of *every* watched stage, captured at trip
    /// time, so one stall report alone localizes the wedged stage.
    pub queues: Vec<QueueProgress>,
}

/// Flags stage queues that hold work but have stopped moving.
pub struct Watchdog {
    threshold: Duration,
    epoch: Instant,
    watched: Mutex<Vec<Watched>>,
}

impl Watchdog {
    /// Watchdog flagging stages idle longer than `threshold` while their
    /// queue is non-empty.
    pub(crate) fn new(threshold: Duration) -> Self {
        Self {
            threshold,
            epoch: Instant::now(),
            watched: Mutex::new(Vec::new()),
        }
    }

    /// Registers a stage whose stall condition is "queue non-empty and no
    /// beat for threshold". Returns the heartbeat to pulse on progress.
    pub fn watch_queue(&self, stage: &str, depth: Arc<Gauge>) -> Arc<Heartbeat> {
        let hb = Arc::new(Heartbeat::new(self.epoch));
        hb.beat(); // registration counts as progress
        self.watched
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Watched {
                stage: stage.to_string(),
                heartbeat: Arc::clone(&hb),
                depth,
            });
        hb
    }

    fn progress_of(watched: &[Watched]) -> Vec<QueueProgress> {
        watched
            .iter()
            .map(|w| QueueProgress {
                stage: w.stage.clone(),
                last_progress: w.heartbeat.idle(),
                depth: w.depth.get(),
            })
            .collect()
    }

    /// Stages currently stalled, worst (longest idle) first. Each report
    /// carries a [`QueueProgress`] snapshot of every watched stage taken at
    /// trip time (computed once, only when something actually stalled).
    pub fn stalled(&self) -> Vec<StallReport> {
        let watched = self.watched.lock().unwrap_or_else(|p| p.into_inner());
        let mut queues: Option<Vec<QueueProgress>> = None;
        let mut reports: Vec<StallReport> = watched
            .iter()
            .filter_map(|w| {
                let idle = w.heartbeat.idle();
                if idle <= self.threshold {
                    return None;
                }
                let depth = w.depth.get();
                // An empty queue is idle, not stalled.
                if depth <= 0 {
                    return None;
                }
                let queues = queues
                    .get_or_insert_with(|| Self::progress_of(&watched))
                    .clone();
                Some(StallReport {
                    stage: w.stage.clone(),
                    idle,
                    depth,
                    queues,
                })
            })
            .collect();
        reports.sort_by_key(|r| std::cmp::Reverse(r.idle));
        reports
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("threshold", &self.threshold)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_empty_queue_is_not_stalled() {
        let wd = Watchdog::new(Duration::from_millis(5));
        let depth = Arc::new(Gauge::new());
        let _hb = wd.watch_queue("q", Arc::clone(&depth));
        std::thread::sleep(Duration::from_millis(15));
        assert!(wd.stalled().is_empty());
    }

    #[test]
    fn loaded_quiet_queue_trips() {
        let wd = Watchdog::new(Duration::from_millis(5));
        let depth = Arc::new(Gauge::new());
        let _hb = wd.watch_queue("q", Arc::clone(&depth));
        depth.set(3);
        std::thread::sleep(Duration::from_millis(15));
        let stalls = wd.stalled();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].stage, "q");
        assert_eq!(stalls[0].depth, 3);
        assert!(stalls[0].idle >= Duration::from_millis(5));
    }

    #[test]
    fn beating_keeps_stage_healthy() {
        let wd = Watchdog::new(Duration::from_millis(20));
        let depth = Arc::new(Gauge::new());
        let hb = wd.watch_queue("q", Arc::clone(&depth));
        depth.set(1);
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(4));
            hb.beat();
        }
        assert!(wd.stalled().is_empty());
    }

    #[test]
    fn stall_report_snapshots_all_watched_queues() {
        let wd = Watchdog::new(Duration::from_millis(5));
        let depth_a = Arc::new(Gauge::new());
        let depth_b = Arc::new(Gauge::new());
        let _hb_a = wd.watch_queue("wedged", Arc::clone(&depth_a));
        let hb_b = wd.watch_queue("healthy", Arc::clone(&depth_b));
        depth_a.set(7);
        depth_b.set(2);
        std::thread::sleep(Duration::from_millis(15));
        hb_b.beat();
        let stalls = wd.stalled();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].stage, "wedged");
        // The trip-time snapshot covers every watched stage, including the
        // healthy one, with its depth and last-progress age.
        assert_eq!(stalls[0].queues.len(), 2);
        let wedged = stalls[0]
            .queues
            .iter()
            .find(|q| q.stage == "wedged")
            .unwrap();
        let healthy = stalls[0]
            .queues
            .iter()
            .find(|q| q.stage == "healthy")
            .unwrap();
        assert_eq!(wedged.depth, 7);
        assert!(wedged.last_progress >= Duration::from_millis(5));
        assert_eq!(healthy.depth, 2);
        assert!(healthy.last_progress < Duration::from_millis(5));
    }
}
