//! Queueing building blocks: k-server FIFO stations and serialising pipes.
//!
//! These are *passive* helpers: they hold queue state and compute admission /
//! completion transitions, while the owning [`SimModel`](crate::SimModel)
//! decides what events to post. Keeping them event-free makes them reusable
//! across every substrate and trivially testable.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A FIFO service station with `capacity` parallel servers.
///
/// Typical use inside a model:
/// 1. on job arrival, call [`FifoStation::admit`]; if it returns the job,
///    compute its service time and post a completion event;
/// 2. on completion, call [`FifoStation::complete`]; if it returns a queued
///    job, post that job's completion event.
#[derive(Debug, Clone)]
pub struct FifoStation<J> {
    capacity: usize,
    in_service: usize,
    queue: VecDeque<J>,
}

impl<J> FifoStation<J> {
    /// A station with `capacity ≥ 1` parallel servers.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "station needs at least one server");
        Self {
            capacity,
            in_service: 0,
            queue: VecDeque::new(),
        }
    }

    /// Offers a job. Returns `Some(job)` if a server is free and the job
    /// starts service immediately; otherwise the job is queued and `None` is
    /// returned.
    pub fn admit(&mut self, job: J) -> Option<J> {
        if self.in_service < self.capacity {
            self.in_service += 1;
            Some(job)
        } else {
            self.queue.push_back(job);
            None
        }
    }

    /// Records a service completion. Returns the next job to start, if any.
    pub fn complete(&mut self) -> Option<J> {
        debug_assert!(self.in_service > 0, "completion without service");
        match self.queue.pop_front() {
            Some(job) => Some(job), // server stays busy with the next job
            None => {
                self.in_service -= 1;
                None
            }
        }
    }

    /// Servers currently serving.
    pub fn busy(&self) -> usize {
        self.in_service
    }

    /// Jobs waiting (not yet in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// A serialising bandwidth resource (NVMe channel, PCIe link, NIC wire):
/// transfers go out back-to-back at a fixed byte rate, each additionally
/// paying a fixed per-operation latency.
///
/// This is the standard "store-and-forward link" approximation — accurate
/// for the bulk DMA/readback traffic these experiments model, where
/// per-transfer sizes are large and uniform.
#[derive(Debug, Clone)]
pub struct SerialPipe {
    bytes_per_sec: f64,
    fixed_latency: SimTime,
    busy_until: SimTime,
    total_bytes: u64,
}

impl SerialPipe {
    /// A pipe with the given bandwidth and fixed per-op latency.
    pub fn new(bytes_per_sec: f64, fixed_latency: SimTime) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Self {
            bytes_per_sec,
            fixed_latency,
            busy_until: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// Enqueues a transfer of `bytes` submitted at `now`; returns the time
    /// the last byte arrives.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.busy_until);
        let wire = SimTime::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        let done = start + wire + self.fixed_latency;
        self.busy_until = start + wire; // latency overlaps with the next op
        self.total_bytes += bytes;
        done
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// A processor-sharing resource where concurrent users each get an equal
/// share — used to model CUDA-core contention between nvJPEG decode kernels
/// and inference kernels (paper §5.3: "the CUDA cores are competed between
/// the inference engine and nvJPEG").
///
/// Rather than tracking fluid sharing exactly, this helper exposes the
/// *slowdown factor* for a job given the fraction of the device reserved by
/// other tenants — which is how the GPU substrate consumes it.
#[derive(Debug, Clone, Copy)]
pub struct SharedCapacity {
    /// Fraction of the device (0.0–1.0) currently claimed by background work.
    background_share: f64,
}

impl SharedCapacity {
    /// A resource with no background load.
    pub fn new() -> Self {
        Self {
            background_share: 0.0,
        }
    }

    /// Sets the background share, clamped to `[0.0, 0.95]` (a device is
    /// never fully stolen; the scheduler preserves a minimum share).
    pub fn set_background_share(&mut self, share: f64) {
        self.background_share = share.clamp(0.0, 0.95);
    }

    /// Scales a nominal service time by contention: with share `s` stolen,
    /// the foreground job runs on `1 - s` of the device.
    pub fn stretch(&self, nominal: SimTime) -> SimTime {
        SimTime::from_secs_f64(nominal.as_secs_f64() / (1.0 - self.background_share))
    }
}

impl Default for SharedCapacity {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_admits_up_to_capacity() {
        let mut st = FifoStation::new(2);
        assert!(st.admit(1).is_some());
        assert!(st.admit(2).is_some());
        assert!(st.admit(3).is_none());
        assert_eq!(st.busy(), 2);
        assert_eq!(st.queued(), 1);
    }

    #[test]
    fn station_completion_pulls_queue_fifo() {
        let mut st = FifoStation::new(1);
        assert_eq!(st.admit(10), Some(10));
        assert!(st.admit(20).is_none());
        assert!(st.admit(30).is_none());
        assert_eq!(st.complete(), Some(20));
        assert_eq!(st.complete(), Some(30));
        assert_eq!(st.complete(), None);
        assert_eq!((st.busy(), st.queued()), (0, 0), "idle");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_station_panics() {
        let _ = FifoStation::<u8>::new(0);
    }

    #[test]
    fn pipe_serialises_transfers() {
        // 1000 bytes/s, no latency: two 500-byte ops take 0.5s each.
        let mut p = SerialPipe::new(1000.0, SimTime::ZERO);
        let t1 = p.transfer(SimTime::ZERO, 500);
        let t2 = p.transfer(SimTime::ZERO, 500);
        assert_eq!(t1, SimTime::from_millis(500));
        assert_eq!(t2, SimTime::from_secs(1));
        assert_eq!(p.total_bytes(), 1000);
    }

    #[test]
    fn pipe_idles_between_sparse_transfers() {
        let mut p = SerialPipe::new(1000.0, SimTime::ZERO);
        let _ = p.transfer(SimTime::ZERO, 100);
        // Next op submitted long after the pipe drained: starts immediately.
        let t = p.transfer(SimTime::from_secs(10), 100);
        assert_eq!(t, SimTime::from_secs(10) + SimTime::from_millis(100));
    }

    #[test]
    fn pipe_fixed_latency_adds_but_does_not_serialise() {
        let lat = SimTime::from_micros(10);
        let mut p = SerialPipe::new(1e9, lat);
        let t1 = p.transfer(SimTime::ZERO, 1000);
        let t2 = p.transfer(SimTime::ZERO, 1000);
        // Each op pays the latency, but the wire frees up before it elapses.
        assert_eq!(t1, SimTime::from_micros(1) + lat);
        assert_eq!(t2, SimTime::from_micros(2) + lat);
    }

    #[test]
    fn shared_capacity_stretch() {
        let mut sc = SharedCapacity::new();
        let nominal = SimTime::from_millis(10);
        assert_eq!(sc.stretch(nominal), nominal);
        sc.set_background_share(0.5);
        assert_eq!(sc.stretch(nominal), SimTime::from_millis(20));
        sc.set_background_share(2.0); // clamps to 0.95
        let stretched = sc.stretch(nominal);
        assert!((stretched.as_secs_f64() - 0.2).abs() < 1e-9);
    }
}
