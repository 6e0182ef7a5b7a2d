//! Functional CUDA-stream analogue.
//!
//! Algorithm 3 needs exactly three stream semantics: `CudaMemcpyAsync` on a
//! per-solver copy stream, kernel launches, and `CudaStreamSync`. A
//! [`GpuStream`] provides them: a worker thread executes enqueued ops in
//! order; async memcpys *really move the bytes* from the host batch unit
//! into the device buffer (so downstream consumers can verify pixels), and
//! op durations follow the timing model scaled by a configurable factor so
//! examples and tests run fast while preserving relative costs.

use crate::device::DeviceBuffer;
use dlb_chaos::{FaultKind, StageInjector};
use dlb_membridge::BatchUnit;
use parking_lot::{Condvar, Mutex};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// An operation enqueued on a stream.
pub enum GpuOp {
    /// Asynchronous host→device copy: gathers `host`'s payload — inline
    /// bytes and lent windows at their item offsets — into `dev`. Both
    /// resources travel with the op and come back on completion —
    /// Algorithm 3's `working_queue[HST]` / `working_queue[DEV]` pattern;
    /// recycling the unit afterwards returns its loans.
    MemcpyH2D {
        /// Source batch unit.
        host: BatchUnit,
        /// Destination device buffer.
        dev: DeviceBuffer,
        /// Modelled transfer duration (already time-scaled by the caller or
        /// scaled by the stream's factor).
        duration: Duration,
    },
    /// A compute kernel of a modelled duration.
    Kernel {
        /// Kernel label (diagnostics).
        name: String,
        /// Modelled execution time.
        duration: Duration,
    },
}

/// A completed operation, as returned by [`GpuStream::synchronize`].
pub enum CompletedOp {
    /// The copy finished; resources returned for recycling.
    MemcpyH2D {
        /// The source unit (recycle to the pool).
        host: BatchUnit,
        /// The destination buffer, now holding the batch.
        dev: DeviceBuffer,
        /// Set if the copy failed (e.g. buffer too small).
        error: Option<String>,
    },
    /// The kernel retired.
    Kernel {
        /// Kernel label.
        name: String,
    },
}

struct StreamShared {
    completed: Mutex<CompletedState>,
    cv: Condvar,
}

struct CompletedState {
    done: Vec<CompletedOp>,
    enqueued: u64,
    retired: u64,
    closed: bool,
}

/// One in-order execution stream bound to a worker thread.
pub struct GpuStream {
    tx: Option<crossbeam::channel::Sender<GpuOp>>,
    shared: Arc<StreamShared>,
    worker: Option<JoinHandle<()>>,
    name: String,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
}

impl GpuStream {
    /// Creates a stream whose op durations are multiplied by `time_scale`
    /// before being slept.
    pub fn new(name: &str, time_scale: f64) -> Self {
        assert!(time_scale >= 0.0 && time_scale.is_finite());
        let (tx, rx) = crossbeam::channel::unbounded::<GpuOp>();
        let shared = Arc::new(StreamShared {
            completed: Mutex::new(CompletedState {
                done: Vec::new(),
                enqueued: 0,
                retired: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        let sh = Arc::clone(&shared);
        let scale = time_scale;
        let chaos: Arc<OnceLock<Arc<StageInjector>>> = Arc::new(OnceLock::new());
        let ch = Arc::clone(&chaos);
        let worker = std::thread::Builder::new()
            .name(format!("gpu-stream-{name}"))
            .spawn(move || {
                let mut ordinal = 0u64;
                while let Ok(op) = rx.recv() {
                    let completed = execute(op, scale, ch.get(), ordinal);
                    ordinal += 1;
                    let mut st = sh.completed.lock();
                    st.done.push(completed);
                    st.retired += 1;
                    sh.cv.notify_all();
                }
                let mut st = sh.completed.lock();
                st.closed = true;
                sh.cv.notify_all();
            })
            .expect("spawn stream worker");
        Self {
            tx: Some(tx),
            shared,
            worker: Some(worker),
            name: name.to_string(),
            chaos,
        }
    }

    /// Attaches a chaos injector for the GPU plane: copy-slot delays and
    /// failed host→device copies (the op completes with an error and both
    /// resources still return — no unit is ever lost). Faults are keyed by
    /// the op's position in this stream's submission order. One-shot.
    pub fn attach_chaos(&self, injector: Arc<StageInjector>) {
        let _ = self.chaos.set(injector);
    }

    /// Enqueues an op (returns immediately — the async of
    /// `CudaMemcpyAsync`).
    pub fn enqueue(&self, op: GpuOp) {
        let mut st = self.shared.completed.lock();
        st.enqueued += 1;
        drop(st);
        self.tx
            .as_ref()
            .expect("stream alive")
            .send(op)
            .expect("worker alive");
    }

    /// Blocks until every enqueued op has retired (`CudaStreamSync`),
    /// returning the completed ops in retirement order.
    pub fn synchronize(&self) -> Vec<CompletedOp> {
        let mut st = self.shared.completed.lock();
        while st.retired < st.enqueued {
            self.shared.cv.wait(&mut st);
        }
        std::mem::take(&mut st.done)
    }

    /// Ops enqueued minus retired.
    pub(crate) fn pending(&self) -> u64 {
        let st = self.shared.completed.lock();
        st.enqueued - st.retired
    }
}

impl Drop for GpuStream {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for GpuStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuStream")
            .field("name", &self.name)
            .field("pending", &self.pending())
            .finish()
    }
}

fn execute(op: GpuOp, scale: f64, chaos: Option<&Arc<StageInjector>>, ordinal: u64) -> CompletedOp {
    // Chaos: copy slots can be delayed (slot contention) or fail outright.
    // Kernels are left alone — the fault model targets the copy engine.
    let mut fail_copy = false;
    if let Some(inj) = chaos {
        if matches!(op, GpuOp::MemcpyH2D { .. }) {
            match inj.decide(ordinal) {
                Some(FaultKind::Delay(d)) => {
                    inj.sleep(d);
                }
                Some(_) => fail_copy = true,
                None => {}
            }
        }
    }
    match op {
        GpuOp::MemcpyH2D {
            host,
            mut dev,
            duration,
        } => {
            sleep_scaled(duration, scale);
            let n = host.used();
            let error = if fail_copy {
                Some("chaos: injected H2D copy failure".to_string())
            } else if n > dev.len() {
                Some(format!("device buffer {} < payload {}", dev.len(), n))
            } else {
                host.gather_into(dev.bytes_mut());
                None
            };
            CompletedOp::MemcpyH2D { host, dev, error }
        }
        GpuOp::Kernel { name, duration } => {
            sleep_scaled(duration, scale);
            CompletedOp::Kernel { name }
        }
    }
}

fn sleep_scaled(d: Duration, scale: f64) {
    if scale <= 0.0 {
        return;
    }
    let scaled = d.mul_f64(scale);
    if scaled > Duration::ZERO {
        std::thread::sleep(scaled);
    }
}

/// A set of streams, one per GPU engine (each solver gets an isolated copy
/// stream, §3.4.3).
#[derive(Debug)]
pub struct StreamSet {
    streams: Vec<GpuStream>,
}

impl StreamSet {
    /// `n` streams named `prefix-<i>`.
    pub fn new(prefix: &str, n: usize, time_scale: f64) -> Self {
        Self {
            streams: (0..n)
                .map(|i| GpuStream::new(&format!("{prefix}-{i}"), time_scale))
                .collect(),
        }
    }

    /// Stream for engine `i`.
    pub fn stream(&self, i: usize) -> &GpuStream {
        &self.streams[i]
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{GpuDevice, GpuSpec};
    use dlb_membridge::{MemManager, PoolConfig};

    fn pool_and_device() -> (MemManager, GpuDevice) {
        (
            MemManager::new(PoolConfig {
                unit_size: 4096,
                unit_count: 4,
                phys_base: 0x4_0000_0000,
            })
            .unwrap(),
            GpuDevice::new(GpuSpec::tesla_p100(), 0),
        )
    }

    #[test]
    fn memcpy_moves_bytes_and_returns_resources() {
        let (pool, dev) = pool_and_device();
        let stream = GpuStream::new("t0", 0.0);
        let mut unit = pool.get_item().unwrap();
        unit.append(&[9, 8, 7, 6, 5], 1, 1, 5, 1).unwrap();
        let buf = dev.alloc(4096).unwrap();
        stream.enqueue(GpuOp::MemcpyH2D {
            host: unit,
            dev: buf,
            duration: Duration::from_micros(100),
        });
        let done = stream.synchronize();
        assert_eq!(done.len(), 1);
        match &done[0] {
            CompletedOp::MemcpyH2D { host, dev, error } => {
                assert!(error.is_none());
                assert_eq!(&dev.bytes()[..5], &[9, 8, 7, 6, 5]);
                assert_eq!(host.used(), 5);
            }
            _ => panic!("wrong op kind"),
        }
    }

    #[test]
    fn ops_retire_in_order() {
        let stream = GpuStream::new("order", 0.0);
        for i in 0..10 {
            stream.enqueue(GpuOp::Kernel {
                name: format!("k{i}"),
                duration: Duration::from_micros(10),
            });
        }
        let done = stream.synchronize();
        let names: Vec<String> = done
            .iter()
            .map(|op| match op {
                CompletedOp::Kernel { name } => name.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, (0..10).map(|i| format!("k{i}")).collect::<Vec<_>>());
        assert_eq!(stream.pending(), 0);
    }

    #[test]
    fn oversized_copy_reports_error() {
        let (pool, dev) = pool_and_device();
        let stream = GpuStream::new("err", 0.0);
        let mut unit = pool.get_item().unwrap();
        unit.append(&[1u8; 100], 0, 10, 10, 1).unwrap();
        let buf = dev.alloc(10).unwrap();
        stream.enqueue(GpuOp::MemcpyH2D {
            host: unit,
            dev: buf,
            duration: Duration::ZERO,
        });
        let done = stream.synchronize();
        match &done[0] {
            CompletedOp::MemcpyH2D { error, .. } => assert!(error.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn time_scale_slows_execution() {
        let fast = GpuStream::new("fast", 0.0);
        let slow = GpuStream::new("slow", 1.0);
        let t0 = std::time::Instant::now();
        fast.enqueue(GpuOp::Kernel {
            name: "k".into(),
            duration: Duration::from_millis(50),
        });
        fast.synchronize();
        let fast_elapsed = t0.elapsed();
        let t1 = std::time::Instant::now();
        slow.enqueue(GpuOp::Kernel {
            name: "k".into(),
            duration: Duration::from_millis(50),
        });
        slow.synchronize();
        let slow_elapsed = t1.elapsed();
        assert!(fast_elapsed < Duration::from_millis(20));
        assert!(slow_elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn stream_set_barrier() {
        let set = StreamSet::new("gpu", 2, 0.0);
        assert_eq!(set.len(), 2);
        for i in 0..2 {
            set.stream(i).enqueue(GpuOp::Kernel {
                name: format!("k-{i}"),
                duration: Duration::from_micros(50),
            });
        }
        let all: Vec<_> = (0..2).map(|i| set.stream(i).synchronize()).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].len() + all[1].len(), 2);
    }

    #[test]
    fn chaos_fails_copies_without_losing_resources() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let (pool, dev) = pool_and_device();
        let t = dlb_telemetry::Telemetry::with_defaults();
        let mut plan = FaultPlan::disabled();
        plan.seed = 5;
        plan.gpu = StageSpec::rate(0.5).with_delay(Duration::from_micros(200));
        let stream = GpuStream::new("chaos", 0.0);
        stream.attach_chaos(plan.injector(Stage::Gpu, &t).unwrap());
        let n = 30;
        for i in 0..n {
            let mut unit = pool.get_item().unwrap();
            unit.append(&[i as u8; 16], i, 4, 4, 1).unwrap();
            let buf = dev.alloc(4096).unwrap();
            stream.enqueue(GpuOp::MemcpyH2D {
                host: unit,
                dev: buf,
                duration: Duration::ZERO,
            });
            // Keep the pool from starving: drain and recycle as we go.
            for op in stream.synchronize() {
                match op {
                    CompletedOp::MemcpyH2D { host, error, .. } => {
                        if let Some(e) = &error {
                            assert!(e.contains("chaos"), "{e}");
                        }
                        pool.recycle_item(host).unwrap();
                    }
                    _ => panic!("wrong op kind"),
                }
            }
        }
        // Every unit came back regardless of copy outcome.
        assert_eq!(pool.free_count(), 4);
        let snap = t.registry.snapshot();
        assert!(
            snap.counter("chaos.injected.gpu") > 0,
            "a 50% rate must inject"
        );
        assert!(
            snap.counter("chaos.injected.gpu") < n,
            "a 50% rate must pass some copies"
        );
    }

    #[test]
    fn synchronize_with_nothing_pending_is_instant() {
        let stream = GpuStream::new("idle", 1.0);
        assert!(stream.synchronize().is_empty());
    }
}
