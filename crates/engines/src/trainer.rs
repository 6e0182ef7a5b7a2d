//! NVCaffe-like data-parallel training engine.
//!
//! One solver thread per GPU (§3.4.3: every GPU isolated, fed through its
//! own Trans Queue pair). Each iteration: pop a device batch → forward →
//! backward → (barrier) allreduce → update → recycle the device buffer.
//! Kernel durations come from the calibrated `dlb-gpu` timing model and run
//! as scaled waits on per-solver compute streams; host CPU charges (launch /
//! transform / update) follow the same model (Fig. 6(d)).

use crate::metrics::{CpuCostBreakdown, EngineClock};
use dlb_gpu::stream::GpuOp;
use dlb_gpu::{GpuDevice, GpuTimingModel, ModelZoo, Precision, StreamSet};
use dlb_simcore::SimTime;
use dlb_telemetry::{names, Telemetry};
use dlbooster_core::{Dispatcher, PreprocessBackend};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Training-session parameters.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Which network to train.
    pub model: ModelZoo,
    /// Images per GPU per iteration.
    pub batch_size: u32,
    /// Compute precision (training experiments use fp32).
    pub precision: Precision,
    /// Iterations each solver runs.
    pub iterations: u64,
    /// Wall-time compression for the functional kernels (0 = don't sleep).
    pub time_scale: f64,
    /// GPU contention from a device-resident decode backend (nvJPEG).
    pub gpu_background_share: f64,
}

/// What a training session measured.
#[derive(Debug)]
pub struct TrainingReport {
    /// Backend name used.
    pub backend: &'static str,
    /// Model trained.
    pub model: ModelZoo,
    /// GPUs used.
    pub n_gpus: usize,
    /// Total images consumed.
    pub images: u64,
    /// Total iterations retired across solvers.
    pub iterations: u64,
    /// Modelled GPU time of the *slowest* solver (per-GPU pipeline time).
    pub modelled_time: SimTime,
    /// Modelled end-to-end throughput in images/s (all GPUs).
    pub modelled_throughput: f64,
    /// Wall-clock duration of the functional run.
    pub wall: Duration,
    /// Host CPU cost breakdown (engine side).
    pub engine_cpu: CpuCostBreakdown,
    /// Backend CPU busy nanos (preprocessing side).
    pub backend_cpu_nanos: u64,
}

/// A data-parallel training session (drives solvers + dispatcher).
pub struct TrainingSession;

impl TrainingSession {
    /// Runs training end to end on `backend` over `gpus`, consuming
    /// `config.iterations` batches per GPU.
    pub fn run(
        backend: Arc<dyn PreprocessBackend>,
        gpus: &[GpuDevice],
        config: &TrainingConfig,
    ) -> TrainingReport {
        Self::run_with_telemetry(backend, gpus, config, &Telemetry::with_defaults())
    }

    /// Like [`TrainingSession::run`], but recording `engine.*` and
    /// `dispatcher.*` metrics into the shared pipeline `telemetry`.
    pub fn run_with_telemetry(
        backend: Arc<dyn PreprocessBackend>,
        gpus: &[GpuDevice],
        config: &TrainingConfig,
        telemetry: &Telemetry,
    ) -> TrainingReport {
        assert!(!gpus.is_empty(), "need at least one GPU");
        assert!(config.iterations > 0 && config.batch_size > 0);
        let n = gpus.len();
        let model = config.model.model();
        let (c, h, w) = config.model.input_dims();
        let image_bytes = c as u64 * h as u64 * w as u64;
        let unit_bytes = backend.max_batch_bytes();

        // One copy stream per solver for the dispatcher, plus compute
        // streams inside the solver loop.
        let copy_streams = Arc::new(StreamSet::new("copy", n, config.time_scale));
        let compute_streams = Arc::new(StreamSet::new("compute", n, config.time_scale));
        let pcie = gpus[0].spec().pcie_bytes_per_sec;
        let dispatcher = Dispatcher::start_with_telemetry(
            Arc::clone(&backend),
            Arc::clone(&copy_streams),
            n,
            4,
            pcie,
            telemetry,
        );
        let engine_batches = telemetry.registry.counter(names::ENGINE_BATCHES);
        let batch_wait = telemetry.registry.histogram(names::ENGINE_BATCH_WAIT);
        let compute = telemetry.registry.histogram(names::ENGINE_COMPUTE);

        let clock = Arc::new(EngineClock::new());
        let engine_cpu = Arc::new(CpuCostBreakdown::new());
        let barrier = Arc::new(Barrier::new(n));
        let wall_start = Instant::now();
        let mut per_solver_modelled = vec![SimTime::ZERO; n];

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (slot, gpu) in gpus.iter().enumerate() {
                let tq = dispatcher.trans_queues(slot);
                let clock = Arc::clone(&clock);
                let engine_cpu = Arc::clone(&engine_cpu);
                let barrier = Arc::clone(&barrier);
                let compute_streams = Arc::clone(&compute_streams);
                let mut timing = GpuTimingModel::new(gpu.spec(), &model, config.precision);
                timing.set_background_share(config.gpu_background_share);
                let config = config.clone();
                let engine_batches = Arc::clone(&engine_batches);
                let batch_wait = Arc::clone(&batch_wait);
                let compute = Arc::clone(&compute);
                handles.push(scope.spawn(move || {
                    gpu.bind(&format!("solver-{slot}")).expect("free device");
                    // Seed the free trans queue with double buffers.
                    for _ in 0..2 {
                        tq.free
                            .push(gpu.alloc(unit_bytes).expect("device memory"))
                            .expect("fresh queue");
                    }
                    let mut modelled = SimTime::ZERO;
                    for _iter in 0..config.iterations {
                        let waited = Instant::now();
                        let Ok(db) = tq.full.pop() else { break };
                        batch_wait.record_duration(waited.elapsed());
                        engine_batches.inc();
                        let images = db.items.len() as u64;
                        // Host-side input transform charge.
                        engine_cpu.transform_nanos.fetch_add(
                            timing
                                .transform_cpu_time(images as u32, image_bytes)
                                .as_nanos(),
                            Ordering::Relaxed,
                        );
                        // Forward + backward on the compute stream.
                        let fwd = timing.forward_time(config.batch_size);
                        let bwd = timing.backward_time(config.batch_size);
                        let stream = compute_streams.stream(slot);
                        stream.enqueue(GpuOp::Kernel {
                            name: "forward".into(),
                            duration: Duration::from_nanos(fwd.as_nanos()),
                        });
                        stream.enqueue(GpuOp::Kernel {
                            name: "backward".into(),
                            duration: Duration::from_nanos(bwd.as_nanos()),
                        });
                        engine_cpu.launch_nanos.fetch_add(
                            timing.launch_cpu_time(fwd + bwd, true).as_nanos(),
                            Ordering::Relaxed,
                        );
                        stream.synchronize();
                        // Gradient synchronisation across solvers.
                        let allreduce = timing.allreduce_time(n as u32);
                        if n > 1 {
                            barrier.wait();
                        }
                        // Optimiser step.
                        let upd = timing.update_time();
                        engine_cpu.update_nanos.fetch_add(
                            timing.update_cpu_time(config.batch_size).as_nanos(),
                            Ordering::Relaxed,
                        );
                        let iter_time = fwd + bwd + allreduce + upd;
                        compute.record(iter_time.as_nanos());
                        modelled += iter_time;
                        clock.record_batch(images);
                        // Return the device buffer for the next copy.
                        if tq.free.push(db.dev).is_err() {
                            break;
                        }
                    }
                    gpu.unbind();
                    modelled
                }));
            }
            for (slot, h) in handles.into_iter().enumerate() {
                per_solver_modelled[slot] = h.join().expect("solver panicked");
            }
        });

        backend.shutdown();
        let wall = wall_start.elapsed();
        let modelled_time = per_solver_modelled
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        let images = clock.images();
        let modelled_throughput = if modelled_time == SimTime::ZERO {
            0.0
        } else {
            images as f64 / modelled_time.as_secs_f64()
        };
        // Preprocessing CPU is whatever the backend burned.
        let backend_cpu_nanos = backend.cpu_busy_nanos();
        engine_cpu
            .preprocessing_nanos
            .store(backend_cpu_nanos, Ordering::Relaxed);
        let report = TrainingReport {
            backend: backend.name(),
            model: config.model,
            n_gpus: n,
            images,
            iterations: clock.iterations(),
            modelled_time,
            modelled_throughput,
            wall,
            engine_cpu: Arc::try_unwrap(engine_cpu).unwrap_or_default(),
            backend_cpu_nanos,
        };
        dispatcher.join();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_backends::{CpuBackend, CpuBackendConfig};
    use dlb_gpu::GpuSpec;
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};
    use dlbooster_core::{CombinedResolver, DataCollector};

    fn cpu_backend(n_engines: usize, batch: usize, max: u64) -> Arc<CpuBackend> {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 12), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 1));
        Arc::new(
            CpuBackend::start(
                collector,
                Arc::new(CombinedResolver::disk_only(disk)),
                CpuBackendConfig {
                    n_engines,
                    batch_size: batch,
                    target_w: 28,
                    target_h: 28,
                    workers: 2,
                    max_batches: Some(max),
                    sample_cache: None,
                },
            )
            .unwrap(),
        )
    }

    fn config(iterations: u64) -> TrainingConfig {
        TrainingConfig {
            model: ModelZoo::LeNet5,
            batch_size: 4,
            precision: Precision::Fp32,
            iterations,
            time_scale: 0.0,
            gpu_background_share: 0.0,
        }
    }

    #[test]
    fn single_gpu_training_runs_to_completion() {
        let backend = cpu_backend(1, 4, 6);
        let gpus = vec![GpuDevice::new(GpuSpec::tesla_p100(), 0)];
        let report = TrainingSession::run(backend, &gpus, &config(6));
        assert_eq!(report.iterations, 6);
        assert_eq!(report.images, 24);
        assert_eq!(report.n_gpus, 1);
        assert!(report.modelled_time > SimTime::ZERO);
        assert!(report.modelled_throughput > 0.0);
        assert!(report.backend_cpu_nanos > 0);
        let launch = &report.engine_cpu.launch_nanos;
        assert!(launch.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    fn two_gpu_training_splits_batches() {
        let backend = cpu_backend(2, 4, 8);
        let gpus: Vec<GpuDevice> = (0..2)
            .map(|i| GpuDevice::new(GpuSpec::tesla_p100(), i))
            .collect();
        let report = TrainingSession::run(backend, &gpus, &config(4));
        assert_eq!(report.iterations, 8, "4 per solver");
        assert_eq!(report.images, 32);
        assert_eq!(report.n_gpus, 2);
    }

    #[test]
    fn contention_reduces_modelled_throughput() {
        let fast = {
            let backend = cpu_backend(1, 4, 4);
            let gpus = vec![GpuDevice::new(GpuSpec::tesla_p100(), 0)];
            TrainingSession::run(backend, &gpus, &config(4)).modelled_throughput
        };
        let slow = {
            let backend = cpu_backend(1, 4, 4);
            let gpus = vec![GpuDevice::new(GpuSpec::tesla_p100(), 0)];
            let mut c = config(4);
            c.gpu_background_share = 0.3;
            TrainingSession::run(backend, &gpus, &c).modelled_throughput
        };
        assert!(
            slow < fast * 0.85,
            "30% steal should slow training: {slow:.0} vs {fast:.0}"
        );
    }
}
