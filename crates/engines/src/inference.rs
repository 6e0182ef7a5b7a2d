//! TensorRT-like fp16 batched inference engine.
//!
//! Online-inference loop of §5.3: device batches arrive through the
//! dispatcher, a forward pass runs per batch, and per-request latency is
//! measured "from the point when the inference system receives pictures
//! from clients to the point when engines make a prediction".

use crate::metrics::{CpuCostBreakdown, EngineClock};
use dlb_gpu::stream::GpuOp;
use dlb_gpu::{GpuDevice, GpuTimingModel, ModelZoo, Precision, StreamSet};
use dlb_simcore::stats::LatencyStats;
use dlb_simcore::SimTime;
use dlb_telemetry::{names, Telemetry};
use dlbooster_core::{Dispatcher, PreprocessBackend};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inference-session parameters.
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// Which network to serve.
    pub model: ModelZoo,
    /// Images per batch ("batch size" axis of Figs. 7–8).
    pub batch_size: u32,
    /// Precision (paper: fp16 to enable Tensor Cores).
    pub precision: Precision,
    /// Batches to serve per GPU before stopping.
    pub batches: u64,
    /// Wall-time compression.
    pub time_scale: f64,
    /// GPU contention share (nvJPEG backends advertise 0.3).
    pub gpu_background_share: f64,
}

/// What an inference session measured.
#[derive(Debug)]
pub struct InferenceReport {
    /// Backend used.
    pub backend: &'static str,
    /// Model served.
    pub model: ModelZoo,
    /// GPUs used.
    pub n_gpus: usize,
    /// Requests served.
    pub images: u64,
    /// Batches served.
    pub batches: u64,
    /// Modelled GPU time of the slowest engine.
    pub modelled_time: SimTime,
    /// Modelled throughput (images/s, all GPUs).
    pub modelled_throughput: f64,
    /// Modelled per-request latency distribution: queueing-from-arrival is
    /// observable only in the DES layer; functionally this records the
    /// modelled decode→predict pipeline time per batch.
    pub latency: LatencyStats,
    /// Wall duration of the functional run.
    pub wall: Duration,
    /// Engine CPU breakdown.
    pub engine_cpu: CpuCostBreakdown,
    /// Backend CPU busy nanos.
    pub backend_cpu_nanos: u64,
}

/// A batched-inference session.
pub struct InferenceSession;

impl InferenceSession {
    /// Serves `config.batches` batches per GPU from `backend`.
    pub fn run(
        backend: Arc<dyn PreprocessBackend>,
        gpus: &[GpuDevice],
        config: &InferenceConfig,
    ) -> InferenceReport {
        Self::run_with_telemetry(backend, gpus, config, &Telemetry::with_defaults())
    }

    /// Like [`InferenceSession::run`], but recording `engine.*` and
    /// `dispatcher.*` metrics into the shared pipeline `telemetry`.
    pub fn run_with_telemetry(
        backend: Arc<dyn PreprocessBackend>,
        gpus: &[GpuDevice],
        config: &InferenceConfig,
        telemetry: &Telemetry,
    ) -> InferenceReport {
        assert!(!gpus.is_empty() && config.batches > 0 && config.batch_size > 0);
        let n = gpus.len();
        let model = config.model.model();
        let (_c, _h, _w) = config.model.input_dims();
        let unit_bytes = backend.max_batch_bytes();

        let copy_streams = Arc::new(StreamSet::new("icopy", n, config.time_scale));
        let compute_streams = Arc::new(StreamSet::new("icompute", n, config.time_scale));
        let dispatcher = Dispatcher::start_with_telemetry(
            Arc::clone(&backend),
            Arc::clone(&copy_streams),
            n,
            4,
            gpus[0].spec().pcie_bytes_per_sec,
            telemetry,
        );
        let engine_batches = telemetry.registry.counter(names::ENGINE_BATCHES);
        let batch_wait = telemetry.registry.histogram(names::ENGINE_BATCH_WAIT);
        let compute = telemetry.registry.histogram(names::ENGINE_COMPUTE);

        let clock = Arc::new(EngineClock::new());
        let engine_cpu = Arc::new(CpuCostBreakdown::new());
        let latency = Arc::new(Mutex::new(LatencyStats::new()));
        let wall_start = Instant::now();
        let mut per_engine_modelled = vec![SimTime::ZERO; n];

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (slot, gpu) in gpus.iter().enumerate() {
                let tq = dispatcher.trans_queues(slot);
                let clock = Arc::clone(&clock);
                let engine_cpu = Arc::clone(&engine_cpu);
                let latency = Arc::clone(&latency);
                let compute_streams = Arc::clone(&compute_streams);
                let mut timing = GpuTimingModel::new(gpu.spec(), &model, config.precision);
                timing.set_background_share(config.gpu_background_share);
                let config = config.clone();
                let pcie = gpu.spec().pcie_bytes_per_sec;
                let engine_batches = Arc::clone(&engine_batches);
                let batch_wait = Arc::clone(&batch_wait);
                let compute = Arc::clone(&compute);
                handles.push(scope.spawn(move || {
                    for _ in 0..2 {
                        tq.free
                            .push(gpu.alloc(unit_bytes).expect("device memory"))
                            .expect("fresh queue");
                    }
                    let mut modelled = SimTime::ZERO;
                    for _ in 0..config.batches {
                        let waited = Instant::now();
                        let Ok(db) = tq.full.pop() else { break };
                        batch_wait.record_duration(waited.elapsed());
                        engine_batches.inc();
                        let images = db.items.len() as u64;
                        let fwd = timing.forward_time(images as u32);
                        let stream = compute_streams.stream(slot);
                        stream.enqueue(GpuOp::Kernel {
                            name: "infer".into(),
                            duration: Duration::from_nanos(fwd.as_nanos()),
                        });
                        engine_cpu.launch_nanos.fetch_add(
                            timing.launch_cpu_time(fwd, false).as_nanos(),
                            Ordering::Relaxed,
                        );
                        stream.synchronize();
                        // Modelled pipeline latency for this batch: H2D copy
                        // + forward (decode latency is the backend's, added
                        // by the DES; functionally we record the
                        // engine-side component).
                        let copy = SimTime::from_secs_f64(unit_bytes as f64 / pcie);
                        latency.lock().record(copy + fwd);
                        compute.record(fwd.as_nanos());
                        modelled += fwd;
                        clock.record_batch(images);
                        if tq.free.push(db.dev).is_err() {
                            break;
                        }
                    }
                    modelled
                }));
            }
            for (slot, h) in handles.into_iter().enumerate() {
                per_engine_modelled[slot] = h.join().expect("engine panicked");
            }
        });

        backend.shutdown();
        let wall = wall_start.elapsed();
        let modelled_time = per_engine_modelled
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO);
        let images = clock.images();
        let backend_cpu_nanos = backend.cpu_busy_nanos();
        engine_cpu
            .preprocessing_nanos
            .store(backend_cpu_nanos, Ordering::Relaxed);
        let report = InferenceReport {
            backend: backend.name(),
            model: config.model,
            n_gpus: n,
            images,
            batches: clock.iterations(),
            modelled_time,
            modelled_throughput: if modelled_time == SimTime::ZERO {
                0.0
            } else {
                images as f64 / modelled_time.as_secs_f64()
            },
            latency: Arc::try_unwrap(latency)
                .map(|m| m.into_inner())
                .unwrap_or_default(),
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
    use dlb_backends::{NvJpegBackend, NvJpegBackendConfig};
    use dlb_gpu::GpuSpec;
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};
    use dlbooster_core::{CombinedResolver, DataCollector};

    fn nvjpeg_backend(max: u64) -> Arc<NvJpegBackend> {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(12, 17), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut cfg = NvJpegBackendConfig::paper_defaults(1, 4, (32, 32));
        cfg.max_batches = Some(max);
        Arc::new(
            NvJpegBackend::start(collector, Arc::new(CombinedResolver::disk_only(disk)), cfg)
                .unwrap(),
        )
    }

    #[test]
    fn inference_serves_batches_and_measures() {
        let backend = nvjpeg_backend(5);
        let share = backend.gpu_background_share();
        let gpus = vec![GpuDevice::new(GpuSpec::tesla_v100(), 0)];
        let config = InferenceConfig {
            model: ModelZoo::GoogLeNet,
            batch_size: 4,
            precision: Precision::Fp16,
            batches: 5,
            time_scale: 0.0,
            gpu_background_share: share,
        };
        let report = InferenceSession::run(backend, &gpus, &config);
        assert_eq!(report.batches, 5);
        assert_eq!(report.images, 20);
        assert!(report.modelled_throughput > 0.0);
        assert_eq!(report.latency.len(), 5);
        assert!(report.backend_cpu_nanos > 0);
        // The modelled throughput must beat half the bs=1 bound (batching
        // can only help; Fig. 7 shape).
        let timing = GpuTimingModel::new(
            &GpuSpec::tesla_v100(),
            &ModelZoo::GoogLeNet.model(),
            Precision::Fp16,
        );
        assert!(report.modelled_throughput > timing.inference_throughput(1) * 0.5);
    }

    #[test]
    fn contention_shows_in_latency() {
        let run = |share: f64| {
            let backend = nvjpeg_backend(3);
            let gpus = vec![GpuDevice::new(GpuSpec::tesla_v100(), 0)];
            let config = InferenceConfig {
                model: ModelZoo::ResNet50,
                batch_size: 4,
                precision: Precision::Fp16,
                batches: 3,
                time_scale: 0.0,
                gpu_background_share: share,
            };
            let mut r = InferenceSession::run(backend, &gpus, &config);
            r.latency.median()
        };
        let clean = run(0.0);
        let contended = run(0.3);
        assert!(
            contended > clean,
            "contention must raise latency: {contended} vs {clean}"
        );
    }
}
