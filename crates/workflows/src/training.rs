//! The offline-training discrete-event simulation (Figs. 2, 5, 6).
//!
//! Topology per the paper's testbed: `n_gpus` P100 solvers run synchronous
//! data-parallel SGD; a preprocessing backend feeds per-GPU prefetch queues;
//! each iteration is `copy → forward → backward → allreduce (barrier) →
//! update`. Throughput is measured over a warmup-trimmed window; CPU cost is
//! busy-time accounting per activity (the Fig. 6(d) decomposition).
//!
//! Backend service models:
//! * **CPU-based(w workers)** — an aggregate decode pipeline of rate
//!   `w / cpu_decode_time` images/s shared by all GPUs.
//! * **LMDB** — per-GPU readers on a shared DB; per-reader bandwidth decays
//!   with reader count (the ≈30 % 2-GPU loss of Fig. 5b).
//! * **DLBooster** — a singleton FPGA pipeline served batch-by-batch from
//!   the calibrated stage model.
//! * **Synthetic** (= "Performance Upper Boundary" of Fig. 2a) — zero-cost
//!   input.
//!
//! The §3.1 hybrid cache applies to every backend the way §5.2 describes:
//! once the decoded dataset fits DRAM (MNIST), epochs ≥ 1 are memory reads —
//! but the *baselines* still pay the per-datum small-copy overhead, while
//! DLBooster moves one batch block (the ≈20 % LeNet gap).

use crate::calibration::{BackendKind, Calibration, Workload};
use dlb_gpu::{GpuTimingModel, ModelZoo, Precision};
use dlb_simcore::stats::BusyTracker;
use dlb_simcore::{Scheduler, SimModel, SimTime, Simulation};

/// Input backend for the training sim (paper backends + the ideal bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainBackend {
    /// One of the comparable backends.
    Kind(BackendKind),
    /// Infinite-speed input: the GPU performance upper boundary (Fig. 2a).
    Ideal,
}

/// Training experiment parameters.
#[derive(Debug, Clone)]
pub struct TrainingParams {
    /// Network to train.
    pub model: ModelZoo,
    /// Dataset statistics.
    pub workload: Workload,
    /// Backend under test.
    pub backend: TrainBackend,
    /// Data-parallel GPUs.
    pub n_gpus: u32,
    /// Images per GPU per iteration.
    pub batch_size: u32,
    /// Decode workers for the CPU backend (ignored otherwise).
    pub cpu_workers: u32,
    /// Iterations per GPU to simulate.
    pub iterations: u32,
    /// Iterations to discard as warmup.
    pub warmup: u32,
}

impl TrainingParams {
    /// The paper's configuration for `model` (batch sizes from Figs. 5a–c).
    pub fn paper(model: ModelZoo, backend: TrainBackend, n_gpus: u32) -> Self {
        let workload = match model {
            ModelZoo::LeNet5 => Workload::Mnist,
            _ => Workload::Ilsvrc,
        };
        Self {
            model,
            workload,
            backend,
            n_gpus,
            batch_size: model.paper_batch_size(),
            cpu_workers: 12 * n_gpus,
            iterations: 60,
            warmup: 10,
        }
    }
}

/// Measured outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Aggregate steady-state throughput, images/s.
    pub throughput: f64,
    /// Total CPU core-equivalents.
    pub cpu_cores: f64,
    /// Breakdown: (preprocessing, transform, launch, update) cores.
    pub cpu_breakdown: (f64, f64, f64, f64),
    /// Virtual time simulated.
    pub sim_time: SimTime,
    /// Iterations measured (after warmup).
    pub iterations_measured: u64,
}

/// Per-GPU solver phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitingBatch,
    Copying,
    Computing,
    AtBarrier,
    Updating,
}

/// DES events.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Simulation start: prime every GPU's prefetch pipeline.
    Kickoff,
    /// Backend finished producing a batch for `gpu`.
    BatchReady { gpu: u32 },
    /// H2D copy done.
    CopyDone { gpu: u32 },
    /// Forward+backward done.
    ComputeDone { gpu: u32 },
    /// Allreduce for iteration round `round` done (all GPUs).
    AllreduceDone { round: u32 },
    /// Weight update done.
    UpdateDone { gpu: u32 },
}

/// The training simulation model.
pub struct TrainingSim {
    cal: Calibration,
    params: TrainingParams,
    timing: GpuTimingModel,

    // --- backend production state ---
    /// Next time the shared backend pipeline is free.
    backend_free: SimTime,
    /// Next free time of each GPU's private reader (LMDB mode).
    gpu_reader_free: Vec<SimTime>,
    /// Prefetched batches available per GPU.
    ready: Vec<u32>,
    /// Outstanding productions per GPU.
    producing: Vec<u32>,
    /// Images produced so far (epoch/caching state).
    images_produced: u64,

    // --- solver state ---
    phase: Vec<Phase>,
    iter_done: Vec<u32>,
    /// Barrier arrivals for the current round per round index.
    barrier_count: Vec<u32>,

    // --- measurement ---
    preproc: BusyTracker,
    transform: BusyTracker,
    launch: BusyTracker,
    update: BusyTracker,
    /// Time each GPU crossed the warmup threshold.
    warmup_done_at: Vec<Option<SimTime>>,
    finished_at: Vec<Option<SimTime>>,
}

impl TrainingSim {
    /// Builds the model.
    pub(crate) fn new(cal: Calibration, params: TrainingParams) -> Self {
        assert!(params.n_gpus >= 1 && params.batch_size >= 1);
        assert!(params.warmup < params.iterations);
        let precision = Precision::Fp32; // training experiments are fp32
        let timing = GpuTimingModel::new(&cal.train_gpu, &params.model.model(), precision);
        let n = params.n_gpus as usize;
        Self {
            cal,
            timing,
            backend_free: SimTime::ZERO,
            gpu_reader_free: vec![SimTime::ZERO; n],
            ready: vec![0; n],
            producing: vec![0; n],
            images_produced: 0,
            phase: vec![Phase::WaitingBatch; n],
            iter_done: vec![0; n],
            barrier_count: vec![0; params.iterations as usize + 1],
            preproc: BusyTracker::new(),
            transform: BusyTracker::new(),
            launch: BusyTracker::new(),
            update: BusyTracker::new(),
            warmup_done_at: vec![None; n],
            finished_at: vec![None; n],
            params,
        }
    }

    /// True when the decoded dataset is DRAM-resident. The paper's numbers
    /// are steady-state over many epochs, where the first (decode) epoch is
    /// amortised away — so a dataset that fits the cache is modelled as
    /// cached from the start (§5.2: MNIST "can be cached in memory after
    /// the first epoch").
    fn cache_active(&self) -> bool {
        self.params.workload.fits_cache(self.cal.dram_cache_bytes)
    }

    /// Service time for producing one batch for one GPU, plus the CPU busy
    /// time it charges to preprocessing.
    fn batch_service(&self) -> (SimTime, SimTime) {
        let bs = self.params.batch_size as u64;
        let decoded = bs * self.params.workload.decoded_bytes();
        if self.cache_active() {
            // Memory replay: one block copy for everyone. (The baselines'
            // per-datum penalty is charged on the H2D copy path, where
            // Caffe actually pays it — see `maybe_start_iteration`.)
            let block =
                SimTime::from_secs_f64(decoded as f64 / self.cal.memcpy_bytes_per_sec_per_core);
            return match self.params.backend {
                TrainBackend::Ideal => (SimTime::ZERO, SimTime::ZERO),
                TrainBackend::Kind(_) => (block, block),
            };
        }
        match self.params.backend {
            TrainBackend::Ideal => (SimTime::ZERO, SimTime::ZERO),
            TrainBackend::Kind(BackendKind::CpuBased) => {
                let per_image = self.cal.cpu_decode_time(&self.params.workload.image());
                let workers = self.params.cpu_workers.max(1) as f64;
                let service = SimTime::from_secs_f64(per_image.as_secs_f64() * bs as f64 / workers);
                // All `workers` cores are busy for the service duration.
                let busy = SimTime::from_secs_f64(service.as_secs_f64() * workers);
                (service, busy)
            }
            TrainBackend::Kind(BackendKind::Lmdb) => {
                let t = self.cal.lmdb.batch_read_time(decoded, self.params.n_gpus)
                    + SimTime::from_nanos(self.cal.per_datum_copy_overhead.as_nanos() * bs);
                (t, t)
            }
            TrainBackend::Kind(BackendKind::DlBooster) => {
                let images = vec![self.params.workload.image(); bs as usize];
                let service = self.cal.fpga.batch_service_time(&images);
                let host =
                    SimTime::from_nanos(self.cal.dlb_host_per_image_training.as_nanos() * bs);
                (service, host)
            }
            TrainBackend::Kind(BackendKind::NvJpeg) => {
                let img = self.params.workload.image();
                let t = self
                    .cal
                    .nvjpeg
                    .decode_time(bs as u32, img.src_width, img.src_height);
                (t, self.cal.nvjpeg.launch_cpu_time(bs as u32))
            }
        }
    }

    /// Schedules production of one batch for `gpu` if prefetch allows.
    fn maybe_produce(&mut self, gpu: u32, sched: &mut Scheduler<Ev>) {
        const PREFETCH: u32 = 2;
        let g = gpu as usize;
        if self.ready[g] + self.producing[g] >= PREFETCH {
            return;
        }
        if self.iter_done[g] + self.ready[g] + self.producing[g] >= self.params.iterations {
            return; // enough batches for the whole run
        }
        let (service, busy) = self.batch_service();
        // The CPU worker pool, the FPGA pipeline and the nvJPEG engine are
        // each a single shared pipeline (their parallelism is already in the
        // service-rate model); LMDB runs one reader per GPU whose bandwidth
        // the contention model has degraded.
        let done_at = match self.params.backend {
            TrainBackend::Ideal => sched.now() + service,
            TrainBackend::Kind(BackendKind::Lmdb) => {
                let start = sched.now().max(self.gpu_reader_free[g]);
                self.gpu_reader_free[g] = start + service;
                self.gpu_reader_free[g]
            }
            TrainBackend::Kind(_) => {
                let start = sched.now().max(self.backend_free);
                self.backend_free = start + service;
                self.backend_free
            }
        };
        self.preproc.add(busy);
        self.producing[g] += 1;
        self.images_produced += self.params.batch_size as u64;
        sched.at(done_at, Ev::BatchReady { gpu });
    }

    /// Starts the copy phase if a batch is ready and the solver idle.
    fn maybe_start_iteration(&mut self, gpu: u32, sched: &mut Scheduler<Ev>) {
        let g = gpu as usize;
        if self.phase[g] != Phase::WaitingBatch
            || self.ready[g] == 0
            || self.iter_done[g] >= self.params.iterations
        {
            return;
        }
        self.ready[g] -= 1;
        self.phase[g] = Phase::Copying;
        let bytes = self.params.batch_size as u64 * self.params.workload.decoded_bytes();
        let mut copy = SimTime::from_secs_f64(bytes as f64 / self.cal.train_gpu.pcie_bytes_per_sec);
        // §5.2: "LMDB and CPU-based backend copy each datum to GPU in small
        // pieces, which results in ∼20% performance downgrades" (visible on
        // LeNet-5, where iterations are sub-millisecond). DLBooster moves
        // the whole batch block in one transfer.
        if !matches!(
            self.params.backend,
            TrainBackend::Ideal | TrainBackend::Kind(BackendKind::DlBooster)
        ) {
            copy += SimTime::from_nanos(
                self.cal.per_datum_copy_overhead.as_nanos() * self.params.batch_size as u64,
            );
        }
        self.transform.add(
            self.timing
                .transform_cpu_time(self.params.batch_size, self.params.workload.decoded_bytes()),
        );
        sched.after(copy, Ev::CopyDone { gpu });
        // Refill the prefetch slot we just consumed.
        self.maybe_produce(gpu, sched);
    }

    fn all_finished(&self) -> bool {
        self.finished_at.iter().all(|t| t.is_some())
    }
}

impl SimModel for TrainingSim {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Kickoff => {
                for g in 0..self.params.n_gpus {
                    self.maybe_produce(g, sched);
                    self.maybe_produce(g, sched);
                }
            }
            Ev::BatchReady { gpu } => {
                let g = gpu as usize;
                self.producing[g] -= 1;
                self.ready[g] += 1;
                self.maybe_start_iteration(gpu, sched);
            }
            Ev::CopyDone { gpu } => {
                let g = gpu as usize;
                debug_assert_eq!(self.phase[g], Phase::Copying);
                self.phase[g] = Phase::Computing;
                let fwd = self.timing.forward_time(self.params.batch_size);
                let bwd = self.timing.backward_time(self.params.batch_size);
                self.launch
                    .add(self.timing.launch_cpu_time(fwd + bwd, true));
                sched.after(fwd + bwd, Ev::ComputeDone { gpu });
            }
            Ev::ComputeDone { gpu } => {
                let g = gpu as usize;
                self.phase[g] = Phase::AtBarrier;
                let round = self.iter_done[g];
                self.barrier_count[round as usize] += 1;
                if self.barrier_count[round as usize] == self.params.n_gpus {
                    let ar = self.timing.allreduce_time(self.params.n_gpus);
                    sched.after(ar, Ev::AllreduceDone { round });
                }
            }
            Ev::AllreduceDone { round } => {
                // Every GPU at this barrier proceeds to update.
                let upd = self.timing.update_time();
                for g in 0..self.params.n_gpus {
                    if self.phase[g as usize] == Phase::AtBarrier
                        && self.iter_done[g as usize] == round
                    {
                        self.phase[g as usize] = Phase::Updating;
                        self.update
                            .add(self.timing.update_cpu_time(self.params.batch_size));
                        sched.after(upd, Ev::UpdateDone { gpu: g });
                    }
                }
            }
            Ev::UpdateDone { gpu } => {
                let g = gpu as usize;
                self.phase[g] = Phase::WaitingBatch;
                self.iter_done[g] += 1;
                if self.iter_done[g] == self.params.warmup {
                    self.warmup_done_at[g] = Some(now);
                }
                if self.iter_done[g] >= self.params.iterations {
                    self.finished_at[g] = Some(now);
                } else {
                    self.maybe_start_iteration(gpu, sched);
                }
            }
        }
    }
}

impl TrainingSim {
    /// Runs the experiment to completion and reports.
    pub fn run(cal: Calibration, params: TrainingParams) -> TrainingOutcome {
        let n = params.n_gpus;
        let warmup = params.warmup;
        let iterations = params.iterations;
        let batch = params.batch_size;
        let mut sim = Simulation::new(TrainingSim::new(cal, params));
        sim.seed(SimTime::ZERO, Ev::Kickoff);
        let summary = sim.run_to_completion();
        let model = sim.into_model();
        assert!(model.all_finished(), "training sim stalled");

        let end = summary.end_time;
        // Measurement window: from the latest warmup crossing to the end.
        let window_start = model
            .warmup_done_at
            .iter()
            .map(|t| t.expect("warmup crossed"))
            .max()
            .unwrap_or(SimTime::ZERO);
        let window = end.saturating_sub(window_start);
        let measured_iters = (iterations - warmup) as u64 * n as u64;
        let images = measured_iters * batch as u64;
        let throughput = if window == SimTime::ZERO {
            0.0
        } else {
            images as f64 / window.as_secs_f64()
        };
        let elapsed = end;
        let breakdown = (
            model.preproc.cores(elapsed),
            model.transform.cores(elapsed),
            model.launch.cores(elapsed),
            model.update.cores(elapsed),
        );
        TrainingOutcome {
            throughput,
            cpu_cores: breakdown.0 + breakdown.1 + breakdown.2 + breakdown.3,
            cpu_breakdown: breakdown,
            sim_time: end,
            iterations_measured: measured_iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(model: ModelZoo, backend: TrainBackend, n_gpus: u32) -> TrainingOutcome {
        TrainingSim::run(
            Calibration::paper(),
            TrainingParams::paper(model, backend, n_gpus),
        )
    }

    #[test]
    fn ideal_bound_matches_timing_model() {
        let out = run(ModelZoo::AlexNet, TrainBackend::Ideal, 1);
        // Fig. 2(b) "Ideal" ≈ 2 000–2 500 img/s band for our calibration.
        assert!(
            (1_500.0..3_200.0).contains(&out.throughput),
            "AlexNet ideal bound {:.0}",
            out.throughput
        );
    }

    #[test]
    fn dlbooster_tracks_ideal_closely() {
        let ideal = run(ModelZoo::AlexNet, TrainBackend::Ideal, 2).throughput;
        let dlb = run(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::DlBooster),
            2,
        )
        .throughput;
        assert!(
            dlb > 0.9 * ideal,
            "Fig. 5b: DLBooster ≈ GPU bound; got {dlb:.0} vs ideal {ideal:.0}"
        );
    }

    #[test]
    fn lmdb_loses_about_30pct_at_two_gpus() {
        let one = run(ModelZoo::AlexNet, TrainBackend::Kind(BackendKind::Lmdb), 1).throughput;
        let two = run(ModelZoo::AlexNet, TrainBackend::Kind(BackendKind::Lmdb), 2).throughput;
        let scaling = two / one;
        // Perfect scaling would be 2.0; Fig. 5(b) shows ≈1.4 (−30 %).
        assert!(
            (1.15..1.75).contains(&scaling),
            "LMDB 2-GPU scaling {scaling:.2}"
        );
    }

    #[test]
    fn cpu_backend_burns_many_cores_dlbooster_few() {
        let cpu = run(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::CpuBased),
            1,
        );
        let dlb = run(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        );
        // Fig. 6(b): ≈12 cores vs ≈1.5. Both backends share the framework
        // overhead (launch/transform/update ≈ 1.3 cores); what separates
        // them is the decode burn.
        assert!(
            cpu.cpu_cores > 5.0,
            "CPU backend cores {:.1}",
            cpu.cpu_cores
        );
        assert!(dlb.cpu_cores < 3.0, "DLBooster cores {:.1}", dlb.cpu_cores);
        assert!(
            cpu.cpu_cores > 2.5 * dlb.cpu_cores,
            "{:.1} vs {:.1}",
            cpu.cpu_cores,
            dlb.cpu_cores
        );
        // The decode component itself is >10x apart (the paper's 1/10 CPU
        // headline is about preprocessing cores).
        let (cpu_pre, ..) = cpu.cpu_breakdown;
        let (dlb_pre, ..) = dlb.cpu_breakdown;
        assert!(
            cpu_pre > 5.0 * dlb_pre,
            "preprocessing cores {cpu_pre:.2} vs {dlb_pre:.2}"
        );
    }

    #[test]
    fn lenet_cache_makes_all_backends_cheap_and_fast() {
        let dlb = run(
            ModelZoo::LeNet5,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        );
        let cpu = run(
            ModelZoo::LeNet5,
            TrainBackend::Kind(BackendKind::CpuBased),
            1,
        );
        let lmdb = run(ModelZoo::LeNet5, TrainBackend::Kind(BackendKind::Lmdb), 1);
        // §5.2: MNIST caches after the first epoch → little CPU overhead
        // for every backend (the decode burn disappears).
        assert!(
            cpu.cpu_cores < 4.0,
            "LeNet CPU-based cores {:.1}",
            cpu.cpu_cores
        );
        assert!(lmdb.cpu_cores < 4.0);
        // The ≈20 % small-copy penalty of the baselines (Fig. 5a).
        let ratio = dlb.throughput / cpu.throughput.max(1.0);
        assert!(
            (1.02..1.8).contains(&ratio),
            "LeNet DLBooster/CPU ratio {ratio:.2} (expect ≈1.2)"
        );
        assert!(dlb.throughput > 50_000.0, "LeNet rates are in the 1e5 band");
    }

    #[test]
    fn dlbooster_breakdown_matches_fig6d_shape() {
        let out = run(
            ModelZoo::ResNet18,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        );
        let (pre, transform, launch, update) = out.cpu_breakdown;
        // Fig. 6(d): 0.3 / 0.15 / 0.95 / 0.12 cores. Shape: launch largest,
        // preprocessing small, total ≲ 2.
        assert!(pre < 0.8, "preprocessing {pre:.2}");
        assert!(out.cpu_cores < 2.5, "total {:.2}", out.cpu_cores);
        assert!(
            launch > update,
            "launch {launch:.2} should exceed update {update:.2}"
        );
        assert!(transform < launch + 0.5);
    }

    #[test]
    fn two_gpus_scale_for_dlbooster() {
        let one = run(
            ModelZoo::ResNet18,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        )
        .throughput;
        let two = run(
            ModelZoo::ResNet18,
            TrainBackend::Kind(BackendKind::DlBooster),
            2,
        )
        .throughput;
        let s = two / one;
        assert!((1.6..2.05).contains(&s), "ResNet-18 scaling {s:.2}");
    }
}
