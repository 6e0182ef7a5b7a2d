//! The online-inference discrete-event simulation (Figs. 7, 8, 9).
//!
//! Pipeline per §5.3: 5 clients send JPEG frames over the 40 Gbps fabric;
//! the server assembles fixed-size batches, decodes them on the backend
//! under test, copies over PCIe and infers on a Tensor-Core GPU. Latency is
//! "from the point when the inference system receives pictures from clients
//! to the point when engines make a prediction".
//!
//! Three drive modes:
//! * [`DriveMode::Saturated`] — a closed loop keeps the pipeline full; the
//!   measured completion rate is the Fig. 7 throughput.
//! * [`DriveMode::Load`] — open-loop Poisson arrivals at a fraction of that
//!   capacity; per-request latency reproduces Fig. 8.
//! * [`DriveMode::Served`] — open-loop arrivals routed through the
//!   `dlb-serving` layer (deadline-aware dynamic batching, admission
//!   control with load shedding, per-tenant WFQ); offered load may exceed
//!   capacity — the overload-sweep regime the ROADMAP north star demands.
//!
//! Backend stations:
//! * **DLBooster** — the FPGA pipeline (singleton), batch service from the
//!   calibrated stage model; near-zero host CPU.
//! * **CPU-based** — an aggregate host pool of `cpu_workers` cores.
//! * **nvJPEG** — a GPU decode engine whose SM share stretches the
//!   inference kernels (decode and inference overlap on one device).

use crate::calibration::{BackendKind, Calibration, Workload};
use dlb_cache::{SampleCache, SampleKey, SampleMeta};
use dlb_gpu::{GpuTimingModel, ModelZoo, Precision};
use dlb_serving::{
    AdmissionController, BatchFormer, FormedBatch, ServeRequest, ServingConfig, ServingInstruments,
};
use dlb_simcore::stats::{BusyTracker, LatencyStats};
use dlb_simcore::{Scheduler, SimModel, SimRng, SimTime, Simulation};
use dlb_telemetry::{PipelineSnapshot, Registry};
use std::collections::VecDeque;
use std::sync::Arc;

/// How the request generator drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveMode {
    /// Closed loop, pipeline always full — measures capacity (Fig. 7).
    Saturated,
    /// Open-loop Poisson at `rate` requests/s — measures latency (Fig. 8).
    Load {
        /// Aggregate client request rate.
        rate: f64,
    },
    /// Open-loop Poisson at `rate` requests/s through the serving layer
    /// (requires [`InferenceParams::serving`]); `rate` may exceed capacity.
    Served {
        /// Aggregate offered request rate.
        rate: f64,
    },
}

/// Inference experiment parameters.
#[derive(Debug, Clone)]
pub struct InferenceParams {
    /// Network served.
    pub model: ModelZoo,
    /// Backend under test.
    pub backend: BackendKind,
    /// Images per inference batch.
    pub batch_size: u32,
    /// Drive mode.
    pub mode: DriveMode,
    /// Host decode workers for the CPU backend (Fig. 9: 7–14 per GPU).
    pub cpu_workers: u32,
    /// Batches to complete.
    pub batches: u32,
    /// Batches to discard as warmup.
    pub warmup: u32,
    /// RNG seed (arrival process).
    pub seed: u64,
    /// Paper §7 future work (2): "directly writing the processed data to
    /// GPU devices for lower latency". When set, the FPGA's DMA engine
    /// targets device memory (GPUDirect-style peer DMA) and the host-bounce
    /// copy stage disappears from the pipeline.
    pub direct_gpu_dma: bool,
    /// FPGA decoders installed (§5.3: "the bottleneck can be overcome by
    /// plugging more FPGA devices"). Only meaningful for the DLBooster
    /// backend; each device is an independent decode station.
    pub n_fpgas: u32,
    /// Serving-layer configuration — required by [`DriveMode::Served`],
    /// ignored by the other drive modes.
    pub serving: Option<ServingConfig>,
    /// Decoded-sample cache capacity for Served mode (0 = disabled).
    /// Partitioned per tenant by WFQ weight
    /// ([`ServingConfig::cache_partitions`]); a hit skips the decode
    /// station entirely.
    pub sample_cache_bytes: u64,
    /// Distinct hot objects per tenant: each request maps to one of this
    /// many recurring frames (CCTV-style repeated content), which is what
    /// gives the cache something to hit.
    pub cache_keys_per_tenant: u64,
}

impl InferenceParams {
    /// The paper's setup for `model`/`backend` at `batch_size`, saturated.
    pub fn paper(model: ModelZoo, backend: BackendKind, batch_size: u32) -> Self {
        Self {
            model,
            backend,
            batch_size,
            mode: DriveMode::Saturated,
            cpu_workers: 14,
            batches: 300,
            warmup: 50,
            seed: 7,
            direct_gpu_dma: false,
            n_fpgas: 1,
            serving: None,
            sample_cache_bytes: 0,
            cache_keys_per_tenant: 64,
        }
    }
}

/// Measured outcome.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Steady-state throughput, images/s.
    pub throughput: f64,
    /// Per-request latency distribution (arrival→prediction).
    pub mean_latency: SimTime,
    /// Median latency.
    pub p50_latency: SimTime,
    /// Tail latency.
    pub p99_latency: SimTime,
    /// Host CPU core-equivalents (decode + launch + response path).
    pub cpu_cores: f64,
    /// Virtual duration.
    pub sim_time: SimTime,
    /// Requests completed.
    pub completed: u64,
    /// Serving-layer view ([`DriveMode::Served`] runs only).
    pub serving: Option<ServingOutcome>,
}

/// Serving-layer outcome of one [`DriveMode::Served`] run: the admission
/// ledger, the post-warmup goodput rate, and the full telemetry snapshot
/// (with `serving.*` conservation invariants checkable via
/// [`PipelineSnapshot::invariant_violations`]).
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Requests offered to the admission controller.
    pub offered: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected at the door.
    pub rejected: u64,
    /// Admitted requests evicted by the shedding policy.
    pub shed: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Completions that met their SLO deadline.
    pub good: u64,
    /// In-SLO completions per second over the post-warmup window.
    pub goodput: f64,
    /// End-of-run telemetry (all `serving.*` metrics, per-tenant rows,
    /// queue-delay and batch-size histograms).
    pub snapshot: PipelineSnapshot,
}

impl ServingOutcome {
    /// Fraction of completions that met the SLO (1.0 when none completed).
    pub(crate) fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.good as f64 / self.completed as f64
        }
    }
}

/// One point of an overload sweep: offered load as a multiple of the
/// measured saturated capacity, plus the run outcome at that load.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Offered load as a fraction of saturated capacity (the sweep axis).
    pub multiplier: f64,
    /// Offered arrival rate, requests/s.
    pub offered_rate: f64,
    /// Saturated capacity the multiplier is relative to, images/s.
    pub capacity: f64,
    /// Run outcome; `outcome.serving` is always `Some` for sweep points.
    pub outcome: InferenceOutcome,
}

/// The canonical overload-sweep axis: 0.5×–3× of saturated capacity.
pub const OVERLOAD_MULTIPLIERS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];

/// Parameter grid for overload sweeps: the offered-load multiplier axis
/// plus the per-point run length, steering the single-node serving sweep
/// ([`InferenceSim::overload_sweep_grid`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SweepGrid {
    /// Offered load as multiples of measured saturated capacity.
    pub multipliers: Vec<f64>,
    /// Batches to complete per sweep point.
    pub batches: u32,
    /// Batches to discard as warmup per sweep point.
    pub warmup: u32,
}

impl Default for SweepGrid {
    /// The canonical grid: [`OVERLOAD_MULTIPLIERS`] at the paper's
    /// 300-batch / 50-warmup run length.
    fn default() -> Self {
        Self {
            multipliers: OVERLOAD_MULTIPLIERS.to_vec(),
            batches: 300,
            warmup: 50,
        }
    }
}

impl SweepGrid {
    /// The canonical run length over a custom multiplier axis.
    pub(crate) fn with_multipliers(multipliers: &[f64]) -> Self {
        Self {
            multipliers: multipliers.to_vec(),
            ..Self::default()
        }
    }
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    Kickoff,
    /// A request's payload finished crossing the fabric.
    ArrivalAtServer,
    /// The dynamic batcher's linger timer expired for `generation`.
    LingerExpired {
        /// The forming-batch generation the timer was armed for; stale
        /// generations (the batch already closed full) are ignored.
        generation: u64,
    },
    /// Decode station finished the batch at queue head.
    DecodeDone,
    /// PCIe copy finished.
    CopyDone,
    /// Inference kernel finished.
    InferDone,
}

struct Batch {
    /// Arrival times of member requests.
    arrivals: Vec<SimTime>,
    /// Member requests when formed by the serving layer (empty otherwise);
    /// completions are scored against their deadlines.
    requests: Vec<ServeRequest>,
}

impl Batch {
    /// A batch the serving layer's former closed.
    fn formed(closed: FormedBatch) -> Self {
        Batch {
            arrivals: closed.requests.iter().map(|r| r.arrival).collect(),
            requests: closed.requests,
        }
    }
}

/// Serving-layer state threaded through the DES (Served mode only).
struct ServingState {
    admission: AdmissionController,
    former: BatchFormer,
    instruments: Arc<ServingInstruments>,
    registry: Arc<Registry>,
    slo: SimTime,
    /// Worst-case batch-forming wait (the configured linger).
    linger: SimTime,
    /// One full pass through decode + copy + infer for a full batch.
    pass: SimTime,
    /// Slowest single station's full-batch service — the per-batch drain
    /// interval of a saturated pipeline.
    bottleneck: SimTime,
    /// Cumulative tenant load shares for arrival sampling.
    tenant_cdf: Vec<(u32, f64)>,
    next_id: u64,
    /// In-SLO completions after warmup (goodput numerator).
    good_after_warmup: u64,
    /// Which former generation has a linger timer armed.
    armed_generation: Option<u64>,
    /// Per-tenant decoded-sample cache (when `sample_cache_bytes > 0`).
    cache: Option<Arc<SampleCache>>,
    /// Hot-object universe size per tenant.
    keys_per_tenant: u64,
    /// One image's decode service — the insert cost signal, and the work
    /// a cache hit saves.
    per_image_decode: SimTime,
}

/// Deterministic request → hot-object mapping (splitmix64 over the
/// request id): recurring content without carrying a payload key through
/// the serving layer.
fn object_id(request_id: u64, universe: u64) -> u64 {
    let mut z = request_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % universe.max(1)
}

/// The inference DES model.
pub struct InferenceSim {
    cal: Calibration,
    params: InferenceParams,
    timing: GpuTimingModel,
    rng: SimRng,

    // Arrival/batching state.
    pending: Vec<SimTime>,
    /// Queues between stations.
    decode_q: VecDeque<Batch>,
    /// Decode stations busy (up to `decode_stations`).
    decode_busy: u32,
    decode_stations: u32,
    copy_q: VecDeque<Batch>,
    copy_busy: bool,
    infer_q: VecDeque<Batch>,
    infer_busy: bool,
    /// Closed-loop tokens outstanding (Saturated mode).
    in_flight: u32,
    /// Open-loop arrivals generated so far (bounded by the batch budget).
    arrivals_generated: u64,
    /// Serving layer (Served mode only).
    serving: Option<ServingState>,

    // Measurement.
    latency: LatencyStats,
    cpu: BusyTracker,
    batches_done: u32,
    completed_after_warmup: u64,
    warmup_at: Option<SimTime>,
    done_at: SimTime,
}

impl InferenceSim {
    /// Builds the model.
    pub(crate) fn new(cal: Calibration, params: InferenceParams) -> Self {
        assert!(params.batch_size >= 1 && params.batches > params.warmup);
        let mut timing =
            GpuTimingModel::new(&cal.infer_gpu, &params.model.model(), Precision::Fp16);
        if params.backend == BackendKind::NvJpeg {
            timing.set_background_share(cal.nvjpeg.sm_share_at(params.batch_size));
        }
        let rng = SimRng::new(params.seed);
        let decode_stations = if params.backend == BackendKind::DlBooster {
            params.n_fpgas.max(1)
        } else {
            1
        };
        if matches!(params.mode, DriveMode::Served { .. }) {
            assert!(
                params.serving.is_some(),
                "DriveMode::Served requires InferenceParams::serving"
            );
        }
        let mut sim = Self {
            cal,
            timing,
            rng,
            pending: Vec::new(),
            decode_q: VecDeque::new(),
            decode_busy: 0,
            decode_stations,
            copy_q: VecDeque::new(),
            copy_busy: false,
            infer_q: VecDeque::new(),
            infer_busy: false,
            in_flight: 0,
            arrivals_generated: 0,
            serving: None,
            latency: LatencyStats::new(),
            cpu: BusyTracker::new(),
            batches_done: 0,
            completed_after_warmup: 0,
            warmup_at: None,
            done_at: SimTime::ZERO,
            params,
        };
        if let (DriveMode::Served { .. }, Some(cfg)) = (sim.params.mode, sim.params.serving.clone())
        {
            sim.serving = Some(sim.build_serving_state(cfg));
        }
        sim
    }

    /// Builds the Served-mode state: instrumented admission controller and
    /// batch former, with the feasibility predictor calibrated from the
    /// stage service model (no measurement run needed).
    fn build_serving_state(&self, cfg: ServingConfig) -> ServingState {
        let registry = Arc::new(Registry::new());
        let instruments = ServingInstruments::new(&registry, cfg.max_batch);
        let cache = (self.params.sample_cache_bytes > 0).then(|| {
            SampleCache::partitioned(
                self.params.sample_cache_bytes,
                &cfg.cache_partitions(),
                &registry,
            )
        });
        let bs = self.params.batch_size.max(1) as u64;
        let (decode, _) = self.decode_service(self.params.batch_size);
        let copy = if self.params.direct_gpu_dma {
            SimTime::ZERO
        } else {
            self.copy_service(self.params.batch_size)
        };
        let infer = self.infer_service(self.params.batch_size);
        // Queue drain rate: the slowest station bounds it (decode runs on
        // `decode_stations` parallel devices).
        let bottleneck = SimTime::from_nanos(
            (decode.as_nanos() / self.decode_stations.max(1) as u64)
                .max(copy.as_nanos())
                .max(infer.as_nanos()),
        );
        let per_item_ns = bottleneck.as_nanos() / bs;
        // Pipeline latency once dequeued: batch forming is bounded by
        // max_linger, then one pass through every station.
        let pass = decode + copy + infer;
        let base = cfg.max_linger + pass;
        let mut admission =
            AdmissionController::new(cfg.clone()).with_instruments(Arc::clone(&instruments));
        admission.set_service_estimate(SimTime::from_nanos(per_item_ns), base);
        let former = BatchFormer::new(cfg.max_batch, cfg.max_linger)
            .with_instruments(Arc::clone(&instruments));
        let total_share = cfg.total_load_share().max(f64::MIN_POSITIVE);
        let mut acc = 0.0;
        let tenant_cdf = cfg
            .tenants
            .iter()
            .map(|t| {
                acc += t.load_share.max(0.0) / total_share;
                (t.id, acc)
            })
            .collect();
        ServingState {
            admission,
            former,
            instruments,
            registry,
            slo: cfg.slo,
            linger: cfg.max_linger,
            pass,
            bottleneck,
            tenant_cdf,
            next_id: 0,
            good_after_warmup: 0,
            armed_generation: None,
            cache,
            keys_per_tenant: self.params.cache_keys_per_tenant.max(1),
            per_image_decode: self.decode_service(1).0,
        }
    }

    /// Decode service time + host CPU busy charge for one batch of
    /// `items` images (Served-mode linger closes can ship partial
    /// batches; the fixed modes always pass `batch_size`).
    fn decode_service(&self, items: u32) -> (SimTime, SimTime) {
        let bs = items.max(1) as u64;
        let img = Workload::Ilsvrc.image();
        match self.params.backend {
            BackendKind::DlBooster => {
                let images = vec![img; bs as usize];
                let service = self.cal.fpga.batch_service_time(&images);
                let host =
                    SimTime::from_nanos(self.cal.dlb_host_per_image_inference.as_nanos() * bs);
                (service, host)
            }
            BackendKind::CpuBased => {
                // One image decodes on one core: a batch runs in
                // `ceil(bs/workers)` waves of full per-image duration (the
                // reason bs=1 latency is ~3.4 ms in Fig. 8 regardless of
                // worker count).
                let per_image = self.cal.cpu_decode_time(&img);
                let workers = self.params.cpu_workers.max(1) as u64;
                let waves = bs.div_ceil(workers);
                let service = SimTime::from_nanos(per_image.as_nanos() * waves);
                let busy = SimTime::from_nanos(per_image.as_nanos() * bs);
                (service, busy)
            }
            BackendKind::NvJpeg => {
                let service = self
                    .cal
                    .nvjpeg
                    .decode_time(bs as u32, img.src_width, img.src_height);
                (service, self.cal.nvjpeg.launch_cpu_time(bs as u32))
            }
            BackendKind::Lmdb => {
                unreachable!("LMDB is an offline backend; §5.3 excludes it from inference")
            }
        }
    }

    fn copy_service(&self, items: u32) -> SimTime {
        let bytes = items.max(1) as u64 * Workload::Ilsvrc.decoded_bytes();
        SimTime::from_secs_f64(bytes as f64 / self.cal.infer_gpu.pcie_bytes_per_sec)
    }

    fn infer_service(&self, items: u32) -> SimTime {
        // Contention stretch is already configured on the timing model.
        self.timing.forward_time(items.max(1))
    }

    fn spawn_batch_saturated(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let bs = self.params.batch_size;
        let batch = Batch {
            arrivals: vec![now; bs as usize],
            requests: Vec::new(),
        };
        self.in_flight += 1;
        self.decode_q.push_back(batch);
        self.try_start_decode(sched);
    }

    fn schedule_next_arrival(&mut self, sched: &mut Scheduler<Ev>) {
        let rate = match self.params.mode {
            DriveMode::Load { rate } | DriveMode::Served { rate } => rate,
            DriveMode::Saturated => return,
        };
        // Bound the run: enough arrivals for the batch budget.
        if self.arrivals_generated >= self.params.batches as u64 * self.params.batch_size as u64 {
            return;
        }
        self.arrivals_generated += 1;
        let gap = self.rng.exponential(1.0 / rate);
        sched.after(SimTime::from_secs_f64(gap), Ev::ArrivalAtServer);
    }

    fn try_start_decode(&mut self, sched: &mut Scheduler<Ev>) {
        // Batches in service sit at the front of `decode_q`; only start a
        // new one if a station is free and an unserved batch exists.
        if self.decode_busy >= self.decode_stations
            || (self.decode_q.len() as u32) <= self.decode_busy
        {
            return;
        }
        let batch = &self.decode_q[self.decode_busy as usize];
        let items = batch.arrivals.len() as u32;
        // Served-mode sample cache: each member request maps to a hot
        // object; hits skip the decode station, misses decode and are
        // inserted with their decode cost as the eviction signal. Copy
        // and infer still process the full batch — only decode shrinks.
        let mut miss_items = items;
        if let Some(st) = &self.serving {
            if let (Some(cache), false) = (&st.cache, batch.requests.is_empty()) {
                let misses: Vec<SampleKey> = batch
                    .requests
                    .iter()
                    .filter_map(|req| {
                        let key = SampleKey::Object {
                            tenant: req.tenant,
                            id: object_id(req.id, st.keys_per_tenant),
                        };
                        cache.lookup(&key).is_none().then_some(key)
                    })
                    .collect();
                miss_items = misses.len() as u32;
                if miss_items == 0 {
                    cache.note_bypass_batch();
                }
                let cost = st.per_image_decode.as_nanos();
                let pixels = vec![0u8; Workload::Ilsvrc.decoded_bytes() as usize];
                let meta = SampleMeta {
                    label: 0,
                    width: 224,
                    height: 224,
                    channels: 3,
                };
                for key in misses {
                    cache.admit(key, &pixels, meta, cost);
                }
            }
        }
        self.decode_busy += 1;
        let (service, busy) = if miss_items == 0 {
            (SimTime::ZERO, SimTime::ZERO)
        } else {
            self.decode_service(miss_items)
        };
        self.cpu.add(busy);
        sched.after(service, Ev::DecodeDone);
    }

    fn try_start_copy(&mut self, sched: &mut Scheduler<Ev>) {
        if self.copy_busy || self.copy_q.is_empty() {
            return;
        }
        self.copy_busy = true;
        let items = self
            .copy_q
            .front()
            .expect("copy has a batch")
            .arrivals
            .len() as u32;
        sched.after(self.copy_service(items), Ev::CopyDone);
    }

    fn try_start_infer(&mut self, sched: &mut Scheduler<Ev>) {
        if self.infer_busy || self.infer_q.is_empty() {
            return;
        }
        self.infer_busy = true;
        // Kernel-launch host cost (TensorRT-grade: thin).
        let items = self
            .infer_q
            .front()
            .expect("infer has a batch")
            .arrivals
            .len() as u32;
        let service = self.infer_service(items);
        self.cpu.add(self.timing.launch_cpu_time(service, false));
        sched.after(service, Ev::InferDone);
    }

    /// One client request reaches the serving layer (Served mode): sample
    /// its tenant from the configured load shares, stamp its deadline, and
    /// offer it to the admission controller.
    fn serving_arrival(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let u = self.rng.uniform();
        let st = self
            .serving
            .as_mut()
            .expect("Served mode has serving state");
        let tenant = st
            .tenant_cdf
            .iter()
            .find(|&&(_, c)| u < c)
            .or(st.tenant_cdf.last())
            .map(|&(id, _)| id)
            .unwrap_or(0);
        let req = ServeRequest {
            id: st.next_id,
            tenant,
            arrival: now,
            deadline: now + st.slo,
        };
        st.next_id += 1;
        let _ = st.admission.offer(req, now);
        self.pump_serving(now, sched);
    }

    /// Moves admitted requests from the admission queue into the dynamic
    /// batcher and dispatches closed batches, subject to backpressure:
    /// at most `decode_stations + 2` batches may occupy the pipeline, so
    /// overload backlog accumulates in the admission queue where the
    /// shedding policy can act on it.
    fn pump_serving(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.serving.is_none() {
            return;
        }
        let room = self.decode_stations as usize + 2;
        let mut dispatched = false;
        loop {
            let in_pipeline = self.decode_q.len() + self.copy_q.len() + self.infer_q.len();
            // Dispatch-time backstop: a queued request whose deadline
            // cannot survive the forming wait plus the pipeline at its
            // *current* occupancy would only waste downstream capacity on
            // a late answer — shed it before it costs anything.
            let st = self.serving.as_mut().expect("checked above");
            let lead = st.linger
                + st.pass
                + SimTime::from_nanos(st.bottleneck.as_nanos() * in_pipeline as u64);
            let _ = st.admission.shed_unservable(now, lead);
            if in_pipeline >= room {
                break;
            }
            let Some(req) = st.admission.pop(now) else {
                break;
            };
            if let Some(closed) = st.former.push(req, now) {
                st.armed_generation = None;
                self.decode_q.push_back(Batch::formed(closed));
                dispatched = true;
            }
        }
        // Work-conserving close: with nothing dispatched earlier still in
        // the pipeline, lingering buys no batch a station could take
        // sooner, so what has formed ships now. Any linger timer armed for
        // it goes stale by generation.
        let st = self.serving.as_mut().expect("checked above");
        let in_pipeline = self
            .decode_q
            .iter()
            .chain(&self.copy_q)
            .chain(&self.infer_q)
            .flat_map(|b| &b.requests);
        if let Some(closed) = st.former.close_if_idle(now, in_pipeline) {
            st.armed_generation = None;
            self.decode_q.push_back(Batch::formed(closed));
            dispatched = true;
        }
        // Arm the linger timer for the batch now forming (at most one live
        // timer per generation; Scheduler::at clamps past instants to now).
        if let Some(deadline) = st.former.linger_deadline() {
            let generation = st.former.generation();
            if st.armed_generation != Some(generation) {
                st.armed_generation = Some(generation);
                sched.at(deadline, Ev::LingerExpired { generation });
            }
        }
        if dispatched {
            self.try_start_decode(sched);
        }
    }
}

impl SimModel for InferenceSim {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Kickoff => match self.params.mode {
                DriveMode::Saturated => {
                    // Keep enough batches in flight that every decode
                    // station plus the copy and infer stages stay busy.
                    for _ in 0..(self.decode_stations + 2) {
                        self.spawn_batch_saturated(now, sched);
                    }
                }
                DriveMode::Load { .. } | DriveMode::Served { .. } => {
                    self.schedule_next_arrival(sched);
                }
            },
            Ev::ArrivalAtServer => {
                // NIC transfer time shifts the effective arrival instant;
                // the paper measures from server receipt, so `now` is it.
                if self.serving.is_some() {
                    self.serving_arrival(now, sched);
                } else {
                    self.pending.push(now);
                    if self.pending.len() >= self.params.batch_size as usize {
                        let arrivals = std::mem::take(&mut self.pending);
                        self.decode_q.push_back(Batch {
                            arrivals,
                            requests: Vec::new(),
                        });
                        self.try_start_decode(sched);
                    }
                }
                self.schedule_next_arrival(sched);
            }
            Ev::LingerExpired { generation } => {
                // Close the forming batch if this timer is still current.
                // Linger closes bypass the backpressure gate: a request
                // that waited `max_linger` must ship, not wait for room.
                let mut dispatched = false;
                if let Some(st) = self.serving.as_mut() {
                    if let Some(closed) = st.former.close_if_due(now, generation) {
                        st.armed_generation = None;
                        self.decode_q.push_back(Batch::formed(closed));
                        dispatched = true;
                    }
                }
                if dispatched {
                    self.try_start_decode(sched);
                    self.pump_serving(now, sched);
                }
            }
            Ev::DecodeDone => {
                self.decode_busy -= 1;
                let batch = self.decode_q.pop_front().expect("decode had a batch");
                if self.params.direct_gpu_dma {
                    // Peer DMA: decoded pixels landed in device memory
                    // already; go straight to the inference station.
                    self.infer_q.push_back(batch);
                    self.try_start_infer(sched);
                } else {
                    self.copy_q.push_back(batch);
                    self.try_start_copy(sched);
                }
                self.try_start_decode(sched);
            }
            Ev::CopyDone => {
                self.copy_busy = false;
                let batch = self.copy_q.pop_front().expect("copy had a batch");
                self.infer_q.push_back(batch);
                self.try_start_infer(sched);
                self.try_start_copy(sched);
            }
            Ev::InferDone => {
                self.infer_busy = false;
                let batch = self.infer_q.pop_front().expect("infer had a batch");
                self.batches_done += 1;
                if self.batches_done == self.params.warmup {
                    self.warmup_at = Some(now);
                }
                let past_warmup = self.batches_done > self.params.warmup;
                if past_warmup {
                    self.completed_after_warmup += batch.arrivals.len() as u64;
                    for &arr in &batch.arrivals {
                        self.latency.record(now.saturating_sub(arr));
                    }
                }
                if let Some(st) = self.serving.as_mut() {
                    for req in &batch.requests {
                        let good = st.instruments.on_completed(req, now);
                        if good && past_warmup {
                            st.good_after_warmup += 1;
                        }
                    }
                }
                self.done_at = now;
                // Host response path (serialisation, send) — charged per
                // image to the backend's host budget.
                let resp = SimTime::from_nanos(
                    2_000 * batch.arrivals.len() as u64, // 2 µs/response
                );
                self.cpu.add(resp);
                if self.params.mode == DriveMode::Saturated
                    && self.batches_done < self.params.batches
                {
                    self.in_flight -= 1;
                    self.spawn_batch_saturated(now, sched);
                }
                // The station must always pull the next queued batch —
                // gating this on the batch budget strands the queue and
                // collapses Load-mode throughput.
                self.try_start_infer(sched);
                // A batch left the pipeline: the backpressure gate opened,
                // so the serving layer can pull more from its queue.
                self.pump_serving(now, sched);
            }
        }
    }
}

impl InferenceSim {
    /// Runs one experiment.
    pub fn run(cal: Calibration, params: InferenceParams) -> InferenceOutcome {
        let warmup = params.warmup;
        let batches = params.batches;
        let bs = params.batch_size;
        let mut sim = Simulation::new(InferenceSim::new(cal, params));
        sim.seed(SimTime::ZERO, Ev::Kickoff);
        // Load mode generates arrivals indefinitely; cap the run.
        let _ = sim.run_until(SimTime::from_secs(3600), 50_000_000);
        let mut model = sim.into_model();
        assert!(
            model.batches_done >= batches.min(model.batches_done.max(warmup + 1)),
            "inference sim made no post-warmup progress"
        );
        let start = model.warmup_at.unwrap_or(SimTime::ZERO);
        let window = model.done_at.saturating_sub(start);
        let throughput = if window == SimTime::ZERO {
            0.0
        } else {
            model.completed_after_warmup as f64 / window.as_secs_f64()
        };
        let _ = bs;
        let serving = model.serving.as_ref().map(|st| {
            let snapshot = PipelineSnapshot::from_parts(st.registry.snapshot(), Vec::new());
            let goodput = if window == SimTime::ZERO {
                0.0
            } else {
                st.good_after_warmup as f64 / window.as_secs_f64()
            };
            ServingOutcome {
                offered: snapshot.serving.offered,
                admitted: snapshot.serving.admitted,
                rejected: snapshot.serving.rejected,
                shed: snapshot.serving.shed,
                completed: snapshot.serving.completed,
                good: snapshot.serving.good,
                goodput,
                snapshot,
            }
        });
        InferenceOutcome {
            throughput,
            mean_latency: model.latency.mean(),
            p50_latency: model.latency.median(),
            p99_latency: model.latency.p99(),
            cpu_cores: model.cpu.cores(model.done_at),
            sim_time: model.done_at,
            completed: model.completed_after_warmup,
            serving,
        }
    }

    /// Convenience: saturated throughput for (model, backend, batch).
    pub fn saturated_throughput(
        cal: &Calibration,
        model: ModelZoo,
        backend: BackendKind,
        batch_size: u32,
    ) -> f64 {
        InferenceSim::run(
            cal.clone(),
            InferenceParams::paper(model, backend, batch_size),
        )
        .throughput
    }

    /// Runs one [`DriveMode::Served`] experiment at `rate` requests/s.
    pub fn served(
        cal: &Calibration,
        model: ModelZoo,
        backend: BackendKind,
        batch_size: u32,
        cfg: ServingConfig,
        rate: f64,
        seed: u64,
    ) -> InferenceOutcome {
        let mut params = InferenceParams::paper(model, backend, batch_size);
        params.mode = DriveMode::Served { rate };
        params.serving = Some(cfg);
        params.seed = seed;
        InferenceSim::run(cal.clone(), params)
    }

    /// Open-loop overload sweep: measures saturated capacity, then drives
    /// the serving layer at `capacity × m` for every multiplier `m`
    /// (0.5×–3× is the canonical axis). This is the graceful-degradation
    /// experiment the serving layer exists for: with shedding enabled,
    /// goodput plateaus at capacity while admitted-request latency stays
    /// inside the SLO; without it, the admission queue grows without bound
    /// and every latency percentile blows through the deadline.
    pub fn overload_sweep(
        cal: &Calibration,
        model: ModelZoo,
        backend: BackendKind,
        batch_size: u32,
        cfg: ServingConfig,
        multipliers: &[f64],
        seed: u64,
    ) -> Vec<OverloadPoint> {
        Self::overload_sweep_grid(
            cal,
            model,
            backend,
            batch_size,
            cfg,
            &SweepGrid::with_multipliers(multipliers),
            seed,
        )
    }

    /// [`InferenceSim::overload_sweep`] with the full grid as a parameter:
    /// the multiplier axis *and* the per-point run length come from
    /// `grid`, so callers can trade sweep resolution against runtime
    /// without forking the driver.
    pub(crate) fn overload_sweep_grid(
        cal: &Calibration,
        model: ModelZoo,
        backend: BackendKind,
        batch_size: u32,
        cfg: ServingConfig,
        grid: &SweepGrid,
        seed: u64,
    ) -> Vec<OverloadPoint> {
        assert!(grid.batches > grid.warmup, "warmup eats the sweep budget");
        let capacity = Self::saturated_throughput(cal, model, backend, batch_size);
        grid.multipliers
            .iter()
            .map(|&m| {
                assert!(m > 0.0, "offered-load multiplier must be positive");
                let rate = capacity * m;
                let mut params = InferenceParams::paper(model, backend, batch_size);
                params.mode = DriveMode::Served { rate };
                params.serving = Some(cfg.clone());
                params.seed = seed;
                params.batches = grid.batches;
                params.warmup = grid.warmup;
                OverloadPoint {
                    multiplier: m,
                    offered_rate: rate,
                    capacity,
                    outcome: Self::run(cal.clone(), params),
                }
            })
            .collect()
    }

    /// Convenience: latency at `utilisation` of saturated capacity.
    pub fn loaded_latency(
        cal: &Calibration,
        model: ModelZoo,
        backend: BackendKind,
        batch_size: u32,
        utilisation: f64,
    ) -> InferenceOutcome {
        assert!((0.0..1.0).contains(&utilisation));
        let cap = Self::saturated_throughput(cal, model, backend, batch_size);
        let mut params = InferenceParams::paper(model, backend, batch_size);
        params.mode = DriveMode::Load {
            rate: cap * utilisation,
        };
        // Fewer batches: open-loop runs are slower per batch.
        params.batches = 150;
        params.warmup = 25;
        InferenceSim::run(cal.clone(), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::paper()
    }

    #[test]
    fn dlbooster_saturates_near_fpga_plateau() {
        let tp = InferenceSim::saturated_throughput(
            &cal(),
            ModelZoo::GoogLeNet,
            BackendKind::DlBooster,
            32,
        );
        // Fig. 7(a) plateau: ≈5.5–6 k img/s.
        assert!(
            (4_500.0..7_000.0).contains(&tp),
            "DLBooster GoogLeNet bs32: {tp:.0}"
        );
    }

    #[test]
    fn fig7_ordering_at_large_batch() {
        let c = cal();
        for model in [ModelZoo::GoogLeNet, ModelZoo::ResNet50] {
            let bs = model.paper_batch_size();
            let dlb = InferenceSim::saturated_throughput(&c, model, BackendKind::DlBooster, bs);
            let cpu = InferenceSim::saturated_throughput(&c, model, BackendKind::CpuBased, bs);
            let nv = InferenceSim::saturated_throughput(&c, model, BackendKind::NvJpeg, bs);
            assert!(
                dlb > cpu && cpu > nv,
                "{}: DLB {dlb:.0} / CPU {cpu:.0} / nvJPEG {nv:.0}",
                model.name()
            );
            // §5.3: DLBooster achieves 1.2×–2.4× the baselines.
            let gain = dlb / nv;
            assert!(
                (1.2..4.0).contains(&gain),
                "{}: DLBooster/nvJPEG gain {gain:.2}",
                model.name()
            );
        }
    }

    #[test]
    fn throughput_grows_with_batch_size() {
        let c = cal();
        let t1 =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, 1);
        let t8 =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, 8);
        let t32 =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, 32);
        assert!(t8 > t1 && t32 >= t8 * 0.95, "{t1:.0} → {t8:.0} → {t32:.0}");
    }

    #[test]
    fn fig8_latency_ordering_at_bs1() {
        let c = cal();
        let dlb =
            InferenceSim::loaded_latency(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, 1, 0.6);
        let nv = InferenceSim::loaded_latency(&c, ModelZoo::GoogLeNet, BackendKind::NvJpeg, 1, 0.6);
        let cpu =
            InferenceSim::loaded_latency(&c, ModelZoo::GoogLeNet, BackendKind::CpuBased, 1, 0.6);
        // Fig. 8(a) bs=1: 1.2 ms (DLB) < 1.8 ms (nvJPEG) < 3.4 ms (CPU).
        assert!(
            dlb.p50_latency < nv.p50_latency && nv.p50_latency < cpu.p50_latency,
            "DLB {} / nvJPEG {} / CPU {}",
            dlb.p50_latency,
            nv.p50_latency,
            cpu.p50_latency
        );
        assert!(
            dlb.p50_latency < SimTime::from_millis(3),
            "bs=1 DLBooster latency {}",
            dlb.p50_latency
        );
        // Paper's headline: DLBooster cuts latency by ≈1/3 vs CPU-based.
        let cut = 1.0 - dlb.p50_latency.as_secs_f64() / cpu.p50_latency.as_secs_f64();
        assert!(cut > 0.25, "latency cut {cut:.2}");
    }

    #[test]
    fn latency_grows_with_batch_size() {
        let c = cal();
        let small =
            InferenceSim::loaded_latency(&c, ModelZoo::Vgg16, BackendKind::DlBooster, 2, 0.5);
        let large =
            InferenceSim::loaded_latency(&c, ModelZoo::Vgg16, BackendKind::DlBooster, 16, 0.5);
        assert!(
            large.p50_latency > small.p50_latency,
            "Fig. 8 shape: {} vs {}",
            large.p50_latency,
            small.p50_latency
        );
    }

    #[test]
    fn fig9_cpu_cost_ordering() {
        let c = cal();
        let bs = 32;
        let cpu = InferenceSim::run(
            c.clone(),
            InferenceParams::paper(ModelZoo::GoogLeNet, BackendKind::CpuBased, bs),
        );
        let nv = InferenceSim::run(
            c.clone(),
            InferenceParams::paper(ModelZoo::GoogLeNet, BackendKind::NvJpeg, bs),
        );
        let dlb = InferenceSim::run(
            c,
            InferenceParams::paper(ModelZoo::GoogLeNet, BackendKind::DlBooster, bs),
        );
        // Fig. 9: CPU-based 7–14, nvJPEG ≈1.5, DLBooster ≈0.5.
        assert!(cpu.cpu_cores > 5.0, "CPU-based {:.1}", cpu.cpu_cores);
        assert!(
            (0.3..3.5).contains(&nv.cpu_cores),
            "nvJPEG {:.2}",
            nv.cpu_cores
        );
        assert!(dlb.cpu_cores < 1.2, "DLBooster {:.2}", dlb.cpu_cores);
        assert!(cpu.cpu_cores > nv.cpu_cores && nv.cpu_cores > dlb.cpu_cores);
    }

    #[test]
    fn more_fpgas_break_the_decode_plateau() {
        // §5.3 discussion: the GoogLeNet bs>=16 plateau is the FPGA decode
        // bound; a second device raises it until the GPU binds.
        let c = cal();
        let mut one = InferenceParams::paper(ModelZoo::GoogLeNet, BackendKind::DlBooster, 32);
        one.n_fpgas = 1;
        let mut two = one.clone();
        two.n_fpgas = 2;
        let t1 = InferenceSim::run(c.clone(), one).throughput;
        let t2 = InferenceSim::run(c, two).throughput;
        assert!(
            t2 > t1 * 1.3,
            "second FPGA must lift the plateau: {t1:.0} -> {t2:.0}"
        );
    }

    #[test]
    fn direct_gpu_dma_lowers_latency() {
        // Paper §7 future work (2): writing decoded data straight to the
        // GPU removes the host bounce. Latency must drop; throughput must
        // not regress (the copy stage was never the bottleneck, so gains
        // are latency-side).
        let c = cal();
        let mut base = InferenceParams::paper(ModelZoo::ResNet50, BackendKind::DlBooster, 16);
        base.mode = DriveMode::Load { rate: 2_000.0 };
        base.batches = 150;
        base.warmup = 25;
        let mut direct = base.clone();
        direct.direct_gpu_dma = true;
        let base_out = InferenceSim::run(c.clone(), base);
        let direct_out = InferenceSim::run(c, direct);
        assert!(
            direct_out.p50_latency < base_out.p50_latency,
            "direct DMA must cut latency: {} vs {}",
            direct_out.p50_latency,
            base_out.p50_latency
        );
        // The saved hop is the PCIe copy of one batch.
        let saved = base_out.p50_latency.saturating_sub(direct_out.p50_latency);
        assert!(
            saved.as_secs_f64() > 0.0 && saved < SimTime::from_millis(5),
            "saved {saved}"
        );
    }

    #[test]
    fn sweep_grid_defaults_match_the_canonical_axis() {
        let grid = SweepGrid::default();
        assert_eq!(grid.multipliers, OVERLOAD_MULTIPLIERS.to_vec());
        assert_eq!((grid.batches, grid.warmup), (300, 50));
        let custom = SweepGrid::with_multipliers(&[1.0, 4.0]);
        assert_eq!(custom.multipliers, vec![1.0, 4.0]);
        assert_eq!((custom.batches, custom.warmup), (300, 50));
    }

    #[test]
    #[should_panic(expected = "offline backend")]
    fn lmdb_rejected_for_inference() {
        let _ = InferenceSim::saturated_throughput(&cal(), ModelZoo::Vgg16, BackendKind::Lmdb, 8);
    }

    #[test]
    fn served_sample_cache_lifts_goodput_under_overload() {
        use dlb_serving::ShedPolicy;
        let c = cal();
        let capacity =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::CpuBased, 8);
        let cfg =
            ServingConfig::five_clients(8, SimTime::from_millis(25), ShedPolicy::DeadlineAware);
        let mut base = InferenceParams::paper(ModelZoo::GoogLeNet, BackendKind::CpuBased, 8);
        base.mode = DriveMode::Served {
            rate: capacity * 1.5,
        };
        base.serving = Some(cfg);
        base.seed = 13;
        base.batches = 200;
        base.warmup = 30;
        let mut cached = base.clone();
        // 5 tenants × 32 hot objects ≈ 24 MB of decoded frames: fits.
        cached.sample_cache_bytes = 64 << 20;
        cached.cache_keys_per_tenant = 32;
        let plain = InferenceSim::run(c.clone(), base).serving.unwrap();
        let with_cache = InferenceSim::run(c, cached).serving.unwrap();
        let cm = &with_cache.snapshot.cache;
        assert!(cm.hits > 0, "hot objects must produce cache hits");
        assert_eq!(cm.hits + cm.misses, cm.lookups);
        assert!(
            !cm.tenants.is_empty(),
            "Served mode must partition the cache per tenant"
        );
        assert_eq!(
            with_cache.snapshot.invariant_violations(),
            Vec::<String>::new()
        );
        // Hits skip the decode bottleneck, so overload goodput rises.
        assert!(
            with_cache.goodput > plain.goodput,
            "cached {:.0}/s vs plain {:.0}/s",
            with_cache.goodput,
            plain.goodput
        );
    }
}
