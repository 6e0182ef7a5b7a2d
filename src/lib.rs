//! # DLBooster — a Rust reproduction
//!
//! This workspace reproduces **"DLBooster: Boosting End-to-End Deep Learning
//! Workflows with Offloading Data Preprocessing Pipelines"** (Cheng et al.,
//! ICPP 2019): an online data-preprocessing backend that offloads JPEG
//! decode + resize to an FPGA and streams decoded batches to GPU compute
//! engines through a carefully engineered host bridge.
//!
//! No FPGA/GPU hardware is required: every device is rebuilt as a
//! *simulated substrate* with the paper's interfaces and a calibrated timing
//! model, while all host software — the batch memory pool (Algorithm 2), the
//! asynchronous `FPGAReader` (Algorithm 1), the round-robin `Dispatcher`
//! (Algorithm 3), the baselines, and a real from-scratch JPEG codec — is
//! real, tested Rust. See `DESIGN.md` for the substitution table and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use dlbooster::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A synthetic ILSVRC-like dataset on a simulated NVMe disk.
//! let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
//! let dataset = Dataset::build(DatasetSpec::ilsvrc_small(8, 42), &disk).unwrap();
//!
//! // 2. An FPGA with the paper's 4-way/2-way JPEG decoder mirror.
//! let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
//! device.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
//! let engine = DecoderEngine::start(
//!     device,
//!     Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
//! ).unwrap();
//!
//! // 3. DLBooster: collector → FPGAReader → per-engine slot queues.
//! let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 1));
//! let booster = DlBooster::start(
//!     collector,
//!     FpgaChannel::init(engine, 0),
//!     DlBoosterConfig::training(1, 4, (64, 64), dataset.records.len(), Some(2)),
//! ).unwrap();
//!
//! // 4. Consume decoded batches like a compute engine would.
//! let batch = booster.next_batch(0).unwrap();
//! assert_eq!(batch.len(), 4);
//! booster.recycle(batch.unit);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`cache`] | `dlb-cache` | decoded-sample cache: cost-aware eviction, quarantine, tenant partitions |
//! | [`chaos`] | `dlb-chaos` | seeded fault injection + retry/backoff policies |
//! | [`cluster`] | `dlb-cluster` | shard router: consistent-hash ring, tenant quotas, hedging, node failover |
//! | [`codec`] | `dlb-codec` | from-scratch baseline JPEG + resize + augment |
//! | [`graph`] | `dlb-graph` | composable pipeline graphs: typed stages, build-time validation, seeded augmentation |
//! | [`simcore`] | `dlb-simcore` | deterministic DES engine, queueing, stats |
//! | [`membridge`] | `dlb-membridge` | HugePage batch pool + blocking queues |
//! | [`fpga`] | `dlb-fpga` | FPGA substrate: mirrors, functional engine, timing |
//! | [`gpu`] | `dlb-gpu` | GPU substrate: model zoo, kernels, streams, nvJPEG |
//! | [`storage`] | `dlb-storage` | NVMe model, synthetic datasets, LMDB store |
//! | [`net`] | `dlb-net` | 40 Gbps NIC, framing, client generators |
//! | [`serving`] | `dlb-serving` | SLO-aware serving: dynamic batching, admission control, load shedding, per-tenant WFQ |
//! | [`telemetry`] | `dlb-telemetry` | pipeline metrics, snapshots, stall watchdog, Prometheus export |
//! | [`trace`] | `dlb-trace` | per-batch span tracing, critical-path attribution, Perfetto export |
//! | [`core`] | `dlbooster-core` | the paper's host bridger (Algorithms 1–3) |
//! | [`backends`] | `dlb-backends` | CPU-based / LMDB / nvJPEG baselines |
//! | [`engines`] | `dlb-engines` | NVCaffe-like trainer, TensorRT-like server |
//! | [`workflows`] | `dlb-workflows` | figure-regenerating experiment DES |

pub use dlb_backends as backends;
pub use dlb_cache as cache;
pub use dlb_chaos as chaos;
pub use dlb_cluster as cluster;
pub use dlb_codec as codec;
pub use dlb_engines as engines;
pub use dlb_fpga as fpga;
pub use dlb_gpu as gpu;
pub use dlb_graph as graph;
pub use dlb_membridge as membridge;
pub use dlb_net as net;
pub use dlb_serving as serving;
pub use dlb_simcore as simcore;
pub use dlb_storage as storage;
pub use dlb_telemetry as telemetry;
pub use dlb_trace as trace;
pub use dlb_workflows as workflows;
pub use dlbooster_core as core;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use dlb_backends::{
        CpuBackend, CpuBackendConfig, FailoverBackend, FailoverConfig, LmdbBackend,
        LmdbBackendConfig, NvJpegBackend, NvJpegBackendConfig,
    };
    pub use dlb_cache::{CachedSample, SampleCache, SampleKey};
    pub use dlb_chaos::{
        CancelToken, FaultKind, FaultPlan, Retrier, RetryPolicy, Stage, StageSpec,
    };
    pub use dlb_cluster::{
        BoosterCluster, ClusterInstruments, DedupLedger, HashRing, HedgeConfig, TenantQuotas,
    };
    pub use dlb_codec::{ColorSpace, Image, JpegDecoder, JpegEncoder};
    pub use dlb_engines::{InferenceConfig, InferenceSession, TrainingConfig, TrainingSession};
    pub use dlb_fpga::{
        DecodeCmd, DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice, FpgaTimingModel,
        ImageWorkload, OutputFormat,
    };
    pub use dlb_gpu::{GpuDevice, GpuSpec, GpuTimingModel, ModelZoo, Precision};
    pub use dlb_graph::{
        Chain, DataKind, DecodeDevice, GraphBuilder, GraphConfig, GraphError, PipelineGraph,
        SampleAugmentor, SourceKind, StageSpec as GraphStageSpec,
    };
    pub use dlb_membridge::{BatchUnit, BlockingQueue, MemManager, PoolConfig};
    pub use dlb_net::{ClientPool, NicRx, NicSpec};
    pub use dlb_serving::{ServeRequest, ServingBridge, ServingConfig, ShedPolicy, TenantClass};
    pub use dlb_storage::{Dataset, DatasetSpec, LmdbStore, NvmeDisk, NvmeSpec};
    pub use dlb_telemetry::{PipelineSnapshot, Telemetry};
    pub use dlb_trace::{CriticalPathReport, SpanKind, TraceSnapshot, Tracer};
    pub use dlb_workflows::calibration::{BackendKind, Calibration, Workload};
    pub use dlbooster_core::{
        CombinedResolver, DataCollector, Dispatcher, DlBooster, DlBoosterConfig, FpgaChannel,
        FpgaReader, HostBatch, PreprocessBackend, ReaderConfig,
    };
}
