//! # dlb-workflows
//!
//! End-to-end experiment runners that regenerate every table and figure of
//! the paper's evaluation (§5) on the discrete-event timing layer, plus the
//! §5.4 economics model.
//!
//! * [`calibration`] — every constant of the timing models, each tied to the
//!   paper sentence (or public spec) that fixes it.
//! * [`training`] — the offline-training DES (Figs. 2, 5, 6): data-parallel
//!   solvers over P100s fed by a backend model, synchronous SGD with
//!   allreduce, warmup-trimmed throughput and CPU-core accounting.
//! * [`inference`] — the online-inference DES (Figs. 7, 8, 9): Poisson
//!   clients over the 40 Gbps NIC, batch assembly, backend decode station,
//!   PCIe copy, contended GPU service, per-request latency — plus the
//!   beyond-paper [`DriveMode::Served`]
//!   overload sweeps through the `dlb-serving` layer (dynamic batching,
//!   admission control, load shedding, per-tenant WFQ).
//! * [`figures`] — per-figure sweep drivers and the §3.3/§3.4 design-choice
//!   ablations, producing [`report`] tables with paper-expected values
//!   alongside measured ones; the `figures` binary prints every one.
//! * [`economics`] — the cost model of §5.4.
//! * [`report`] — plain-text table rendering and JSON export.
//! * [`cluster`] — beyond-paper scale-out: N simulated preprocessing nodes
//!   behind the `dlb-cluster` shard router (consistent-hash placement,
//!   per-tenant quotas, deadline-budget hedging, mid-run chaos kills with
//!   replay), reported as a goodput/p99-vs-killed-nodes figure.
//! * [`trace`] — critical-path figure folded from `dlb-trace` span
//!   snapshots: per-stage service load and the pipeline bottleneck.

pub mod calibration;
pub mod cluster;
pub mod economics;
pub mod figures;
pub mod inference;
pub mod report;
pub mod trace;
pub mod training;

pub use calibration::{BackendKind, Calibration, Workload};

pub use cluster::{ClusterOutcome, ClusterParams, ClusterSim};
pub use inference::{
    DriveMode, InferenceParams, InferenceSim, ServingOutcome, OVERLOAD_MULTIPLIERS,
};
pub use report::{goodput_vs_offered_load, TelemetryReport};
pub use trace::critical_path_figure;
pub use training::TrainingSim;
