//! # dlb-telemetry
//!
//! Pipeline-wide observability for the DLBooster reproduction, with zero
//! external dependencies:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free recording
//!   primitives with mergeable snapshots ([`HistogramSnapshot`],
//!   `RegistrySnapshot`);
//! * [`Registry`] — get-or-create named metrics behind one handle;
//! * `Watchdog` — flags stage queues that hold work but stop moving;
//! * [`PipelineSnapshot`] — the typed view (six stages, optional layers,
//!   queues) generated from [`pipeline`]'s metric table, with the law
//!   table's conservation invariants and text/JSON rendering;
//! * [`Json`] — a dependency-free JSON value used for every structured
//!   report in the workspace;
//! * [`prometheus`] — text-exposition rendering of a `RegistrySnapshot`
//!   for scrape-based collection, next to the JSON export.
//!
//! Stage crates record through `Arc` handles obtained once at
//! construction; the hot path is a relaxed atomic op. The [`Telemetry`]
//! bundle (registry + watchdog) is created by the Booster and threaded
//! through the stages it builds.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod prometheus;
pub mod registry;
pub mod watchdog;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use pipeline::{
    names, ChannelMetrics, ChaosMetrics, DecoderMetrics, DispatcherMetrics, EngineMetrics,
    PipelineSnapshot, PoolMetrics, QueueMetrics, ReaderMetrics, ServingMetrics, Telemetry,
    TenantServingMetrics,
};
pub use registry::{MetricValue, Registry};
pub use watchdog::Heartbeat;
