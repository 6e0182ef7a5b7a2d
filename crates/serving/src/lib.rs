//! # dlb-serving
//!
//! SLO-aware serving layer between `dlb-net`'s RX path and the
//! decode/inference pipeline — the subsystem that lets the reproduction
//! degrade gracefully under overload instead of queueing unboundedly
//! (ROADMAP north star: "serve heavy traffic from millions of users").
//!
//! Four cooperating pieces:
//!
//! * [`BatchFormer`] — work-conserving dynamic batching (Triton/Clipper
//!   style): a batch closes at `max_batch` items, after `max_linger`, or
//!   as soon as nothing dispatched earlier is still in flight, so it
//!   lingers only while the pipeline is busy;
//! * [`AdmissionController`] — per-request deadlines with load shedding:
//!   requests whose predicted queue delay makes the SLO infeasible are
//!   rejected at admission ([`ShedPolicy::DropNewest`],
//!   [`ShedPolicy::DropOldest`], or [`ShedPolicy::DeadlineAware`]);
//! * [`WeightedFairQueue`] — start-time fair queuing across tenant
//!   classes, so one hot tenant cannot starve the rest;
//! * [`ServingBridge`] — functional-pipeline glue: NIC ring → admission →
//!   WFQ → batch former → `DataCollector`, releasing payload buffers
//!   (shed: at once; served: after completion) and scoring completions
//!   against their deadlines.
//!
//! Everything records through `dlb-telemetry` under the canonical
//! `serving.*` names; `PipelineSnapshot` enforces the conservation
//! contract `offered = admitted + rejected` and
//! `admitted = completed + shed + inflight`.
//!
//! The DES integration (open-loop overload sweeps) lives in
//! `dlb-workflows`; this crate is clock-domain agnostic and takes
//! [`dlb_simcore::SimTime`] everywhere.

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod bridge;
pub mod config;
pub mod instruments;
pub mod wfq;

pub use admission::AdmissionController;
pub use batcher::{BatchFormer, CloseReason, FormedBatch};
pub use bridge::{IngestStats, ServingBridge};
pub use config::{ServeRequest, ServingConfig, ShedPolicy, TenantClass};
pub use instruments::ServingInstruments;
pub use wfq::WeightedFairQueue;
