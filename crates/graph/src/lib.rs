//! # dlb-graph — composable pipeline graphs
//!
//! ROADMAP item 3: a typed, user-composable pipeline-graph API in the
//! style of DALI's pre-compiled pipeline definitions. Users describe a
//! preprocessing pipeline as named stages with declared input/output kinds
//! ([`DataKind`]); [`GraphBuilder::build`] validates the structure at
//! build time (type mismatches, cycles, orphan stages → structured
//! [`GraphError`]s), and [`PipelineGraph::compile`] — a pure function of
//! `(graph, config)` — lowers it to a [`CompiledPipeline`] that the
//! executors (`DlBooster`, `CpuBackend`) wire onto the existing
//! queue/pool/telemetry substrate. The legacy constructors are canned
//! graphs ([`canned`]).
//!
//! The crate also ships the training-augmentation stages the paper skips
//! (`RandomCrop`, `RandomFlip`, `Normalize`), driven by a per-(epoch,
//! sample) splitmix64 seed derivation ([`seed`]) that follows the chaos
//! plane's determinism rules: any epoch's augmentations replay bitwise
//! from the run seed, regardless of worker count, batch composition, or
//! chaos-injected retries.
//!
//! ```
//! use dlb_graph::{Chain, GraphConfig, StageSpec, SourceKind, DecodeDevice, DataKind};
//!
//! let graph = Chain::new()
//!     .then("manifest", StageSpec::Source { kind: SourceKind::Disk })
//!     .then("decode", StageSpec::Decode { device: DecodeDevice::Cpu })
//!     .parallelism(4)
//!     .then("resize", StageSpec::Resize { width: 64, height: 64 })
//!     .then("crop", StageSpec::RandomCrop { width: 48, height: 48 })
//!     .then("flip", StageSpec::RandomFlip { prob: 0.5 })
//!     .then("dispatch", StageSpec::Sink)
//!     .build()
//!     .unwrap();
//! let compiled = graph.compile(&GraphConfig { seed: 7, ..Default::default() }).unwrap();
//! assert_eq!(compiled.output.kind, DataKind::DecodedImage);
//! assert_eq!(compiled.output.width, 48);
//! ```

#![warn(missing_docs)]

pub mod augment;
pub mod canned;
pub mod graph;
pub mod seed;
pub mod stage;

pub use augment::{AugmentOp, SampleAugmentor};
pub use canned::{augmented_training, cpu_training, fpga_streaming, fpga_training, Chain};
pub use graph::{CompiledPipeline, GraphBuilder, GraphConfig, GraphError, NodeId, PipelineGraph};
pub use seed::source_identity;
pub use stage::{DataKind, DecodeDevice, SourceKind, StageSpec};
