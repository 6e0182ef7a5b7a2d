//! # dlb-engines
//!
//! The compute engines DLBooster feeds (paper §4.2/§5): an NVCaffe-like
//! data-parallel **training engine** and a TensorRT-like fp16 **inference
//! engine**. Both are backend-agnostic — they pull batches through the
//! Algorithm-3 [`Dispatcher`](dlbooster_core::Dispatcher) and never know
//! which backend decoded the pixels (§3.1's decoupling).
//!
//! ## Substitution note
//!
//! There is no CUDA here: kernels are priced by `dlb-gpu`'s calibrated
//! timing model and executed as scaled waits on functional streams. Each
//! engine therefore reports two clocks:
//! * **modelled time** — the virtual GPU time the kernels would take on the
//!   paper's parts (what the figures use), and
//! * **wall time** — real elapsed time of the functional run (used by tests
//!   to validate pipelining, not absolute numbers).
//!
//! Host-side CPU costs (kernel launch / input transform / optimiser step —
//! the Fig. 6(d) breakdown) are charged from the same timing model.

pub mod inference;
pub mod metrics;
pub mod trainer;

pub use inference::{InferenceConfig, InferenceSession};

pub use trainer::{TrainingConfig, TrainingSession};
