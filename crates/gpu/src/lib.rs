//! # dlb-gpu
//!
//! The GPU substrate the compute engines run on (paper testbed: 2× NVIDIA
//! Tesla P100; §2.2 also cites V100 and DGX-2 numbers).
//!
//! ## Substitution note (no CUDA hardware here)
//!
//! Figures 2 and 5–9 depend on the GPU only through (a) per-model forward /
//! backward times as a function of batch size, (b) PCIe copy behaviour,
//! (c) CUDA-core contention when nvJPEG decodes on-device, and (d) the CPU
//! cost of launching kernels. This crate rebuilds exactly those surfaces:
//!
//! * [`device`] — part specs (P100, V100), device-memory accounting and
//!   buffer objects.
//! * [`models`] — a layer-level DSL that *computes* FLOPs/params for
//!   LeNet-5, AlexNet, ResNet-18, GoogLeNet, VGG-16 and ResNet-50 from their
//!   published architectures (not hard-coded totals — unit tests check the
//!   totals land on the literature values).
//! * [`timing`] — kernel-time model: FLOPs over effective throughput with a
//!   batch-dependent efficiency curve, fp16 tensor-core scaling, NCCL-style
//!   allreduce, kernel-launch CPU overhead, and the nvJPEG decode-kernel
//!   model with its SM-share contention (the −30..40 % effect of §5.3).
//! * [`stream`] — functional CUDA-stream analogue: per-stream worker threads
//!   executing async copies and kernels with modelled durations (scaled by a
//!   configurable factor so tests run fast), plus events and stream sync —
//!   the semantics Algorithm 3's dispatcher needs.

pub mod device;
pub mod models;
pub mod stream;
pub mod timing;

pub use device::{DeviceBuffer, GpuDevice, GpuSpec};
pub use models::ModelZoo;
pub use stream::{GpuOp, GpuStream, StreamSet};
pub use timing::{GpuTimingModel, NvJpegModel, Precision};
