//! # dlb-fpga
//!
//! The FPGA substrate DLBooster offloads its preprocessing to (paper §3.3,
//! Fig. 4). The paper deploys an OpenCL JPEG decoder on an Intel Arria-10:
//! a cmd parser, DataReaders, an MMU, a **4-way Huffman decoding unit**, an
//! iDCT & RGB unit, a **2-way resizer**, and a DMA writeback engine with a
//! FINISH arbiter.
//!
//! ## Substitution note (no FPGA hardware here)
//!
//! This crate rebuilds that device as two complementary layers:
//!
//! * **Functional layer** ([`engine`]): a real, running decoder. A device
//!   orchestrator drains a cmd FIFO; `huffman_ways` lane workers perform the
//!   actual Huffman+iDCT+resize work (using `dlb-codec`, the same arithmetic
//!   the RTL performs); a serial DMA stage writes decoded pixels back into
//!   the host batch buffer at the physical offsets carried by each cmd. The
//!   concurrency topology (N-way entropy lanes, serial writeback, FIFO cmds,
//!   completion signals) is the paper's, executed on CPU threads.
//! * **Timing layer** ([`timing`]): a cycle-calibrated pipeline model used by
//!   the discrete-event experiments. Per-stage service rates reproduce the
//!   load-balance and saturation behaviour the paper reports (the Fig. 7a
//!   plateau at large batch sizes is this model hitting its bottleneck
//!   stage).
//!
//! Decoder *mirrors* ([`mirror`]) — the paper's pluggable bitstreams — carry
//! resource requirements that are checked against the device's ALM/DSP/BRAM
//! budget at load time, reproducing the "balance between workload and
//! resource constraint" design discussion (§1 challenge 2).

pub mod cmd;
pub mod device;
pub mod engine;
pub mod error;
pub mod mirror;
pub mod timing;

pub use cmd::{DataRef, DecodeCmd, OutputFormat};
pub use device::{DeviceSpec, FpgaDevice};
pub use engine::{CompletedBatch, DataSourceResolver, DecoderEngine, MapResolver, Submission};
pub use error::FpgaError;
pub use mirror::DecoderMirror;
pub use timing::{FpgaTimingModel, ImageWorkload};
