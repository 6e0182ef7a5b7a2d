//! # dlb-net
//!
//! Network substrate for the online-inference workflow (paper §5.3): five
//! clients send JPEG images over a 40 Gbps fabric; the NIC deposits payloads
//! into host memory where the FPGA's DataReader fetches them ("DMA from
//! DRAM", Fig. 4), and response latency is measured from arrival at the
//! inference system to prediction.
//!
//! ## Substitution note
//!
//! No real fabric exists here. [`framing`] defines a real wire format that
//! is actually encoded/parsed; [`nic`] is a functional RX engine placing
//! payloads at simulated physical addresses plus a 40 Gbps timing model;
//! [`client`] generates deterministic request streams (exponential
//! inter-arrival, synthetic JPEG payloads) so both the functional pipeline
//! and the DES see the same offered load.

pub mod client;
pub mod framing;
pub mod nic;

pub use client::ClientPool;
pub use framing::{Frame, FrameError};
pub use nic::{NicRx, NicSpec, RxDescriptor, RxError};
