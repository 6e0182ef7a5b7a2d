//! # dlbooster-core
//!
//! The paper's primary contribution: the host bridger that couples the FPGA
//! decoder to GPU compute engines (paper §3.4, Algorithms 1–3, Table 1).
//!
//! * [`collector`] — `DataCollector`: translates file metadata from disk
//!   manifests (`load_from_disk`) or NIC RX descriptors (`load_from_net`)
//!   into decode-cmd material.
//! * [`resolver`] — binds the FPGA DataReader's fetch ports to the NVMe
//!   disk and the NIC RX buffers.
//! * [`channel`] — `FPGAChannel`: the cmd-FIFO / FINISH-signal abstraction
//!   over a decoder engine (`submit_cmd` / `drain_out`, Table 1).
//! * [`reader`] — `FPGAReader` (Algorithm 1): the asynchronous daemon that
//!   leases batch buffers, packs cmds, and keeps the decoder fed.
//! * [`router`] — `SlotRouter`: round-robin delivery of finished batches
//!   to per-engine slot queues, shared by the reader and every baseline.
//! * [`dispatcher`] — `Dispatcher` (Algorithm 3): round-robin delivery of
//!   full batches to per-engine Trans Queues with async H2D copies.
//! * [`backend`] — the `PreprocessBackend` trait every backend (DLBooster
//!   and the three baselines in `dlb-backends`) implements, so compute
//!   engines stay backend-agnostic (§3.1 programming flexibility).
//! * [`booster`] — the assembled `DlBooster` backend; its hybrid mode
//!   (§3.1: "DLBooster preprocesses all data in the first epoch and caches
//!   them in memory as it can") is a `dlb-cache` sample cache sized to one
//!   decoded epoch.

pub mod backend;
pub mod booster;
pub mod channel;
pub mod collector;
pub mod dispatcher;
pub mod reader;
pub mod resolver;
pub mod router;

pub use backend::{BackendError, HostBatch, PreprocessBackend};
pub use booster::{DlBooster, DlBoosterConfig};
pub use channel::FpgaChannel;
pub use collector::{DataCollector, FileMeta};
pub use dispatcher::{Dispatcher, TransQueues};
pub use reader::{augment_identity, fill_from_cache, sample_key, FpgaReader, ReaderConfig};
pub use resolver::CombinedResolver;
pub use router::SlotRouter;
