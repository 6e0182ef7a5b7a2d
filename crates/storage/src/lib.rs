//! # dlb-storage
//!
//! Storage substrate: the NVMe disk, the synthetic datasets, and the
//! LMDB-like offline backend store.
//!
//! ## Substitution note
//!
//! * The paper's testbed reads ILSVRC2012 (≈12.8 M JPEGs, avg ≈100 KB at
//!   500×375) and MNIST (60 k 28×28 grayscale) from an Intel Optane 900p.
//!   Neither dataset ships here, so [`dataset`] *synthesises* look-alikes:
//!   every image is generated deterministically (`dlb-codec::synth`) and
//!   encoded with our own JPEG encoder, so the decode path chews on real
//!   entropy-coded bytes with realistic compression ratios. Datasets are
//!   size-scalable: functional tests use hundreds of images at reduced
//!   resolution, the DES experiments use the paper's full-scale statistics.
//! * [`nvme`] models the Optane 900p as a flat object store with a
//!   bandwidth/latency timing model (`SerialPipe`).
//! * [`lmdb`] rebuilds the relevant slice of LMDB: offline conversion
//!   (decode-once, store fixed-size raw records), keyed reads that copy out
//!   per-datum (the small-piece copy overhead of §5.2), and read statistics
//!   the DES contention model consumes.

pub mod dataset;
pub mod lmdb;
pub mod nvme;

pub use dataset::{Dataset, DatasetSpec, Record};
pub use lmdb::LmdbStore;
pub use nvme::{NvmeDisk, NvmeSpec};
