//! # dlb-membridge
//!
//! The memory-management substrate of DLBooster's host bridger (paper §3.4.2,
//! Algorithm 2): a HugePage-style pool of large, physically-addressable batch
//! buffers, recycled through a pair of blocking queues
//! (`Free_Batch_Queue` / `Full_Batch_Queue`).
//!
//! The paper's motivation is reproduced verbatim here: data are preprocessed
//! *in batches*, a batch needs more contiguous memory than `mmap` page games
//! give you, and copying many small pieces costs ≈20 % of training throughput
//! (§5.2). So the pool allocates every buffer up front, slices it into
//! fixed-size units, and the pipeline only ever moves *unit ownership*, never
//! bytes. A unit may also *lend* items ([`BatchUnit::lend`]): bytes that
//! already sit in host memory (a pinned sample-cache slot) keep their place
//! in the batch layout without being copied into the unit, and the single
//! copy to the device gathers them ([`BatchUnit::gather_into`]).
//!
//! ## Substitution note (no real HugePages / FPGA DMA here)
//!
//! On the paper's testbed a unit's *physical* address is what the FPGA DMA
//! engine writes to. In this reproduction, physical addresses are simulated:
//! each unit carries a stable `phys_addr` drawn from a contiguous fake
//! physical range, and [`MemManager::phy2virt`]/[`MemManager::virt2phy`]
//! implement the translation the paper's Table 1 lists. The byte storage
//! backing a unit is an ordinary owned allocation — ownership transfer
//! through the queues provides exactly the aliasing guarantees the real
//! system gets from its recycle protocol.

pub mod pool;
pub mod queue;

pub use pool::{BatchUnit, ItemDesc, MemManager, PoolConfig, PoolError};
pub use queue::{BlockingQueue, QueueClosed};
