//! Engine-side measurement: the retired-batch counters and the CPU-cost
//! breakdown the paper's Figures 2(b), 6 and 9 report.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counts retired images and batches across engine threads.
#[derive(Debug, Default)]
pub(crate) struct EngineClock {
    /// Images processed.
    images: AtomicU64,
    /// Iterations / batches retired.
    iterations: AtomicU64,
}

impl EngineClock {
    /// New zeroed clock.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one retired batch of `images` images.
    pub(crate) fn record_batch(&self, images: u64) {
        self.images.fetch_add(images, Ordering::Relaxed);
        self.iterations.fetch_add(1, Ordering::Relaxed);
    }

    /// Images retired.
    pub(crate) fn images(&self) -> u64 {
        self.images.load(Ordering::Relaxed)
    }

    /// Batches retired.
    pub(crate) fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }
}

/// Host CPU cost split by activity — Fig. 6(d)'s four bars.
#[derive(Debug, Default)]
pub struct CpuCostBreakdown {
    /// Preprocessing (decode / read) nanos — charged by the backend.
    pub preprocessing_nanos: AtomicU64,
    /// Input-transform nanos (tensor layout / normalisation bookkeeping).
    pub transform_nanos: AtomicU64,
    /// Kernel-launch driver nanos.
    pub launch_nanos: AtomicU64,
    /// Optimiser-step driver nanos.
    pub update_nanos: AtomicU64,
}

impl CpuCostBreakdown {
    /// New zeroed breakdown.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let c = EngineClock::new();
        c.record_batch(256);
        c.record_batch(256);
        assert_eq!(c.images(), 512);
        assert_eq!(c.iterations(), 2);
    }
}
