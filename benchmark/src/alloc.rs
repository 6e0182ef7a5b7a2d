//! A counting global allocator that lives only in the benchmark binary:
//! bytes and calls requested from the system allocator, two relaxed adds
//! per allocation. It is always on, so the timed and the traced runs pay
//! the same: a decoded image costs ≈33 allocations
//! (`codec.allocs_per_image`), so the counting is far below 0.1 % of a
//! decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the difference; a shrink requests nothing new.
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

/// `(bytes requested, allocation calls)` since process start.
pub fn totals() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

/// Allocation activity between two [`totals`] readings.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocDelta {
    pub bytes: u64,
    pub calls: u64,
}

impl AllocDelta {
    pub fn since(start: (u64, u64)) -> Self {
        let (b, c) = totals();
        AllocDelta {
            bytes: b - start.0,
            calls: c - start.1,
        }
    }

    pub fn kib_per(&self, n: u64) -> f64 {
        self.bytes as f64 / 1024.0 / n.max(1) as f64
    }

    pub fn calls_per(&self, n: u64) -> f64 {
        self.calls as f64 / n.max(1) as f64
    }
}
