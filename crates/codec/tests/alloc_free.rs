//! The decode kernel allocates nothing once its scratch has seen a
//! geometry. Measured with a counting global allocator that tallies per
//! thread, so the test harness's own threads do not disturb the count.

use dlb_codec::synth::{generate, SynthStyle};
use dlb_codec::{ChromaMode, ColorSpace, DecodeScratch, JpegDecoder, JpegEncoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain per-thread statistic.
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
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread requested from the allocator while `f` ran.
fn allocated(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn decodes_of_a_seen_geometry_allocate_nothing() {
    let jpeg = |w, h, mode, ri, seed| {
        JpegEncoder::new(90)
            .unwrap()
            .with_mode(mode)
            .with_restart_interval(ri)
            .encode(&generate(w, h, SynthStyle::Photo, seed))
            .unwrap()
    };
    // Two geometries, two samplings, with and without restart intervals;
    // `b2` shares everything with `b` but its pixels.
    let a = jpeg(200, 150, ChromaMode::Yuv420, 0, 1);
    let b = jpeg(123, 77, ChromaMode::Yuv444, 5, 2);
    let b2 = jpeg(123, 77, ChromaMode::Yuv444, 5, 3);
    let dec = JpegDecoder::new();
    let mut scratch = DecodeScratch::new();
    let mut out = vec![0u8; 224 * 224 * 3];

    let mut run = |bytes: &[u8], target, color| {
        allocated(|| {
            dec.decode_into(bytes, &mut scratch, target, color, &mut out)
                .unwrap();
        })
    };
    let rgb = ColorSpace::Rgb;
    assert!(run(&a, Some((224, 224)), rgb) > 0, "a cold scratch grows");
    assert_eq!(run(&a, Some((224, 224)), rgb), 0);
    assert_eq!(run(&a, Some((224, 224)), rgb), 0);
    // A smaller image with other tables and a gray delivery: the tables are
    // rebuilt in place and the row buffers are already large enough, except
    // those this combination is the first to need.
    run(&b, Some((64, 64)), ColorSpace::Gray);
    assert_eq!(run(&b, Some((64, 64)), ColorSpace::Gray), 0);
    assert_eq!(run(&b2, Some((64, 64)), ColorSpace::Gray), 0);
    assert_eq!(run(&b, None, rgb), 0, "source geometry needs no new buffer");
    // Back to the first geometry: its taps are rebuilt into their old
    // storage, nothing is requested.
    assert_eq!(run(&a, Some((224, 224)), rgb), 0);
    // Alternating keeps costing nothing.
    for _ in 0..3 {
        assert_eq!(run(&b2, Some((64, 64)), ColorSpace::Gray), 0);
        assert_eq!(run(&a, Some((224, 224)), rgb), 0);
    }
}
