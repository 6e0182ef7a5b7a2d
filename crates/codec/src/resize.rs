//! Image resampling.
//!
//! DLBooster's FPGA pipeline ends in a 2-way resizing unit (paper Fig. 4):
//! decoded frames are reshaped to the model input size (e.g. 256×256 before
//! the augmentation crop to 224×224) *on the device*, so the host only ever
//! sees fixed-size tensors. This module provides the same operation for the
//! functional pipeline and for the CPU baseline backend.

use crate::error::{CodecError, CodecResult};
use crate::pixel::{clamp_u8, Image};

/// Resampling filter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResizeFilter {
    /// Nearest-neighbour: cheapest, used by the FPGA's low-area configuration.
    Nearest,
    /// Bilinear: the default, matching the paper's resizer unit.
    #[default]
    Bilinear,
    /// Box/area averaging: best for large downscales (offline conversion).
    Area,
}

/// Resizes `src` to `dst_w` × `dst_h` with the given filter.
pub fn resize(src: &Image, dst_w: u32, dst_h: u32, filter: ResizeFilter) -> CodecResult<Image> {
    if dst_w == 0 || dst_h == 0 || dst_w > Image::MAX_DIM || dst_h > Image::MAX_DIM {
        return Err(CodecError::UnsupportedDimensions {
            width: dst_w,
            height: dst_h,
        });
    }
    if dst_w == src.width() && dst_h == src.height() {
        return Ok(src.clone());
    }
    match filter {
        ResizeFilter::Nearest => Ok(resize_nearest(src, dst_w, dst_h)),
        ResizeFilter::Bilinear => Ok(resize_bilinear(src, dst_w, dst_h)),
        ResizeFilter::Area => Ok(resize_area(src, dst_w, dst_h)),
    }
}

fn resize_nearest(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
    let sdata = src.data();
    for dy in 0..dst_h as usize {
        let sy = (dy * sh / dst_h as usize).min(sh - 1);
        for dx in 0..dst_w as usize {
            let sx = (dx * sw / dst_w as usize).min(sw - 1);
            let s = (sy * sw + sx) * c;
            let d = (dy * dst_w as usize + dx) * c;
            out[d..d + c].copy_from_slice(&sdata[s..s + c]);
        }
    }
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

/// One horizontal tap of the separable bilinear filter: byte offsets of the
/// two source pixels within a row and the weight of the second.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XTap {
    pub(crate) o0: u32,
    pub(crate) o1: u32,
    pub(crate) wx: f32,
}

/// The bilinear taps of a `sw` → `dst_w` row of `c`-channel pixels, cached
/// by geometry so a caller that keeps them (the decode scratch) rebuilds
/// only when the geometry changes.
#[derive(Debug, Default)]
pub(crate) struct XTaps {
    key: (usize, usize, usize),
    taps: Vec<XTap>,
}

impl XTaps {
    /// Makes the taps those of (`sw`, `dst_w`, `c`).
    pub(crate) fn prepare(&mut self, sw: usize, dst_w: usize, c: usize) {
        if self.key == (sw, dst_w, c) {
            return;
        }
        // Pixel-centre mapping: d+0.5 in dst ↔ (d+0.5)·scale in src.
        let x_scale = sw as f32 / dst_w as f32;
        self.taps.clear();
        self.taps.extend((0..dst_w).map(|dx| {
            let fx = ((dx as f32 + 0.5) * x_scale - 0.5).max(0.0);
            let x0 = fx as usize;
            XTap {
                o0: (x0 * c) as u32,
                o1: ((x0 + 1).min(sw - 1) * c) as u32,
                wx: fx - x0 as f32,
            }
        }));
        self.key = (sw, dst_w, c);
    }

    /// Heap bytes held.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.taps.capacity() * std::mem::size_of::<XTap>()
    }
}

/// Horizontal lerp of one `c`-channel source row into f32:
/// `p0 + (p1 − p0)·wx` per channel. The SIMD kernel evaluates the same
/// expression four lanes per tap; it reads four bytes at each tap offset and
/// writes four floats per tap, so it runs on the leading taps for which both
/// stay inside `src` and `out`, and the scalar loop finishes the row.
pub(crate) fn hlerp_row(src: &[u8], c: usize, taps: &XTaps, out: &mut [f32]) {
    let taps = &taps.taps[..];
    debug_assert!(out.len() >= taps.len() * c);
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if c == 3 && crate::simd::simd_active() {
        // `o1` is nondecreasing, so the taps that may read 4 bytes form a
        // prefix; the last tap's 4-float store needs one float of slack.
        let by_src = taps.partition_point(|t| t.o1 as usize + 4 <= src.len());
        done = by_src.min((out.len().saturating_sub(1)) / 3);
        // SAFETY: `simd_active` implies AVX2; for every tap in the prefix
        // `o0 <= o1`, `o1 + 4 <= src.len()` and `3·dx + 4 <= out.len()`.
        unsafe { crate::simd::hlerp_rgb_taps_avx2(src, &taps[..done], out) };
    }
    for (dx, t) in taps.iter().enumerate().skip(done) {
        for ch in 0..c {
            let p0 = src[t.o0 as usize + ch] as f32;
            let p1 = src[t.o1 as usize + ch] as f32;
            out[dx * c + ch] = p0 + (p1 - p0) * t.wx;
        }
    }
}

/// Vertical bilinear blend of two horizontally-lerped rows into u8 output.
/// Bit-exact between the AVX2 kernel and the scalar loop.
#[inline]
pub(crate) fn lerp_rows_to_u8(top: &[f32], bot: &[f32], wy: f32, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        // SAFETY: `simd_active` returns true only after runtime AVX2
        // detection succeeds; callers pass equal-length slices.
        unsafe { crate::simd::lerp_rows_to_u8_avx2(top, bot, wy, out) };
        return;
    }
    for ((o, &t), &b) in out.iter_mut().zip(top).zip(bot) {
        *o = clamp_u8(t + (b - t) * wy);
    }
}

/// The vertical half of the separable bilinear filter, driven by output
/// rows, over source rows that become available top to bottom.
///
/// Output row `dy` blends the horizontally-lerped source rows `y0` and
/// `y1 = min(y0 + 1, sh − 1)`. They are kept in a two-slot cache keyed by
/// source-row parity: `y0` and `y1` differ by at most one, so parity
/// separates them, and because `y0` is nondecreasing in `dy` an evicted row
/// is never needed again. Upscales lerp each source row once instead of
/// once per output row; downscales never touch the rows no output samples.
#[derive(Debug)]
pub(crate) struct VerticalLerp {
    sh: usize,
    dst_h: usize,
    y_scale: f32,
    /// Next output row.
    dy: usize,
    /// Source row held by each parity slot.
    held: [usize; 2],
}

impl VerticalLerp {
    pub(crate) fn new(sh: usize, dst_h: usize) -> Self {
        Self {
            sh,
            dst_h,
            y_scale: sh as f32 / dst_h as f32,
            dy: 0,
            held: [usize::MAX; 2],
        }
    }

    /// Emits every output row whose two source rows lie below `rows_ready`.
    /// `fill(y, buf)` h-lerps source row `y` (which is `< rows_ready`) into
    /// `buf`; `emit(dy, top, bot, wy)` receives each finished pair. A row
    /// pair straddling `rows_ready` has its upper half filled now, so the
    /// caller may discard every source row below `rows_ready` afterwards.
    pub(crate) fn advance(
        &mut self,
        rows_ready: usize,
        slots: &mut [Vec<f32>; 2],
        mut fill: impl FnMut(usize, &mut [f32]),
        mut emit: impl FnMut(usize, &[f32], &[f32], f32),
    ) {
        while self.dy < self.dst_h {
            let fy = ((self.dy as f32 + 0.5) * self.y_scale - 0.5).max(0.0);
            let y0 = fy as usize;
            let y1 = (y0 + 1).min(self.sh - 1);
            for y in [y0, y1] {
                if y < rows_ready && self.held[y % 2] != y {
                    fill(y, &mut slots[y % 2]);
                    self.held[y % 2] = y;
                }
            }
            if y1 >= rows_ready {
                return;
            }
            emit(self.dy, &slots[y0 % 2], &slots[y1 % 2], fy - y0 as f32);
            self.dy += 1;
        }
    }
}

fn resize_bilinear(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let sdata = src.data();
    let row_len = dst_w as usize * c;
    let mut out = vec![0u8; row_len * dst_h as usize];
    let mut taps = XTaps::default();
    taps.prepare(sw, dst_w as usize, c);
    let mut slots = [vec![0f32; row_len], vec![0f32; row_len]];
    VerticalLerp::new(sh, dst_h as usize).advance(
        sh,
        &mut slots,
        |y, buf| hlerp_row(&sdata[y * sw * c..][..sw * c], c, &taps, buf),
        |dy, top, bot, wy| lerp_rows_to_u8(top, bot, wy, &mut out[dy * row_len..][..row_len]),
    );
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

fn resize_area(src: &Image, dst_w: u32, dst_h: u32) -> Image {
    let c = src.channels();
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let sdata = src.data();
    let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
    for dy in 0..dst_h as usize {
        // Source row span covered by this destination row.
        let y_lo = dy * sh / dst_h as usize;
        let y_hi = (((dy + 1) * sh).div_ceil(dst_h as usize))
            .min(sh)
            .max(y_lo + 1);
        for dx in 0..dst_w as usize {
            let x_lo = dx * sw / dst_w as usize;
            let x_hi = (((dx + 1) * sw).div_ceil(dst_w as usize))
                .min(sw)
                .max(x_lo + 1);
            let d = (dy * dst_w as usize + dx) * c;
            for ch in 0..c {
                let mut acc = 0u32;
                let mut n = 0u32;
                for sy in y_lo..y_hi {
                    for sx in x_lo..x_hi {
                        acc += sdata[(sy * sw + sx) * c + ch] as u32;
                        n += 1;
                    }
                }
                out[d + ch] = ((acc + n / 2) / n) as u8;
            }
        }
    }
    Image::from_vec(dst_w, dst_h, src.color(), out).expect("dims validated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::ColorSpace;

    fn solid(w: u32, h: u32, v: u8) -> Image {
        Image::from_vec(w, h, ColorSpace::Rgb, vec![v; (w * h * 3) as usize]).unwrap()
    }

    #[test]
    fn identity_resize_is_noop() {
        let img = solid(10, 10, 42);
        for f in [
            ResizeFilter::Nearest,
            ResizeFilter::Bilinear,
            ResizeFilter::Area,
        ] {
            let out = resize(&img, 10, 10, f).unwrap();
            assert_eq!(out.data(), img.data());
        }
    }

    #[test]
    fn constant_images_stay_constant() {
        let img = solid(37, 23, 99);
        for f in [
            ResizeFilter::Nearest,
            ResizeFilter::Bilinear,
            ResizeFilter::Area,
        ] {
            for (w, h) in [(10, 10), (64, 64), (5, 40)] {
                let out = resize(&img, w, h, f).unwrap();
                assert!(
                    out.data().iter().all(|&v| v == 99),
                    "{f:?} {w}x{h} broke constancy"
                );
            }
        }
    }

    #[test]
    fn upscale_dimensions() {
        let img = solid(8, 8, 1);
        let out = resize(&img, 32, 16, ResizeFilter::Bilinear).unwrap();
        assert_eq!(out.width(), 32);
        assert_eq!(out.height(), 16);
        assert_eq!(out.channels(), 3);
    }

    #[test]
    fn rejects_zero_target() {
        let img = solid(8, 8, 1);
        assert!(resize(&img, 0, 8, ResizeFilter::Nearest).is_err());
        assert!(resize(&img, 8, 0, ResizeFilter::Area).is_err());
    }

    #[test]
    fn bilinear_preserves_horizontal_gradient_monotonicity() {
        let mut img = Image::new(64, 4, ColorSpace::Gray).unwrap();
        for y in 0..4 {
            for x in 0..64 {
                img.set_pixel(x, y, [(x * 4) as u8, 0, 0]);
            }
        }
        let out = resize(&img, 16, 4, ResizeFilter::Bilinear).unwrap();
        for x in 1..16 {
            assert!(out.pixel(x, 0)[0] >= out.pixel(x - 1, 0)[0]);
        }
    }

    /// The original per-pixel bilinear loop, kept as the reference the
    /// row-based/SIMD implementation must match byte-for-byte.
    fn bilinear_reference(src: &Image, dst_w: u32, dst_h: u32) -> Vec<u8> {
        let c = src.channels();
        let sw = src.width() as usize;
        let sh = src.height() as usize;
        let sdata = src.data();
        let mut out = vec![0u8; dst_w as usize * dst_h as usize * c];
        let x_scale = sw as f32 / dst_w as f32;
        let y_scale = sh as f32 / dst_h as f32;
        for dy in 0..dst_h as usize {
            let fy = ((dy as f32 + 0.5) * y_scale - 0.5).max(0.0);
            let y0 = fy as usize;
            let y1 = (y0 + 1).min(sh - 1);
            let wy = fy - y0 as f32;
            for dx in 0..dst_w as usize {
                let fx = ((dx as f32 + 0.5) * x_scale - 0.5).max(0.0);
                let x0 = fx as usize;
                let x1 = (x0 + 1).min(sw - 1);
                let wx = fx - x0 as f32;
                let d = (dy * dst_w as usize + dx) * c;
                for ch in 0..c {
                    let p00 = sdata[(y0 * sw + x0) * c + ch] as f32;
                    let p01 = sdata[(y0 * sw + x1) * c + ch] as f32;
                    let p10 = sdata[(y1 * sw + x0) * c + ch] as f32;
                    let p11 = sdata[(y1 * sw + x1) * c + ch] as f32;
                    let top = p00 + (p01 - p00) * wx;
                    let bot = p10 + (p11 - p10) * wx;
                    out[d + ch] = clamp_u8(top + (bot - top) * wy);
                }
            }
        }
        out
    }

    #[test]
    fn bilinear_matches_per_pixel_reference() {
        let mut state = 0x1234_5678u32;
        let mut rng = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        };
        for (sw, sh) in [(17, 13), (32, 32), (5, 40)] {
            let data: Vec<u8> = (0..sw * sh * 3).map(|_| rng()).collect();
            let img = Image::from_vec(sw, sh, ColorSpace::Rgb, data).unwrap();
            for (dw, dh) in [(8, 8), (40, 9), (64, 64), (sw, 2 * sh)] {
                let got = resize(&img, dw, dh, ResizeFilter::Bilinear).unwrap();
                let want = bilinear_reference(&img, dw, dh);
                assert_eq!(got.data(), &want[..], "{sw}x{sh} -> {dw}x{dh}");
            }
        }
    }

    #[test]
    fn area_downscale_averages() {
        // 2x2 blocks of 0 and 200 average to 100.
        let mut img = Image::new(2, 2, ColorSpace::Gray).unwrap();
        img.set_pixel(0, 0, [0, 0, 0]);
        img.set_pixel(1, 0, [200, 0, 0]);
        img.set_pixel(0, 1, [200, 0, 0]);
        img.set_pixel(1, 1, [0, 0, 0]);
        let out = resize(&img, 1, 1, ResizeFilter::Area).unwrap();
        assert_eq!(out.pixel(0, 0)[0], 100);
    }

    #[test]
    fn gray_resize_keeps_colorspace() {
        let img = solid(12, 12, 5).to_gray();
        let out = resize(&img, 6, 6, ResizeFilter::Bilinear).unwrap();
        assert_eq!(out.color(), ColorSpace::Gray);
    }
}
