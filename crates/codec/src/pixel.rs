//! Image containers and color-space conversion.
//!
//! The decode path of DLBooster's FPGA decoder ends in an "iDCT & RGB" unit
//! (Fig. 4 of the paper); this module provides the RGB/YCbCr math that unit
//! performs, using the standard JFIF full-range BT.601 coefficients.

use crate::error::{CodecError, CodecResult};

/// Color layout of an [`Image`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColorSpace {
    /// Single 8-bit luminance plane.
    Gray,
    /// Interleaved 8-bit R, G, B triplets.
    Rgb,
}

impl ColorSpace {
    /// Number of interleaved channels per pixel.
    #[inline]
    pub(crate) const fn channels(self) -> usize {
        match self {
            ColorSpace::Gray => 1,
            ColorSpace::Rgb => 3,
        }
    }
}

/// An owned 8-bit raster image with interleaved channels.
///
/// This is the unit of exchange between every preprocessing stage: the JPEG
/// decoder produces one, the resizer consumes and produces them, and the
/// augmentation ops transform them in place or into fresh buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    color: ColorSpace,
    data: Vec<u8>,
}

impl Image {
    /// Maximum supported edge length. Large enough for any dataset image,
    /// small enough to keep `width * height * channels` well inside `usize`.
    pub(crate) const MAX_DIM: u32 = 1 << 16;

    /// Creates a zero-filled image.
    pub fn new(width: u32, height: u32, color: ColorSpace) -> CodecResult<Self> {
        Self::validate_dims(width, height)?;
        let len = width as usize * height as usize * color.channels();
        Ok(Self {
            width,
            height,
            color,
            data: vec![0; len],
        })
    }

    /// Wraps an existing pixel buffer. The buffer length must be exactly
    /// `width * height * channels`.
    pub fn from_vec(
        width: u32,
        height: u32,
        color: ColorSpace,
        data: Vec<u8>,
    ) -> CodecResult<Self> {
        Self::validate_dims(width, height)?;
        let expect = width as usize * height as usize * color.channels();
        if data.len() != expect {
            return Err(CodecError::InvalidArgument {
                detail: format!(
                    "buffer length {} does not match {}x{}x{}",
                    data.len(),
                    width,
                    height,
                    color.channels()
                ),
            });
        }
        Ok(Self {
            width,
            height,
            color,
            data,
        })
    }

    fn validate_dims(width: u32, height: u32) -> CodecResult<()> {
        if width == 0 || height == 0 || width > Self::MAX_DIM || height > Self::MAX_DIM {
            return Err(CodecError::UnsupportedDimensions { width, height });
        }
        Ok(())
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Color layout of the buffer.
    #[inline]
    pub fn color(&self) -> ColorSpace {
        self.color
    }

    /// Interleaved channel count.
    #[inline]
    pub fn channels(&self) -> usize {
        self.color.channels()
    }

    /// Borrow the raw interleaved pixel data.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Consume the image, returning the raw buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Bytes per row.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.width as usize * self.channels()
    }

    /// Total size of the pixel buffer in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Read one pixel as up-to-3 channel values (unused channels are 0).
    #[inline]
    #[cfg(test)]
    pub(crate) fn pixel(&self, x: u32, y: u32) -> [u8; 3] {
        debug_assert!(x < self.width && y < self.height);
        let c = self.channels();
        let base = y as usize * self.stride() + x as usize * c;
        let mut out = [0u8; 3];
        out[..c].copy_from_slice(&self.data[base..base + c]);
        out
    }

    /// Write one pixel; only the first `channels()` values are used.
    #[inline]
    pub(crate) fn set_pixel(&mut self, x: u32, y: u32, px: [u8; 3]) {
        debug_assert!(x < self.width && y < self.height);
        let c = self.channels();
        let stride = self.stride();
        let base = y as usize * stride + x as usize * c;
        self.data[base..base + c].copy_from_slice(&px[..c]);
    }

    /// Convert to grayscale using integer BT.601 luma weights.
    pub fn to_gray(&self) -> Image {
        match self.color {
            ColorSpace::Gray => self.clone(),
            ColorSpace::Rgb => {
                let mut out = vec![0u8; self.width as usize * self.height as usize];
                for (dst, src) in out.iter_mut().zip(self.data.chunks_exact(3)) {
                    *dst = luma_bt601(src[0], src[1], src[2]);
                }
                Image {
                    width: self.width,
                    height: self.height,
                    color: ColorSpace::Gray,
                    data: out,
                }
            }
        }
    }

    /// Convert to RGB (grayscale replicates the luma channel).
    pub fn to_rgb(&self) -> Image {
        match self.color {
            ColorSpace::Rgb => self.clone(),
            ColorSpace::Gray => {
                let mut out = Vec::with_capacity(self.data.len() * 3);
                for &g in &self.data {
                    out.extend_from_slice(&[g, g, g]);
                }
                Image {
                    width: self.width,
                    height: self.height,
                    color: ColorSpace::Rgb,
                    data: out,
                }
            }
        }
    }
}

/// Integer BT.601 luma: `Y = 0.299 R + 0.587 G + 0.114 B`, rounded.
#[inline]
pub(crate) fn luma_bt601(r: u8, g: u8, b: u8) -> u8 {
    // Fixed-point with 16 fractional bits; coefficients sum to 65536 so the
    // result can never exceed 255.
    let y = 19595u32 * r as u32 + 38470u32 * g as u32 + 7471u32 * b as u32;
    ((y + 32768) >> 16) as u8
}

/// Full-range JFIF RGB → YCbCr conversion for one pixel.
#[inline]
pub fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> [u8; 3] {
    let (rf, gf, bf) = (r as f32, g as f32, b as f32);
    let y = 0.299 * rf + 0.587 * gf + 0.114 * bf;
    let cb = -0.168_736 * rf - 0.331_264 * gf + 0.5 * bf + 128.0;
    let cr = 0.5 * rf - 0.418_688 * gf - 0.081_312 * bf + 128.0;
    [clamp_u8(y), clamp_u8(cb), clamp_u8(cr)]
}

/// Full-range JFIF YCbCr → RGB conversion for one pixel.
#[inline]
pub fn ycbcr_to_rgb(y: u8, cb: u8, cr: u8) -> [u8; 3] {
    let yf = y as f32;
    let cbf = cb as f32 - 128.0;
    let crf = cr as f32 - 128.0;
    let r = yf + 1.402 * crf;
    let g = yf - 0.344_136 * cbf - 0.714_136 * crf;
    let b = yf + 1.772 * cbf;
    [clamp_u8(r), clamp_u8(g), clamp_u8(b)]
}

/// Full-range JFIF YCbCr → RGB conversion for a row of matched samples,
/// writing interleaved RGB into `out` (`3 * y.len()` bytes). Dispatches to
/// the AVX2 kernel when available; bit-exact with per-pixel
/// [`ycbcr_to_rgb`] either way.
pub(crate) fn ycbcr_rows_to_rgb(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) {
    assert_eq!(y.len(), cb.len());
    assert_eq!(y.len(), cr.len());
    assert_eq!(out.len(), y.len() * 3);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        // SAFETY: `simd_active` returns true only after runtime AVX2
        // detection succeeds; lengths are checked above.
        unsafe { crate::simd::ycbcr_rows_to_rgb_avx2(y, cb, cr, out) };
        return;
    }
    for (i, ((&ys, &cbs), &crs)) in y.iter().zip(cb.iter()).zip(cr.iter()).enumerate() {
        let [r, g, b] = ycbcr_to_rgb(ys, cbs, crs);
        let o = i * 3;
        out[o] = r;
        out[o + 1] = g;
        out[o + 2] = b;
    }
}

/// 2× horizontal nearest-neighbour upsample of a chroma row:
/// `out[i] = src[i / 2]`. `src` must hold at least `out.len().div_ceil(2)`
/// samples.
pub(crate) fn upsample_dup2_row(src: &[u8], out: &mut [u8]) {
    assert!(src.len() >= out.len().div_ceil(2));
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        // SAFETY: `simd_active` returns true only after runtime AVX2
        // detection succeeds; the length invariant is checked above.
        unsafe { crate::simd::upsample_dup2_row_avx2(src, out) };
        return;
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = src[i / 2];
    }
}

/// Clamp a float sample into the 8-bit range with rounding.
#[inline]
pub(crate) fn clamp_u8(v: f32) -> u8 {
    // NaN propagates through `clamp` and then saturates to 0 in the cast.
    (v + 0.5).clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_dims() {
        assert!(Image::new(0, 10, ColorSpace::Rgb).is_err());
        assert!(Image::new(10, 0, ColorSpace::Gray).is_err());
        assert!(Image::new(Image::MAX_DIM + 1, 1, ColorSpace::Gray).is_err());
        assert!(Image::new(16, 16, ColorSpace::Rgb).is_ok());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Image::from_vec(2, 2, ColorSpace::Rgb, vec![0; 12]).is_ok());
        assert!(Image::from_vec(2, 2, ColorSpace::Rgb, vec![0; 11]).is_err());
        assert!(Image::from_vec(2, 2, ColorSpace::Gray, vec![0; 4]).is_ok());
    }

    #[test]
    fn pixel_roundtrip() {
        let mut img = Image::new(4, 3, ColorSpace::Rgb).unwrap();
        img.set_pixel(2, 1, [10, 20, 30]);
        assert_eq!(img.pixel(2, 1), [10, 20, 30]);
        assert_eq!(img.pixel(0, 0), [0, 0, 0]);
    }

    #[test]
    fn gray_pixel_roundtrip() {
        let mut img = Image::new(3, 3, ColorSpace::Gray).unwrap();
        img.set_pixel(1, 2, [77, 0, 0]);
        assert_eq!(img.pixel(1, 2)[0], 77);
    }

    #[test]
    fn ycbcr_roundtrip_is_close() {
        for &(r, g, b) in &[
            (0u8, 0u8, 0u8),
            (255, 255, 255),
            (255, 0, 0),
            (0, 255, 0),
            (0, 0, 255),
            (12, 200, 99),
            (128, 128, 128),
        ] {
            let [y, cb, cr] = rgb_to_ycbcr(r, g, b);
            let [r2, g2, b2] = ycbcr_to_rgb(y, cb, cr);
            assert!((r as i16 - r2 as i16).abs() <= 2, "r {r} vs {r2}");
            assert!((g as i16 - g2 as i16).abs() <= 2, "g {g} vs {g2}");
            assert!((b as i16 - b2 as i16).abs() <= 2, "b {b} vs {b2}");
        }
    }

    #[test]
    fn gray_of_white_is_white() {
        assert_eq!(luma_bt601(255, 255, 255), 255);
        assert_eq!(luma_bt601(0, 0, 0), 0);
    }

    #[test]
    fn to_gray_and_back_shapes() {
        let mut img = Image::new(5, 4, ColorSpace::Rgb).unwrap();
        img.set_pixel(0, 0, [200, 100, 50]);
        let g = img.to_gray();
        assert_eq!(g.color(), ColorSpace::Gray);
        assert_eq!(g.byte_len(), 20);
        let rgb = g.to_rgb();
        assert_eq!(rgb.channels(), 3);
        let px = rgb.pixel(0, 0);
        assert_eq!(px[0], px[1]);
        assert_eq!(px[1], px[2]);
    }

    #[test]
    fn clamp_handles_extremes() {
        assert_eq!(clamp_u8(-5.0), 0);
        assert_eq!(clamp_u8(300.0), 255);
        assert_eq!(clamp_u8(127.4), 127);
        assert_eq!(clamp_u8(f32::NAN), 0);
    }
}
