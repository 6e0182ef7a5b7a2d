//! Data-augmentation operators.
//!
//! The paper deliberately keeps augmentation *off* the FPGA ("we offload the
//! decoding and the resizing to FPGAs and leave the data augmentation to
//! GPU", §3.1) — these ops run on the compute-engine side. They are
//! implemented here so the end-to-end functional pipeline produces the same
//! tensors regardless of which backend decoded the bytes.

use crate::error::{CodecError, CodecResult};
use crate::pixel::Image;

/// A rectangular crop region in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CropRect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width of the crop.
    pub width: u32,
    /// Height of the crop.
    pub height: u32,
}

/// Extracts a crop; the rectangle must lie fully inside the image.
pub fn crop(src: &Image, rect: CropRect) -> CodecResult<Image> {
    let (w, h) = (src.width(), src.height());
    if rect.width == 0
        || rect.height == 0
        || rect.x.checked_add(rect.width).is_none_or(|e| e > w)
        || rect.y.checked_add(rect.height).is_none_or(|e| e > h)
    {
        return Err(CodecError::InvalidArgument {
            detail: format!(
                "crop {}x{}+{}+{} outside {}x{}",
                rect.width, rect.height, rect.x, rect.y, w, h
            ),
        });
    }
    let c = src.channels();
    let sstride = src.stride();
    let dstride = rect.width as usize * c;
    let mut out = vec![0u8; dstride * rect.height as usize];
    for row in 0..rect.height as usize {
        let s = (rect.y as usize + row) * sstride + rect.x as usize * c;
        let d = row * dstride;
        out[d..d + dstride].copy_from_slice(&src.data()[s..s + dstride]);
    }
    Image::from_vec(rect.width, rect.height, src.color(), out)
}

/// Horizontal mirror (the classic training-time augmentation).
pub fn hflip(src: &Image) -> Image {
    let c = src.channels();
    let w = src.width() as usize;
    let h = src.height() as usize;
    let mut out = vec![0u8; src.byte_len()];
    let stride = src.stride();
    for y in 0..h {
        for x in 0..w {
            let s = y * stride + x * c;
            let d = y * stride + (w - 1 - x) * c;
            out[d..d + c].copy_from_slice(&src.data()[s..s + c]);
        }
    }
    Image::from_vec(src.width(), src.height(), src.color(), out).expect("same dims")
}

/// Converts interleaved u8 pixels into planar (CHW) f32, subtracting a
/// per-channel mean and dividing by a per-channel scale — the tensor layout
/// the compute engines consume.
pub fn to_tensor_chw(src: &Image, mean: &[f32], scale: &[f32]) -> CodecResult<Vec<f32>> {
    let c = src.channels();
    if mean.len() != c || scale.len() != c {
        return Err(CodecError::InvalidArgument {
            detail: format!(
                "mean/scale lengths ({}, {}) must equal channels ({c})",
                mean.len(),
                scale.len()
            ),
        });
    }
    if scale.contains(&0.0) {
        return Err(CodecError::InvalidArgument {
            detail: "zero scale".into(),
        });
    }
    let w = src.width() as usize;
    let h = src.height() as usize;
    let plane = w * h;
    let mut out = vec![0f32; plane * c];
    for (i, px) in src.data().chunks_exact(c).enumerate() {
        for ch in 0..c {
            out[ch * plane + i] = (px[ch] as f32 - mean[ch]) / scale[ch];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::{ColorSpace, Image};

    fn numbered(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h, ColorSpace::Rgb).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(x, y, [x as u8, y as u8, (x + y) as u8]);
            }
        }
        img
    }

    #[test]
    fn crop_extracts_expected_region() {
        let img = numbered(10, 10);
        let out = crop(
            &img,
            CropRect {
                x: 2,
                y: 3,
                width: 4,
                height: 5,
            },
        )
        .unwrap();
        assert_eq!(out.width(), 4);
        assert_eq!(out.height(), 5);
        assert_eq!(out.pixel(0, 0), img.pixel(2, 3));
        assert_eq!(out.pixel(3, 4), img.pixel(5, 7));
    }

    #[test]
    fn crop_rejects_out_of_bounds() {
        let img = numbered(10, 10);
        for rect in [
            CropRect {
                x: 8,
                y: 0,
                width: 4,
                height: 4,
            },
            CropRect {
                x: 0,
                y: 8,
                width: 4,
                height: 4,
            },
            CropRect {
                x: 0,
                y: 0,
                width: 0,
                height: 4,
            },
            CropRect {
                x: 0,
                y: 0,
                width: 11,
                height: 1,
            },
        ] {
            assert!(crop(&img, rect).is_err(), "{rect:?}");
        }
    }

    #[test]
    fn hflip_mirrors_and_is_involution() {
        let img = numbered(7, 3);
        let flipped = hflip(&img);
        assert_eq!(flipped.pixel(0, 0), img.pixel(6, 0));
        assert_eq!(flipped.pixel(6, 2), img.pixel(0, 2));
        assert_eq!(hflip(&flipped).data(), img.data());
    }

    #[test]
    fn to_tensor_layout_and_normalisation() {
        let mut img = Image::new(2, 1, ColorSpace::Rgb).unwrap();
        img.set_pixel(0, 0, [10, 20, 30]);
        img.set_pixel(1, 0, [50, 60, 70]);
        let t = to_tensor_chw(&img, &[10.0, 20.0, 30.0], &[2.0, 2.0, 2.0]).unwrap();
        // CHW: R plane then G plane then B plane.
        assert_eq!(t, vec![0.0, 20.0, 0.0, 20.0, 0.0, 20.0]);
    }

    #[test]
    fn to_tensor_validates_params() {
        let img = numbered(2, 2);
        assert!(to_tensor_chw(&img, &[0.0; 2], &[1.0; 3]).is_err());
        assert!(to_tensor_chw(&img, &[0.0; 3], &[1.0, 0.0, 1.0]).is_err());
    }
}
