//! Minimal BMP (BITMAPINFOHEADER, 24-bit) export.
//!
//! The paper's workflow figure shows decoded pictures "in BMP" between the
//! decode and crop stages; the examples use this module to dump pipeline
//! outputs so a human can eyeball them.

use crate::pixel::Image;

const FILE_HEADER_LEN: usize = 14;
const INFO_HEADER_LEN: usize = 40;

/// Serialises an image as an uncompressed 24-bit BMP (grayscale images are
/// expanded to RGB).
pub fn encode_bmp(img: &Image) -> Vec<u8> {
    let rgb = img.to_rgb();
    let w = rgb.width() as usize;
    let h = rgb.height() as usize;
    let row_bytes = w * 3;
    let padded_row = row_bytes.div_ceil(4) * 4;
    let pixel_bytes = padded_row * h;
    let file_len = FILE_HEADER_LEN + INFO_HEADER_LEN + pixel_bytes;

    let mut out = Vec::with_capacity(file_len);
    // BITMAPFILEHEADER
    out.extend_from_slice(b"BM");
    out.extend_from_slice(&(file_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // reserved
    out.extend_from_slice(&((FILE_HEADER_LEN + INFO_HEADER_LEN) as u32).to_le_bytes());
    // BITMAPINFOHEADER
    out.extend_from_slice(&(INFO_HEADER_LEN as u32).to_le_bytes());
    out.extend_from_slice(&(w as i32).to_le_bytes());
    out.extend_from_slice(&(h as i32).to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // planes
    out.extend_from_slice(&24u16.to_le_bytes()); // bpp
    out.extend_from_slice(&0u32.to_le_bytes()); // BI_RGB
    out.extend_from_slice(&(pixel_bytes as u32).to_le_bytes());
    out.extend_from_slice(&2835u32.to_le_bytes()); // 72 dpi
    out.extend_from_slice(&2835u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    // Pixel rows, bottom-up, BGR, padded to 4 bytes.
    let data = rgb.data();
    for y in (0..h).rev() {
        let row = &data[y * row_bytes..(y + 1) * row_bytes];
        for px in row.chunks_exact(3) {
            out.extend_from_slice(&[px[2], px[1], px[0]]);
        }
        out.resize(out.len() + (padded_row - row_bytes), 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{CodecError, CodecResult};
    use crate::pixel::ColorSpace;

    /// Parses a 24-bit uncompressed BMP produced by [`encode_bmp`].
    fn decode_bmp(data: &[u8]) -> CodecResult<Image> {
        if data.len() < FILE_HEADER_LEN + INFO_HEADER_LEN || &data[0..2] != b"BM" {
            return Err(CodecError::MalformedSegment {
                detail: "not a BMP file".into(),
            });
        }
        let pixel_offset = u32::from_le_bytes(data[10..14].try_into().unwrap()) as usize;
        let w = i32::from_le_bytes(data[18..22].try_into().unwrap());
        let h = i32::from_le_bytes(data[22..26].try_into().unwrap());
        let bpp = u16::from_le_bytes(data[28..30].try_into().unwrap());
        let compression = u32::from_le_bytes(data[30..34].try_into().unwrap());
        if bpp != 24 || compression != 0 {
            return Err(CodecError::Unsupported {
                feature: format!("BMP bpp={bpp} compression={compression}"),
            });
        }
        if w <= 0 || h <= 0 {
            return Err(CodecError::UnsupportedDimensions {
                width: w.max(0) as u32,
                height: h.max(0) as u32,
            });
        }
        let (w, h) = (w as usize, h as usize);
        let row_bytes = w * 3;
        let padded_row = row_bytes.div_ceil(4) * 4;
        if data.len() < pixel_offset + padded_row * h {
            return Err(CodecError::UnexpectedEof {
                context: "BMP pixel data",
            });
        }
        let mut out = vec![0u8; row_bytes * h];
        for y in 0..h {
            let src = &data[pixel_offset + (h - 1 - y) * padded_row..];
            for x in 0..w {
                let s = x * 3;
                let d = y * row_bytes + x * 3;
                out[d] = src[s + 2];
                out[d + 1] = src[s + 1];
                out[d + 2] = src[s];
            }
        }
        Image::from_vec(w as u32, h as u32, ColorSpace::Rgb, out)
    }

    #[test]
    fn bmp_roundtrip() {
        let mut img = Image::new(5, 3, ColorSpace::Rgb).unwrap();
        for y in 0..3 {
            for x in 0..5 {
                img.set_pixel(x, y, [x as u8 * 10, y as u8 * 20, 200]);
            }
        }
        let bytes = encode_bmp(&img);
        let back = decode_bmp(&bytes).unwrap();
        assert_eq!(back.data(), img.data());
    }

    #[test]
    fn bmp_roundtrip_unpadded_width() {
        // Width 4 → no row padding; width 5 → padding; both must work.
        for w in [4u32, 5, 7, 8] {
            let img = Image::new(w, 2, ColorSpace::Rgb).unwrap();
            let back = decode_bmp(&encode_bmp(&img)).unwrap();
            assert_eq!(back.width(), w);
        }
    }

    #[test]
    fn grayscale_expands_to_rgb() {
        let img = Image::new(3, 3, ColorSpace::Gray).unwrap();
        let back = decode_bmp(&encode_bmp(&img)).unwrap();
        assert_eq!(back.color(), ColorSpace::Rgb);
    }
}
