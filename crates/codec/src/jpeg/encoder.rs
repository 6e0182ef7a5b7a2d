//! Baseline JPEG encoder.
//!
//! Used by `dlb-storage` to synthesise the ILSVRC-like and MNIST-like
//! datasets: every byte the decoders (CPU baseline and simulated FPGA) chew
//! on was produced here, so the decode workload is realistic end to end.

use super::{component_layout, marker, ChromaMode, ComponentSpec};
use crate::dct::{fdct_8x8, BLOCK_LEN, ZIGZAG};
use crate::error::{CodecError, CodecResult};
use crate::huffman::{
    encode_magnitude, magnitude_category, std_ac_chroma, std_ac_luma, std_dc_chroma, std_dc_luma,
    BitWriter, HuffTable,
};
use crate::pixel::{rgb_to_ycbcr, ColorSpace, Image};
use crate::quant::QuantTable;

/// Configurable baseline JPEG encoder.
///
/// ```
/// use dlb_codec::{Image, ColorSpace, JpegEncoder, JpegDecoder};
/// let img = Image::new(32, 24, ColorSpace::Rgb).unwrap();
/// let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
/// let decoded = JpegDecoder::new().decode(&bytes).unwrap();
/// assert_eq!(decoded.width(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct JpegEncoder {
    quality: u8,
    mode: ChromaMode,
    restart_interval: u16,
}

impl JpegEncoder {
    /// Creates an encoder with libjpeg-style `quality` in `[1, 100]` and
    /// 4:2:0 chroma subsampling for colour inputs.
    pub fn new(quality: u8) -> CodecResult<Self> {
        if quality == 0 || quality > 100 {
            return Err(CodecError::InvalidArgument {
                detail: format!("quality {quality} out of [1, 100]"),
            });
        }
        Ok(Self {
            quality,
            mode: ChromaMode::Yuv420,
            restart_interval: 0,
        })
    }

    /// Overrides the chroma mode used for RGB inputs (grayscale inputs always
    /// encode as single-component scans).
    pub fn with_mode(mut self, mode: ChromaMode) -> Self {
        self.mode = mode;
        self
    }

    /// Emits a DRI segment and RSTn markers every `interval` MCUs
    /// (0 disables). Restart segments are what let a multi-way hardware
    /// Huffman unit split one image across lanes.
    pub fn with_restart_interval(mut self, interval: u16) -> Self {
        self.restart_interval = interval;
        self
    }

    /// Encodes `img` into a complete JFIF byte stream.
    pub fn encode(&self, img: &Image) -> CodecResult<Vec<u8>> {
        let mode = match img.color() {
            ColorSpace::Gray => ChromaMode::Grayscale,
            ColorSpace::Rgb => match self.mode {
                ChromaMode::Grayscale => ChromaMode::Yuv444,
                m => m,
            },
        };
        let components = component_layout(mode);
        let qtables = [
            QuantTable::luma(self.quality)?,
            QuantTable::chroma(self.quality)?,
        ];
        let planes = build_planes(img, mode, &components);

        let mut out = Vec::with_capacity(img.byte_len() / 4 + 1024);
        write_headers(
            &mut out,
            img.width(),
            img.height(),
            &components,
            &qtables,
            self.restart_interval,
            mode,
        );
        self.encode_scan(&mut out, img, mode, &components, &qtables, &planes)?;
        out.extend_from_slice(&[0xFF, marker::EOI]);
        Ok(out)
    }

    fn encode_scan(
        &self,
        out: &mut Vec<u8>,
        img: &Image,
        mode: ChromaMode,
        components: &[ComponentSpec],
        qtables: &[QuantTable; 2],
        planes: &[Plane],
    ) -> CodecResult<()> {
        let (dc_tables, ac_tables) = standard_tables(mode);
        let (mcu_w, mcu_h) = mode.mcu_size();
        let mcu_cols = img.width().div_ceil(mcu_w);
        let mcu_rows = img.height().div_ceil(mcu_h);
        let total_mcus = mcu_cols as u64 * mcu_rows as u64;

        let mut dc_pred = vec![0i32; components.len()];
        let mut writer = BitWriter::new();
        let mut mcus_in_segment: u64 = 0;
        let mut rst_index: u8 = 0;

        let mut samples = [0f32; BLOCK_LEN];
        let mut coeffs = [0f32; BLOCK_LEN];
        let mut quantized = [0i16; BLOCK_LEN];

        for mcu_index in 0..total_mcus {
            let my = (mcu_index / mcu_cols as u64) as u32;
            let mx = (mcu_index % mcu_cols as u64) as u32;
            for (ci, comp) in components.iter().enumerate() {
                let plane = &planes[ci];
                for vy in 0..comp.v {
                    for hx in 0..comp.h {
                        let bx = mx * comp.h as u32 + hx as u32;
                        let by = my * comp.v as u32 + vy as u32;
                        plane.extract_block(bx, by, &mut samples);
                        fdct_8x8(&samples, &mut coeffs);
                        qtables[comp.qtable as usize].quantize(&coeffs, &mut quantized);
                        encode_block(
                            &mut writer,
                            &quantized,
                            &mut dc_pred[ci],
                            &dc_tables[comp.dc_table as usize],
                            &ac_tables[comp.ac_table as usize],
                        )?;
                    }
                }
            }
            mcus_in_segment += 1;
            let last = mcu_index + 1 == total_mcus;
            if self.restart_interval > 0 && mcus_in_segment == self.restart_interval as u64 && !last
            {
                // Close the segment: byte-align with 1-padding, then emit the
                // restart marker unstuffed and reset the DC predictors.
                let seg = std::mem::take(&mut writer).finish();
                out.extend_from_slice(&seg);
                out.extend_from_slice(&[0xFF, marker::RST0 + (rst_index & 7)]);
                rst_index = rst_index.wrapping_add(1);
                dc_pred.iter_mut().for_each(|p| *p = 0);
                mcus_in_segment = 0;
            }
        }
        out.extend_from_slice(&writer.finish());
        Ok(())
    }
}

/// One padded component plane, in whole 8×8 blocks covering the MCU grid.
struct Plane {
    /// Plane samples, `width_px` × `height_px`, edge-replicated padding.
    data: Vec<u8>,
    width_px: usize,
}

impl Plane {
    fn extract_block(&self, bx: u32, by: u32, out: &mut [f32; BLOCK_LEN]) {
        let x0 = bx as usize * 8;
        let y0 = by as usize * 8;
        for y in 0..8 {
            let row = (y0 + y) * self.width_px + x0;
            for x in 0..8 {
                // Level shift to [-128, 127].
                out[y * 8 + x] = self.data[row + x] as f32 - 128.0;
            }
        }
    }
}

/// Converts the image into padded per-component planes (Y / Cb / Cr or Gray).
fn build_planes(img: &Image, mode: ChromaMode, components: &[ComponentSpec]) -> Vec<Plane> {
    let (mcu_w, mcu_h) = mode.mcu_size();
    let mcu_cols = img.width().div_ceil(mcu_w) as usize;
    let mcu_rows = img.height().div_ceil(mcu_h) as usize;
    let w = img.width() as usize;
    let h = img.height() as usize;

    // Full-resolution Y/Cb/Cr (or a single gray plane).
    let (y_full, cb_full, cr_full) = match img.color() {
        ColorSpace::Gray => (img.data().to_vec(), Vec::new(), Vec::new()),
        ColorSpace::Rgb => {
            let mut y = vec![0u8; w * h];
            let mut cb = vec![0u8; w * h];
            let mut cr = vec![0u8; w * h];
            for (i, px) in img.data().chunks_exact(3).enumerate() {
                let [yy, cbb, crr] = rgb_to_ycbcr(px[0], px[1], px[2]);
                y[i] = yy;
                cb[i] = cbb;
                cr[i] = crr;
            }
            (y, cb, cr)
        }
    };

    components
        .iter()
        .enumerate()
        .map(|(ci, comp)| {
            // Component resolution before padding.
            let (h_max, v_max) = mode.luma_sampling();
            let cw = (w * comp.h as usize).div_ceil(h_max as usize);
            let ch = (h * comp.v as usize).div_ceil(v_max as usize);
            let src: Vec<u8> = if ci == 0 {
                y_full.clone()
            } else if comp.h == h_max && comp.v == v_max {
                if ci == 1 {
                    cb_full.clone()
                } else {
                    cr_full.clone()
                }
            } else {
                // Box-filter downsample (2×2 average for 4:2:0).
                let full = if ci == 1 { &cb_full } else { &cr_full };
                downsample_box(full, w, h, cw, ch)
            };
            // Pad to the MCU block coverage with edge replication.
            let pw = mcu_cols * comp.h as usize * 8;
            let ph = mcu_rows * comp.v as usize * 8;
            let mut data = vec![0u8; pw * ph];
            for py in 0..ph {
                let sy = py.min(ch - 1);
                for px in 0..pw {
                    let sx = px.min(cw - 1);
                    data[py * pw + px] = src[sy * cw + sx];
                }
            }
            Plane { data, width_px: pw }
        })
        .collect()
}

/// 2×2 (or ratio-matched) box downsample with edge replication.
fn downsample_box(src: &[u8], sw: usize, sh: usize, dw: usize, dh: usize) -> Vec<u8> {
    let fx = sw.div_ceil(dw).max(1);
    let fy = sh.div_ceil(dh).max(1);
    let mut out = vec![0u8; dw * dh];
    for dy in 0..dh {
        for dx in 0..dw {
            let mut acc = 0u32;
            let mut n = 0u32;
            for oy in 0..fy {
                for ox in 0..fx {
                    let sx = (dx * fx + ox).min(sw - 1);
                    let sy = (dy * fy + oy).min(sh - 1);
                    acc += src[sy * sw + sx] as u32;
                    n += 1;
                }
            }
            out[dy * dw + dx] = ((acc + n / 2) / n) as u8;
        }
    }
    out
}

/// Encodes one quantized raster-order block (DC diff + AC run-length).
fn encode_block(
    w: &mut BitWriter,
    block: &[i16; BLOCK_LEN],
    dc_pred: &mut i32,
    dc_table: &HuffTable,
    ac_table: &HuffTable,
) -> CodecResult<()> {
    // DC coefficient: difference from predictor, category-coded.
    let dc = block[0] as i32;
    let diff = dc - *dc_pred;
    *dc_pred = dc;
    let ssss = magnitude_category(diff);
    dc_table.encode(w, ssss as u8)?;
    if ssss > 0 {
        w.put_bits(encode_magnitude(diff, ssss), ssss);
    }

    // AC coefficients in zigzag order with (run, size) symbols.
    let mut run = 0u32;
    for &raster in ZIGZAG.iter().skip(1) {
        let v = block[raster] as i32;
        if v == 0 {
            run += 1;
            continue;
        }
        while run > 15 {
            ac_table.encode(w, 0xF0)?; // ZRL: 16 zeros
            run -= 16;
        }
        let ssss = magnitude_category(v);
        debug_assert!(ssss <= 10, "baseline AC magnitude {ssss}");
        ac_table.encode(w, ((run << 4) | ssss) as u8)?;
        w.put_bits(encode_magnitude(v, ssss), ssss);
        run = 0;
    }
    if run > 0 {
        ac_table.encode(w, 0x00)?; // EOB
    }
    Ok(())
}

/// DC/AC tables per slot for the given mode (slot 0 = luma, slot 1 = chroma).
fn standard_tables(mode: ChromaMode) -> (Vec<HuffTable>, Vec<HuffTable>) {
    match mode {
        ChromaMode::Grayscale => (vec![std_dc_luma()], vec![std_ac_luma()]),
        _ => (
            vec![std_dc_luma(), std_dc_chroma()],
            vec![std_ac_luma(), std_ac_chroma()],
        ),
    }
}

// ---------------------------------------------------------------------------
// Header writing
// ---------------------------------------------------------------------------

fn push_segment(out: &mut Vec<u8>, m: u8, payload: &[u8]) {
    out.extend_from_slice(&[0xFF, m]);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

fn write_headers(
    out: &mut Vec<u8>,
    width: u32,
    height: u32,
    components: &[ComponentSpec],
    qtables: &[QuantTable; 2],
    restart_interval: u16,
    mode: ChromaMode,
) {
    out.extend_from_slice(&[0xFF, marker::SOI]);

    // APP0 / JFIF 1.02, no thumbnail.
    let mut app0 = Vec::new();
    app0.extend_from_slice(b"JFIF\0");
    app0.extend_from_slice(&[1, 2, 0]); // version, aspect-ratio units
    app0.extend_from_slice(&1u16.to_be_bytes()); // x density
    app0.extend_from_slice(&1u16.to_be_bytes()); // y density
    app0.extend_from_slice(&[0, 0]); // no thumbnail
    push_segment(out, marker::APP0, &app0);

    // DQT per used slot, 8-bit precision, zigzag order.
    let slots: &[u8] = if mode == ChromaMode::Grayscale {
        &[0]
    } else {
        &[0, 1]
    };
    for &slot in slots {
        let mut dqt = Vec::with_capacity(65);
        dqt.push(slot); // precision 0 (8-bit) in high nibble
        let vals = qtables[slot as usize].values();
        for &raster in ZIGZAG.iter() {
            dqt.push(vals[raster] as u8);
        }
        push_segment(out, marker::DQT, &dqt);
    }

    // SOF0.
    let mut sof = Vec::new();
    sof.push(8); // precision
    sof.extend_from_slice(&(height as u16).to_be_bytes());
    sof.extend_from_slice(&(width as u16).to_be_bytes());
    sof.push(components.len() as u8);
    for c in components {
        sof.push(c.id);
        sof.push((c.h << 4) | c.v);
        sof.push(c.qtable);
    }
    push_segment(out, marker::SOF0, &sof);

    // DHT for each table in use.
    let (dc_tables, ac_tables) = standard_tables(mode);
    for (slot, t) in dc_tables.iter().enumerate() {
        let mut dht = Vec::new();
        dht.push(slot as u8); // class 0 (DC) in high nibble
        dht.extend_from_slice(t.counts());
        dht.extend_from_slice(t.symbols());
        push_segment(out, marker::DHT, &dht);
    }
    for (slot, t) in ac_tables.iter().enumerate() {
        let mut dht = Vec::new();
        dht.push(0x10 | slot as u8); // class 1 (AC)
        dht.extend_from_slice(t.counts());
        dht.extend_from_slice(t.symbols());
        push_segment(out, marker::DHT, &dht);
    }

    if restart_interval > 0 {
        push_segment(out, marker::DRI, &restart_interval.to_be_bytes());
    }

    // SOS.
    let mut sos = Vec::new();
    sos.push(components.len() as u8);
    for c in components {
        sos.push(c.id);
        sos.push((c.dc_table << 4) | c.ac_table);
    }
    sos.extend_from_slice(&[0, 63, 0]); // spectral selection for baseline
    push_segment(out, marker::SOS, &sos);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_rgb(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h, ColorSpace::Rgb).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(
                    x,
                    y,
                    [
                        (x * 255 / w.max(1)) as u8,
                        (y * 255 / h.max(1)) as u8,
                        ((x + y) % 256) as u8,
                    ],
                );
            }
        }
        img
    }

    #[test]
    fn encode_produces_valid_framing() {
        let img = gradient_rgb(32, 24);
        let bytes = JpegEncoder::new(80).unwrap().encode(&img).unwrap();
        assert_eq!(&bytes[..2], &[0xFF, marker::SOI]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, marker::EOI]);
        // Must contain SOF0, DHT, DQT, SOS markers.
        let has = |m: u8| bytes.windows(2).any(|w| w[0] == 0xFF && w[1] == m);
        assert!(has(marker::SOF0));
        assert!(has(marker::DHT));
        assert!(has(marker::DQT));
        assert!(has(marker::SOS));
    }

    #[test]
    fn grayscale_encoding_has_one_component() {
        let img = gradient_rgb(16, 16).to_gray();
        let bytes = JpegEncoder::new(80).unwrap().encode(&img).unwrap();
        // Find SOF0 and check the component count byte.
        let pos = bytes
            .windows(2)
            .position(|w| w == [0xFF, marker::SOF0])
            .unwrap();
        let ncomp = bytes[pos + 2 + 2 + 5];
        assert_eq!(ncomp, 1);
    }

    #[test]
    fn restart_markers_emitted() {
        let img = gradient_rgb(64, 64); // 16 MCUs at 4:2:0
        let bytes = JpegEncoder::new(80)
            .unwrap()
            .with_restart_interval(4)
            .encode(&img)
            .unwrap();
        let rst_count = bytes
            .windows(2)
            .filter(|w| w[0] == 0xFF && marker::is_rst(w[1]))
            .count();
        // 16 MCUs, interval 4 → 3 internal restarts (none after the last).
        assert_eq!(rst_count, 3);
        // DRI segment present.
        assert!(bytes.windows(2).any(|w| w == [0xFF, marker::DRI]));
    }

    #[test]
    fn quality_monotonically_affects_size() {
        let img = gradient_rgb(64, 48);
        let low = JpegEncoder::new(20).unwrap().encode(&img).unwrap();
        let high = JpegEncoder::new(95).unwrap().encode(&img).unwrap();
        assert!(
            high.len() > low.len(),
            "q95 ({}) should out-size q20 ({})",
            high.len(),
            low.len()
        );
    }

    #[test]
    fn yuv444_encodes_nonmultiple_dims() {
        let img = gradient_rgb(13, 7);
        let bytes = JpegEncoder::new(75)
            .unwrap()
            .with_mode(ChromaMode::Yuv444)
            .encode(&img)
            .unwrap();
        assert!(bytes.len() > 100);
    }

    #[test]
    fn downsample_preserves_constants() {
        let src = vec![77u8; 8 * 6];
        let out = downsample_box(&src, 8, 6, 4, 3);
        assert_eq!(out, vec![77u8; 12]);
    }

    #[test]
    fn rejects_bad_quality() {
        assert!(JpegEncoder::new(0).is_err());
        assert!(JpegEncoder::new(101).is_err());
    }
}
