//! Baseline sequential JPEG (ITU-T T.81) over a JFIF container.
//!
//! Supported subset — deliberately matching what image DL datasets use and
//! what the paper's FPGA decoder implements:
//!
//! * 8-bit baseline DCT (SOF0), Huffman entropy coding,
//! * grayscale, YCbCr 4:4:4 and YCbCr 4:2:0,
//! * optional restart intervals (DRI / RSTn) — these are what allow the
//!   simulated FPGA's multi-way Huffman unit to decode one image with
//!   segment-level parallelism.

pub mod decoder;
pub mod encoder;
mod rows;
mod scratch;

pub use scratch::DecodeScratch;

/// JPEG marker bytes (the byte following `0xFF`).
pub mod marker {
    /// Start of image.
    pub(crate) const SOI: u8 = 0xD8;
    /// End of image.
    pub(crate) const EOI: u8 = 0xD9;
    /// Baseline DCT frame header.
    pub(crate) const SOF0: u8 = 0xC0;
    /// Define Huffman table(s).
    pub(crate) const DHT: u8 = 0xC4;
    /// Define quantization table(s).
    pub(crate) const DQT: u8 = 0xDB;
    /// Define restart interval.
    pub(crate) const DRI: u8 = 0xDD;
    /// Start of scan.
    pub(crate) const SOS: u8 = 0xDA;
    /// JFIF application segment.
    pub(crate) const APP0: u8 = 0xE0;
    /// Comment.
    pub(crate) const COM: u8 = 0xFE;
    /// First restart marker; RSTn = RST0 + (n mod 8).
    pub(crate) const RST0: u8 = 0xD0;

    /// Whether `m` is one of the eight restart markers.
    #[inline]
    pub(crate) fn is_rst(m: u8) -> bool {
        (RST0..RST0 + 8).contains(&m)
    }
}

/// Chroma handling selected at encode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChromaMode {
    /// Single-component grayscale scan.
    Grayscale,
    /// Three components, no subsampling (1×1,1×1,1×1).
    Yuv444,
    /// Three components, 2×1 luma sampling (horizontal-only chroma
    /// subsampling, common in video-derived stills).
    Yuv422,
    /// Three components, 2×2 luma sampling (the common photographic mode and
    /// the paper's dataset format).
    Yuv420,
}

impl ChromaMode {
    /// (h, v) sampling factors of the luma component.
    pub(crate) fn luma_sampling(self) -> (u8, u8) {
        match self {
            ChromaMode::Yuv420 => (2, 2),
            ChromaMode::Yuv422 => (2, 1),
            _ => (1, 1),
        }
    }

    /// MCU size in pixels.
    pub(crate) fn mcu_size(self) -> (u32, u32) {
        let (h, v) = self.luma_sampling();
        (8 * h as u32, 8 * v as u32)
    }
}

/// Per-component layout information shared by encoder and decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComponentSpec {
    /// Component identifier as written in SOF0/SOS (1 = Y, 2 = Cb, 3 = Cr).
    pub id: u8,
    /// Horizontal sampling factor (1 or 2).
    pub h: u8,
    /// Vertical sampling factor (1 or 2).
    pub v: u8,
    /// Quantization table slot (0 = luma, 1 = chroma).
    pub qtable: u8,
    /// DC Huffman table slot.
    pub dc_table: u8,
    /// AC Huffman table slot.
    pub ac_table: u8,
}

/// Standard component layouts for each [`ChromaMode`].
pub(crate) fn component_layout(mode: ChromaMode) -> Vec<ComponentSpec> {
    match mode {
        ChromaMode::Grayscale => vec![ComponentSpec {
            id: 1,
            h: 1,
            v: 1,
            qtable: 0,
            dc_table: 0,
            ac_table: 0,
        }],
        ChromaMode::Yuv444 | ChromaMode::Yuv422 | ChromaMode::Yuv420 => {
            let (h, v) = mode.luma_sampling();
            vec![
                ComponentSpec {
                    id: 1,
                    h,
                    v,
                    qtable: 0,
                    dc_table: 0,
                    ac_table: 0,
                },
                ComponentSpec {
                    id: 2,
                    h: 1,
                    v: 1,
                    qtable: 1,
                    dc_table: 1,
                    ac_table: 1,
                },
                ComponentSpec {
                    id: 3,
                    h: 1,
                    v: 1,
                    qtable: 1,
                    dc_table: 1,
                    ac_table: 1,
                },
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rst_marker_range() {
        assert!(marker::is_rst(0xD0));
        assert!(marker::is_rst(0xD7));
        assert!(!marker::is_rst(0xD8));
        assert!(!marker::is_rst(0xCF));
    }

    #[test]
    fn mcu_sizes() {
        assert_eq!(ChromaMode::Grayscale.mcu_size(), (8, 8));
        assert_eq!(ChromaMode::Yuv444.mcu_size(), (8, 8));
        assert_eq!(ChromaMode::Yuv422.mcu_size(), (16, 8));
        assert_eq!(ChromaMode::Yuv420.mcu_size(), (16, 16));
    }
}
