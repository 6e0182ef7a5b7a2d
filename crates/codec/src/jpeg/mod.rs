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

use crate::error::{CodecError, CodecResult};

/// JPEG marker bytes (the byte following `0xFF`).
pub mod marker {
    /// Start of image.
    pub const SOI: u8 = 0xD8;
    /// End of image.
    pub const EOI: u8 = 0xD9;
    /// Baseline DCT frame header.
    pub const SOF0: u8 = 0xC0;
    /// Define Huffman table(s).
    pub const DHT: u8 = 0xC4;
    /// Define quantization table(s).
    pub const DQT: u8 = 0xDB;
    /// Define restart interval.
    pub const DRI: u8 = 0xDD;
    /// Start of scan.
    pub const SOS: u8 = 0xDA;
    /// JFIF application segment.
    pub const APP0: u8 = 0xE0;
    /// Comment.
    pub const COM: u8 = 0xFE;
    /// First restart marker; RSTn = RST0 + (n mod 8).
    pub const RST0: u8 = 0xD0;

    /// Whether `m` is one of the eight restart markers.
    #[inline]
    pub fn is_rst(m: u8) -> bool {
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
    /// Number of scan components.
    pub fn components(self) -> usize {
        match self {
            ChromaMode::Grayscale => 1,
            _ => 3,
        }
    }

    /// (h, v) sampling factors of the luma component.
    pub fn luma_sampling(self) -> (u8, u8) {
        match self {
            ChromaMode::Yuv420 => (2, 2),
            ChromaMode::Yuv422 => (2, 1),
            _ => (1, 1),
        }
    }

    /// MCU size in pixels.
    pub fn mcu_size(self) -> (u32, u32) {
        let (h, v) = self.luma_sampling();
        (8 * h as u32, 8 * v as u32)
    }
}

/// Per-component layout information shared by encoder and decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentSpec {
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

/// Frame-level metadata parsed from (or written to) the JFIF headers.
///
/// The DLBooster `DataCollector` exposes exactly this kind of metadata to the
/// cmd generator so the FPGA parser knows the geometry before the scan starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Scan components in order.
    pub components: Vec<ComponentSpec>,
    /// Restart interval in MCUs (0 = none).
    pub restart_interval: u16,
}

impl FrameInfo {
    /// (h_max, v_max) across components.
    pub fn max_sampling(&self) -> (u8, u8) {
        let h = self.components.iter().map(|c| c.h).max().unwrap_or(1);
        let v = self.components.iter().map(|c| c.v).max().unwrap_or(1);
        (h, v)
    }

    /// MCU grid dimensions (columns, rows).
    pub fn mcu_grid(&self) -> (u32, u32) {
        let (h, v) = self.max_sampling();
        let mcu_w = 8 * h as u32;
        let mcu_h = 8 * v as u32;
        (self.width.div_ceil(mcu_w), self.height.div_ceil(mcu_h))
    }

    /// Total number of MCUs in the scan.
    pub fn mcu_count(&self) -> u64 {
        let (c, r) = self.mcu_grid();
        c as u64 * r as u64
    }

    /// 8×8 blocks per MCU across all components.
    pub fn blocks_per_mcu(&self) -> u32 {
        self.components
            .iter()
            .map(|c| c.h as u32 * c.v as u32)
            .sum()
    }

    /// Chroma mode implied by the component layout, when recognisable.
    pub fn chroma_mode(&self) -> CodecResult<ChromaMode> {
        match self.components.len() {
            1 => Ok(ChromaMode::Grayscale),
            3 => {
                let y = &self.components[0];
                match (y.h, y.v) {
                    (1, 1) => Ok(ChromaMode::Yuv444),
                    (2, 1) => Ok(ChromaMode::Yuv422),
                    (2, 2) => Ok(ChromaMode::Yuv420),
                    (h, v) => Err(CodecError::Unsupported {
                        feature: format!("luma sampling {h}x{v}"),
                    }),
                }
            }
            n => Err(CodecError::Unsupported {
                feature: format!("{n}-component scan"),
            }),
        }
    }
}

/// Standard component layouts for each [`ChromaMode`].
pub fn component_layout(mode: ChromaMode) -> Vec<ComponentSpec> {
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
    fn mcu_geometry_444() {
        let info = FrameInfo {
            width: 17,
            height: 9,
            components: component_layout(ChromaMode::Yuv444),
            restart_interval: 0,
        };
        assert_eq!(info.max_sampling(), (1, 1));
        assert_eq!(info.mcu_grid(), (3, 2));
        assert_eq!(info.mcu_count(), 6);
        assert_eq!(info.blocks_per_mcu(), 3);
        assert_eq!(info.chroma_mode().unwrap(), ChromaMode::Yuv444);
    }

    #[test]
    fn mcu_geometry_422() {
        let info = FrameInfo {
            width: 33,
            height: 17,
            components: component_layout(ChromaMode::Yuv422),
            restart_interval: 0,
        };
        assert_eq!(info.max_sampling(), (2, 1));
        assert_eq!(info.mcu_grid(), (3, 3));
        assert_eq!(info.blocks_per_mcu(), 4);
        assert_eq!(info.chroma_mode().unwrap(), ChromaMode::Yuv422);
    }

    #[test]
    fn mcu_geometry_420() {
        let info = FrameInfo {
            width: 33,
            height: 17,
            components: component_layout(ChromaMode::Yuv420),
            restart_interval: 0,
        };
        assert_eq!(info.max_sampling(), (2, 2));
        assert_eq!(info.mcu_grid(), (3, 2));
        assert_eq!(info.blocks_per_mcu(), 6);
        assert_eq!(info.chroma_mode().unwrap(), ChromaMode::Yuv420);
    }

    #[test]
    fn grayscale_layout() {
        let info = FrameInfo {
            width: 8,
            height: 8,
            components: component_layout(ChromaMode::Grayscale),
            restart_interval: 0,
        };
        assert_eq!(info.blocks_per_mcu(), 1);
        assert_eq!(info.mcu_count(), 1);
        assert_eq!(info.chroma_mode().unwrap(), ChromaMode::Grayscale);
    }

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
