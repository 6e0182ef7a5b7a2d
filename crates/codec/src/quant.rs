//! Quantization tables and quality scaling (T.81 Annex K, libjpeg-style
//! quality mapping).

use crate::dct::BLOCK_LEN;
use crate::error::{CodecError, CodecResult};

/// T.81 Annex K.1 luminance quantization table, raster order.
pub(crate) const STD_LUMA_QTABLE: [u16; BLOCK_LEN] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// T.81 Annex K.2 chrominance quantization table, raster order.
pub(crate) const STD_CHROMA_QTABLE: [u16; BLOCK_LEN] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

/// A quantization table with a validated, non-zero entry set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QuantTable {
    values: [u16; BLOCK_LEN],
}

impl QuantTable {
    /// Builds a table, rejecting zero entries (division by the entry must be
    /// defined) and entries beyond the 8-bit-precision JPEG limit of 255
    /// (we restrict to baseline 8-bit tables).
    pub(crate) fn new(values: [u16; BLOCK_LEN]) -> CodecResult<Self> {
        for (i, &v) in values.iter().enumerate() {
            if v == 0 || v > 255 {
                return Err(CodecError::InvalidArgument {
                    detail: format!("quant table entry {i} = {v} out of [1, 255]"),
                });
            }
        }
        Ok(Self { values })
    }

    /// Standard table scaled to a libjpeg-style quality in `[1, 100]`.
    ///
    /// `quality = 50` yields the Annex K table; higher is finer.
    pub(crate) fn standard(base: &[u16; BLOCK_LEN], quality: u8) -> CodecResult<Self> {
        if quality == 0 || quality > 100 {
            return Err(CodecError::InvalidArgument {
                detail: format!("quality {quality} out of [1, 100]"),
            });
        }
        let scale: u32 = if quality < 50 {
            5000 / quality as u32
        } else {
            200 - 2 * quality as u32
        };
        let mut values = [0u16; BLOCK_LEN];
        for (dst, &src) in values.iter_mut().zip(base.iter()) {
            let v = (src as u32 * scale + 50) / 100;
            *dst = v.clamp(1, 255) as u16;
        }
        Self::new(values)
    }

    /// Luminance table at the given quality.
    pub(crate) fn luma(quality: u8) -> CodecResult<Self> {
        Self::standard(&STD_LUMA_QTABLE, quality)
    }

    /// Chrominance table at the given quality.
    pub(crate) fn chroma(quality: u8) -> CodecResult<Self> {
        Self::standard(&STD_CHROMA_QTABLE, quality)
    }

    /// Raw raster-order entries.
    #[inline]
    pub(crate) fn values(&self) -> &[u16; BLOCK_LEN] {
        &self.values
    }

    /// Quantize one raster-order coefficient block to integers.
    pub(crate) fn quantize(&self, coeffs: &[f32; BLOCK_LEN], out: &mut [i16; BLOCK_LEN]) {
        for ((o, &c), &q) in out.iter_mut().zip(coeffs.iter()).zip(self.values.iter()) {
            *o = (c / q as f32).round() as i16;
        }
    }

    /// Dequantisation multipliers with the AAN iDCT scale factors folded
    /// in, for [`crate::dct::idct_8x8_dequant`]. Computed once per scan,
    /// amortised over every block that uses this table.
    pub(crate) fn idct_scale(&self) -> [f32; BLOCK_LEN] {
        crate::dct::idct_scale_factors(&self.values)
    }

    /// Dequantize one raster-order integer block back to coefficients: the
    /// reference iDCT's first step, kept for the tests that use it as an
    /// oracle.
    #[cfg(test)]
    pub(crate) fn dequantize(&self, quantized: &[i16; BLOCK_LEN], out: &mut [f32; BLOCK_LEN]) {
        for ((o, &v), &q) in out.iter_mut().zip(quantized.iter()).zip(self.values.iter()) {
            *o = v as f32 * q as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_50_is_base_table() {
        let t = QuantTable::luma(50).unwrap();
        assert_eq!(t.values(), &STD_LUMA_QTABLE);
    }

    #[test]
    fn quality_100_is_all_ones_mostly() {
        let t = QuantTable::luma(100).unwrap();
        // scale = 0 → every entry clamps to 1.
        assert!(t.values().iter().all(|&v| v == 1));
    }

    #[test]
    fn lower_quality_is_coarser() {
        let q25 = QuantTable::luma(25).unwrap();
        let q75 = QuantTable::luma(75).unwrap();
        for i in 0..BLOCK_LEN {
            assert!(q25.values()[i] >= q75.values()[i], "entry {i}");
        }
    }

    #[test]
    fn invalid_quality_rejected() {
        assert!(QuantTable::luma(0).is_err());
        assert!(QuantTable::standard(&STD_LUMA_QTABLE, 101).is_err());
    }

    #[test]
    fn zero_entry_rejected() {
        let mut vals = STD_LUMA_QTABLE;
        vals[5] = 0;
        assert!(QuantTable::new(vals).is_err());
        let mut big = STD_LUMA_QTABLE;
        big[0] = 256;
        assert!(QuantTable::new(big).is_err());
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let t = QuantTable::luma(50).unwrap();
        let mut coeffs = [0f32; BLOCK_LEN];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 13.5;
        }
        let mut q = [0i16; BLOCK_LEN];
        let mut back = [0f32; BLOCK_LEN];
        t.quantize(&coeffs, &mut q);
        t.dequantize(&q, &mut back);
        for i in 0..BLOCK_LEN {
            let err = (coeffs[i] - back[i]).abs();
            // Round-off error is bounded by half the quantization step.
            assert!(
                err <= t.values()[i] as f32 / 2.0 + 1e-3,
                "entry {i}: err {err} > step/2 {}",
                t.values()[i]
            );
        }
    }

    #[test]
    fn chroma_table_valid_at_all_qualities() {
        for q in 1..=100u8 {
            let t = QuantTable::chroma(q).unwrap();
            assert!(t.values().iter().all(|&v| (1..=255).contains(&v)));
        }
    }
}
