//! 8×8 forward and inverse discrete cosine transforms.
//!
//! The FPGA decoder's iDCT unit (paper Fig. 4) is modelled functionally by
//! the fast AAN transform `idct_8x8_dequant_u8`. The forward transform,
//! and the reference inverse the tests hold the fast one to, are separable
//! direct float implementations: exact enough that quantisation — not the
//! transform — dominates the JPEG roundtrip error, and simple enough to
//! audit against the T.81 definition.

/// Side length of a DCT block.
pub(crate) const BLOCK_DIM: usize = 8;
/// Coefficients per block.
pub(crate) const BLOCK_LEN: usize = BLOCK_DIM * BLOCK_DIM;

/// Cosine basis: `COS[x][u] = cos((2x+1) u π / 16)`, premultiplied by the
/// normalisation factor `c(u) = 1/√2 for u = 0, else 1`, and by the global
/// 1/2 from the 2-D normalisation split across both passes.
fn basis() -> [[f32; BLOCK_DIM]; BLOCK_DIM] {
    let mut t = [[0f32; BLOCK_DIM]; BLOCK_DIM];
    for (x, row) in t.iter_mut().enumerate() {
        for (u, v) in row.iter_mut().enumerate() {
            let cu = if u == 0 { (0.5f32).sqrt() } else { 1.0 };
            *v = 0.5 * cu * ((2.0 * x as f32 + 1.0) * u as f32 * std::f32::consts::PI / 16.0).cos();
        }
    }
    t
}

fn basis_cached() -> &'static [[f32; BLOCK_DIM]; BLOCK_DIM] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f32; BLOCK_DIM]; BLOCK_DIM]> = OnceLock::new();
    TABLE.get_or_init(basis)
}

/// Forward 2-D DCT of one 8×8 block of level-shifted samples
/// (each in `[-128, 127]`), producing 64 frequency coefficients.
pub(crate) fn fdct_8x8(samples: &[f32; BLOCK_LEN], coeffs: &mut [f32; BLOCK_LEN]) {
    let b = basis_cached();
    // Row pass: tmp[y][u] = Σ_x samples[y][x] · COS[x][u]
    let mut tmp = [0f32; BLOCK_LEN];
    for y in 0..BLOCK_DIM {
        for u in 0..BLOCK_DIM {
            let mut acc = 0f32;
            for x in 0..BLOCK_DIM {
                acc += samples[y * BLOCK_DIM + x] * b[x][u];
            }
            tmp[y * BLOCK_DIM + u] = acc;
        }
    }
    // Column pass: coeffs[v][u] = Σ_y tmp[y][u] · COS[y][v]
    for v in 0..BLOCK_DIM {
        for u in 0..BLOCK_DIM {
            let mut acc = 0f32;
            for y in 0..BLOCK_DIM {
                acc += tmp[y * BLOCK_DIM + u] * b[y][v];
            }
            coeffs[v * BLOCK_DIM + u] = acc;
        }
    }
}

/// Inverse 2-D DCT of one 8×8 coefficient block back into level-shifted
/// spatial samples: the direct O(8³) reference the fast kernel is tested
/// against. Production decode runs [`idct_8x8_dequant_u8`] only.
#[cfg(test)]
pub(crate) fn idct_8x8(coeffs: &[f32; BLOCK_LEN], samples: &mut [f32; BLOCK_LEN]) {
    let b = basis_cached();
    // Column pass: tmp[y][u] = Σ_v coeffs[v][u] · COS[y][v]
    let mut tmp = [0f32; BLOCK_LEN];
    for y in 0..BLOCK_DIM {
        for u in 0..BLOCK_DIM {
            let mut acc = 0f32;
            for v in 0..BLOCK_DIM {
                acc += coeffs[v * BLOCK_DIM + u] * b[y][v];
            }
            tmp[y * BLOCK_DIM + u] = acc;
        }
    }
    // Row pass: samples[y][x] = Σ_u tmp[y][u] · COS[x][u]
    for y in 0..BLOCK_DIM {
        for x in 0..BLOCK_DIM {
            let mut acc = 0f32;
            for u in 0..BLOCK_DIM {
                acc += tmp[y * BLOCK_DIM + u] * b[x][u];
            }
            samples[y * BLOCK_DIM + x] = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Fast scaled iDCT (AAN)
// ---------------------------------------------------------------------------

/// AAN butterfly constant √2 (shared by the scalar and SIMD kernels so both
/// run the identical IEEE f32 operation sequence).
pub(crate) const SQRT2: f32 = std::f32::consts::SQRT_2;
/// 2·cos(π/8).
pub(crate) const C_A: f32 = 1.847_759_1;
/// 2·(cos(π/8) − cos(3π/8)).
pub(crate) const C_B: f32 = 1.082_392_2;
/// −2·(cos(π/8) + cos(3π/8)).
pub(crate) const C_C: f32 = -2.613_126;

/// AAN per-frequency scale factors: `1` for DC, `cos(k·π/16)·√2` for AC.
///
/// The AAN factorisation (Arai–Agui–Nakajima, the algorithm behind
/// libjpeg's float iDCT and the natural software mirror of the paper's
/// FPGA iDCT unit) pulls these constants out of the butterfly network;
/// they are folded into the dequantisation multipliers ahead of time, so
/// the per-block transform runs in ~80 multiplies instead of the O(8³)
/// basis-matrix products of the reference transform.
fn aan_scale_factors() -> [f32; BLOCK_DIM] {
    let mut s = [0f32; BLOCK_DIM];
    s[0] = 1.0;
    for (k, v) in s.iter_mut().enumerate().skip(1) {
        *v = (k as f32 * std::f32::consts::PI / 16.0).cos() * std::f32::consts::SQRT_2;
    }
    s
}

/// Folds a raster-order quantisation table into AAN iDCT multipliers:
/// `out[r·8+c] = q[r·8+c] · aan[r] · aan[c] / 8`. Feeding these to
/// [`idct_8x8_dequant`] performs dequantisation and the inverse transform
/// in one pass.
pub(crate) fn idct_scale_factors(q: &[u16; BLOCK_LEN]) -> [f32; BLOCK_LEN] {
    let aan = aan_scale_factors();
    let mut out = [0f32; BLOCK_LEN];
    for r in 0..BLOCK_DIM {
        for c in 0..BLOCK_DIM {
            out[r * BLOCK_DIM + c] = q[r * BLOCK_DIM + c] as f32 * aan[r] * aan[c] / 8.0;
        }
    }
    out
}

/// Fast inverse DCT of one quantised 8×8 block with dequantisation folded
/// into `scale` (from [`idct_scale_factors`]), writing level-shifted
/// spatial samples.
///
/// Matches the reference `idct_8x8` accuracy contract (the roundtrip error stays
/// dominated by quantisation, not the transform) while taking two sparse
/// fast paths the entropy-decoded coefficient statistics make common:
///
/// * **DC-only block** → a single multiply and a fill,
/// * **all-zero AC column** → that column's 1-D pass collapses to a copy.
pub(crate) fn idct_8x8_dequant(
    quantized: &[i16; BLOCK_LEN],
    scale: &[f32; BLOCK_LEN],
    samples: &mut [f32; BLOCK_LEN],
) {
    // DC-only shortcut: a constant block (very common for chroma and for
    // flat luma regions at ordinary qualities).
    if quantized[1..].iter().all(|&v| v == 0) {
        samples.fill(quantized[0] as f32 * scale[0]);
        return;
    }

    let mut ws = [0f32; BLOCK_LEN];

    // Column pass (dequantising on the fly).
    for c in 0..BLOCK_DIM {
        // Sparse column: all AC rows zero → the 1-D iDCT of this column is
        // a constant.
        if quantized[8 + c] == 0
            && quantized[16 + c] == 0
            && quantized[24 + c] == 0
            && quantized[32 + c] == 0
            && quantized[40 + c] == 0
            && quantized[48 + c] == 0
            && quantized[56 + c] == 0
        {
            let dc = quantized[c] as f32 * scale[c];
            for r in 0..BLOCK_DIM {
                ws[r * BLOCK_DIM + c] = dc;
            }
            continue;
        }

        // Even part.
        let tmp0 = quantized[c] as f32 * scale[c];
        let tmp1 = quantized[16 + c] as f32 * scale[16 + c];
        let tmp2 = quantized[32 + c] as f32 * scale[32 + c];
        let tmp3 = quantized[48 + c] as f32 * scale[48 + c];
        let tmp10 = tmp0 + tmp2;
        let tmp11 = tmp0 - tmp2;
        let tmp13 = tmp1 + tmp3;
        let tmp12 = (tmp1 - tmp3) * SQRT2 - tmp13;
        let e0 = tmp10 + tmp13;
        let e3 = tmp10 - tmp13;
        let e1 = tmp11 + tmp12;
        let e2 = tmp11 - tmp12;

        // Odd part.
        let tmp4 = quantized[8 + c] as f32 * scale[8 + c];
        let tmp5 = quantized[24 + c] as f32 * scale[24 + c];
        let tmp6 = quantized[40 + c] as f32 * scale[40 + c];
        let tmp7 = quantized[56 + c] as f32 * scale[56 + c];
        let z13 = tmp6 + tmp5;
        let z10 = tmp6 - tmp5;
        let z11 = tmp4 + tmp7;
        let z12 = tmp4 - tmp7;
        let o7 = z11 + z13;
        let z11_13 = (z11 - z13) * SQRT2;
        let z5 = (z10 + z12) * C_A;
        let o10 = C_B * z12 - z5;
        let o12 = C_C * z10 + z5;
        let o6 = o12 - o7;
        let o5 = z11_13 - o6;
        let o4 = o10 + o5;

        ws[c] = e0 + o7;
        ws[56 + c] = e0 - o7;
        ws[8 + c] = e1 + o6;
        ws[48 + c] = e1 - o6;
        ws[16 + c] = e2 + o5;
        ws[40 + c] = e2 - o5;
        ws[32 + c] = e3 + o4;
        ws[24 + c] = e3 - o4;
    }

    // Row pass.
    for r in 0..BLOCK_DIM {
        let row = &ws[r * BLOCK_DIM..r * BLOCK_DIM + BLOCK_DIM];
        let tmp10 = row[0] + row[4];
        let tmp11 = row[0] - row[4];
        let tmp13 = row[2] + row[6];
        let tmp12 = (row[2] - row[6]) * SQRT2 - tmp13;
        let e0 = tmp10 + tmp13;
        let e3 = tmp10 - tmp13;
        let e1 = tmp11 + tmp12;
        let e2 = tmp11 - tmp12;

        let z13 = row[5] + row[3];
        let z10 = row[5] - row[3];
        let z11 = row[1] + row[7];
        let z12 = row[1] - row[7];
        let o7 = z11 + z13;
        let z11_13 = (z11 - z13) * SQRT2;
        let z5 = (z10 + z12) * C_A;
        let o10 = C_B * z12 - z5;
        let o12 = C_C * z10 + z5;
        let o6 = o12 - o7;
        let o5 = z11_13 - o6;
        let o4 = o10 + o5;

        let out = &mut samples[r * BLOCK_DIM..r * BLOCK_DIM + BLOCK_DIM];
        out[0] = e0 + o7;
        out[7] = e0 - o7;
        out[1] = e1 + o6;
        out[6] = e1 - o6;
        out[2] = e2 + o5;
        out[5] = e2 - o5;
        out[4] = e3 + o4;
        out[3] = e3 - o4;
    }
}

/// [`idct_8x8_dequant`] fused with the level shift and u8 clamp, dispatching
/// to the AVX2 kernel when the host supports it (and
/// `DLB_CODEC_FORCE_SCALAR` is not set). Bit-exact with the scalar sequence
/// `idct_8x8_dequant` + `clamp_u8(s + 128.0)` — the SIMD lanes execute the
/// identical IEEE f32 operation order, which the codec proptests pin.
#[inline]
pub(crate) fn idct_8x8_dequant_u8(
    quantized: &[i16; BLOCK_LEN],
    scale: &[f32; BLOCK_LEN],
    out: &mut [u8; BLOCK_LEN],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::simd_active() {
        // SAFETY: `simd_active` returns true only after runtime AVX2
        // detection succeeds.
        unsafe { crate::simd::idct_8x8_dequant_u8_avx2(quantized, scale, out) };
        return;
    }
    let mut samples = [0f32; BLOCK_LEN];
    idct_8x8_dequant(quantized, scale, &mut samples);
    for (o, &s) in out.iter_mut().zip(samples.iter()) {
        *o = crate::pixel::clamp_u8(s + 128.0);
    }
}

/// Zigzag scan order mapping: `ZIGZAG[i]` is the raster index of the `i`-th
/// coefficient in zigzag order (T.81 Figure A.6).
pub(crate) const ZIGZAG: [usize; BLOCK_LEN] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn dct_roundtrip_bounded(samples in prop::collection::vec(-128f32..=127f32, BLOCK_LEN)) {
            let mut arr = [0f32; BLOCK_LEN];
            arr.copy_from_slice(&samples);
            let mut coeffs = [0f32; BLOCK_LEN];
            let mut back = [0f32; BLOCK_LEN];
            fdct_8x8(&arr, &mut coeffs);
            idct_8x8(&coeffs, &mut back);
            for i in 0..BLOCK_LEN {
                prop_assert!((arr[i] - back[i]).abs() < 0.05, "idx {}: {} vs {}", i, arr[i], back[i]);
            }
        }
    }

    fn roundtrip_error(samples: &[f32; BLOCK_LEN]) -> f32 {
        let mut coeffs = [0f32; BLOCK_LEN];
        let mut back = [0f32; BLOCK_LEN];
        fdct_8x8(samples, &mut coeffs);
        idct_8x8(&coeffs, &mut back);
        samples
            .iter()
            .zip(back.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0f32, f32::max)
    }

    #[test]
    fn dct_of_constant_block_has_only_dc() {
        let samples = [100f32; BLOCK_LEN];
        let mut coeffs = [0f32; BLOCK_LEN];
        fdct_8x8(&samples, &mut coeffs);
        // DC of a constant block: 8 * value.
        assert!((coeffs[0] - 800.0).abs() < 1e-2, "dc = {}", coeffs[0]);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "ac[{i}] = {c}");
        }
    }

    #[test]
    fn idct_of_dc_only_is_constant() {
        let mut coeffs = [0f32; BLOCK_LEN];
        coeffs[0] = 800.0;
        let mut samples = [0f32; BLOCK_LEN];
        idct_8x8(&coeffs, &mut samples);
        for &s in &samples {
            assert!((s - 100.0).abs() < 1e-2);
        }
    }

    #[test]
    fn roundtrip_is_near_exact() {
        // A deterministic pseudo-random block.
        let mut samples = [0f32; BLOCK_LEN];
        let mut state = 0x1234_5678u32;
        for s in samples.iter_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *s = ((state >> 24) as f32) - 128.0;
        }
        assert!(roundtrip_error(&samples) < 1e-2);
    }

    #[test]
    fn roundtrip_extremes() {
        assert!(roundtrip_error(&[-128.0; BLOCK_LEN]) < 1e-2);
        assert!(roundtrip_error(&[127.0; BLOCK_LEN]) < 1e-2);
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; BLOCK_LEN];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Spot-check documented positions.
        assert_eq!(ZIGZAG[0], 0);
        assert_eq!(ZIGZAG[1], 1);
        assert_eq!(ZIGZAG[2], 8);
        assert_eq!(ZIGZAG[63], 63);
    }

    /// Reference: dequantize by plain multiplication then run the direct
    /// basis-matrix iDCT.
    fn reference_dequant_idct(
        quantized: &[i16; BLOCK_LEN],
        q: &[u16; BLOCK_LEN],
    ) -> [f32; BLOCK_LEN] {
        let mut coeffs = [0f32; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            coeffs[i] = quantized[i] as f32 * q[i] as f32;
        }
        let mut samples = [0f32; BLOCK_LEN];
        idct_8x8(&coeffs, &mut samples);
        samples
    }

    fn pseudo_random_block(seed: u32, density: u32) -> [i16; BLOCK_LEN] {
        let mut q = [0i16; BLOCK_LEN];
        let mut state = seed | 1;
        for v in q.iter_mut() {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if state % 100 < density {
                *v = ((state >> 20) as i16 % 256) - 128;
            }
        }
        q
    }

    #[test]
    fn fast_idct_matches_reference_dense() {
        let qt: [u16; BLOCK_LEN] = std::array::from_fn(|i| 1 + (i as u16 % 13));
        let scale = idct_scale_factors(&qt);
        for seed in [1u32, 77, 4242, 0xDEAD] {
            let block = pseudo_random_block(seed, 100);
            let want = reference_dequant_idct(&block, &qt);
            let mut got = [0f32; BLOCK_LEN];
            idct_8x8_dequant(&block, &scale, &mut got);
            for i in 0..BLOCK_LEN {
                assert!(
                    (want[i] - got[i]).abs() < 0.02,
                    "seed {seed} idx {i}: ref {} vs fast {}",
                    want[i],
                    got[i]
                );
            }
        }
    }

    #[test]
    fn fast_idct_matches_reference_sparse() {
        // Typical post-quantisation blocks: most coefficients zero, which
        // exercises the DC-only and zero-column shortcuts.
        let qt = crate::quant::STD_LUMA_QTABLE;
        let scale = idct_scale_factors(&qt);
        for (seed, density) in [(3u32, 0), (9, 3), (11, 8), (23, 20)] {
            let mut block = pseudo_random_block(seed, density);
            block[0] = (seed as i16 % 64) - 32; // always some DC
            let want = reference_dequant_idct(&block, &qt);
            let mut got = [0f32; BLOCK_LEN];
            idct_8x8_dequant(&block, &scale, &mut got);
            for i in 0..BLOCK_LEN {
                assert!(
                    (want[i] - got[i]).abs() < 0.02,
                    "seed {seed} density {density} idx {i}: {} vs {}",
                    want[i],
                    got[i]
                );
            }
        }
    }

    #[test]
    fn fast_idct_dc_only_is_constant() {
        let qt: [u16; BLOCK_LEN] = [16; BLOCK_LEN];
        let scale = idct_scale_factors(&qt);
        let mut block = [0i16; BLOCK_LEN];
        block[0] = 50;
        let mut got = [0f32; BLOCK_LEN];
        idct_8x8_dequant(&block, &scale, &mut got);
        // DC scale: q·dc/8 = 16·50/8 = 100.
        for &s in &got {
            assert!((s - 100.0).abs() < 1e-3, "{s}");
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut samples = [0f32; BLOCK_LEN];
        for (i, s) in samples.iter_mut().enumerate() {
            *s = ((i as f32) * 3.7).sin() * 100.0;
        }
        let mut coeffs = [0f32; BLOCK_LEN];
        fdct_8x8(&samples, &mut coeffs);
        let e_spatial: f32 = samples.iter().map(|s| s * s).sum();
        let e_freq: f32 = coeffs.iter().map(|c| c * c).sum();
        let rel = (e_spatial - e_freq).abs() / e_spatial.max(1.0);
        assert!(rel < 1e-4, "energy mismatch: {e_spatial} vs {e_freq}");
    }
}
