//! Runtime-dispatched SIMD kernels for the decode hot path.
//!
//! The paper attacks JPEG decode with dedicated FPGA units; this module is
//! the CPU-side analogue: AVX2 implementations of the iDCT, YCbCr→RGB
//! conversion, chroma upsampling and both bilinear passes, selected at
//! runtime via `is_x86_feature_detected!` with the scalar code as fallback.
//!
//! **Bit-exactness contract.** Every kernel here performs, per lane, the
//! *identical* IEEE f32 operation sequence as its scalar counterpart — plain
//! `mul`/`add`/`sub` only, never FMA (a fused multiply-add rounds once where
//! the scalar code rounds twice and would diverge in the last ulp). The
//! final u8 conversion mirrors `clamp_u8` exactly: `+0.5`, clamp to
//! `[0, 255]`, truncate. `_mm256_max_ps(v, 0)` returns the second operand
//! for NaN inputs, matching the scalar clamp's NaN→0 saturation. The codec
//! proptests assert byte equality between the two paths on every decode.
//!
//! The scalar iDCT takes sparsity shortcuts (DC-only block, all-zero AC
//! column) that the SIMD kernel does not; these are bit-equivalent because
//! the skipped butterfly stages only add `±0.0` and multiply zeros by finite
//! constants, which IEEE f32 maps back to the shortcut's exact values.
//!
//! `DLB_CODEC_FORCE_SCALAR=1` (any value other than `0`) disables dispatch
//! so the scalar fallback stays exercised on SIMD-capable hosts.

use std::sync::atomic::{AtomicU8, Ordering};

const MODE_UNKNOWN: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_SIMD: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNKNOWN);

fn detect() -> u8 {
    if std::env::var_os("DLB_CODEC_FORCE_SCALAR").is_some_and(|v| v != "0") {
        return MODE_SCALAR;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            return MODE_SIMD;
        }
    }
    MODE_SCALAR
}

/// Whether the SIMD kernels are active on this host (AVX2 present and not
/// overridden by `DLB_CODEC_FORCE_SCALAR`). Detection runs once and is
/// cached; [`force_scalar`] can flip it at runtime for tests.
#[inline]
pub fn simd_active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_SIMD => true,
        MODE_SCALAR => false,
        _ => {
            let mode = detect();
            MODE.store(mode, Ordering::Relaxed);
            mode == MODE_SIMD
        }
    }
}

/// Overrides kernel dispatch at runtime: `true` forces the scalar fallback,
/// `false` re-runs feature detection (honouring the env override). Because
/// SIMD and scalar kernels produce identical bytes, flipping this
/// mid-decode is benign — only throughput changes — which is what lets the
/// equivalence tests toggle it without serialising every other test.
pub fn force_scalar(force: bool) {
    if force {
        MODE.store(MODE_SCALAR, Ordering::Relaxed);
    } else {
        MODE.store(detect(), Ordering::Relaxed);
    }
}

/// Hints the CPU to pull the cache line at `p + offset` toward L1. Used by
/// the segment-parallel decoder to overlap the next restart segment's
/// entropy bytes with the current segment's arithmetic. No-op off x86_64.
#[inline]
pub(crate) fn prefetch_read(data: &[u8], offset: usize) {
    #[cfg(target_arch = "x86_64")]
    if offset < data.len() {
        // SAFETY: prefetch is a pure performance hint; the pointer is
        // in-bounds and never dereferenced architecturally.
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                data.as_ptr().add(offset) as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, offset);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::*;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::dct::{BLOCK_LEN, C_A, C_B, C_C, SQRT2};
    use crate::pixel::{clamp_u8, ycbcr_to_rgb};
    use crate::resize::XTap;
    use std::arch::x86_64::*;

    /// The AAN 1-D butterfly over 8 vectors (`v[k]` = 1-D index `k`, one
    /// block row/column per lane), mirroring the scalar
    /// `idct_8x8_dequant` column/row pass operation-for-operation.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn aan_butterfly(v: [__m256; 8]) -> [__m256; 8] {
        let sqrt2 = _mm256_set1_ps(SQRT2);
        let c_a = _mm256_set1_ps(C_A);
        let c_b = _mm256_set1_ps(C_B);
        let c_c = _mm256_set1_ps(C_C);

        // Even part.
        let tmp10 = _mm256_add_ps(v[0], v[4]);
        let tmp11 = _mm256_sub_ps(v[0], v[4]);
        let tmp13 = _mm256_add_ps(v[2], v[6]);
        let tmp12 = _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(v[2], v[6]), sqrt2), tmp13);
        let e0 = _mm256_add_ps(tmp10, tmp13);
        let e3 = _mm256_sub_ps(tmp10, tmp13);
        let e1 = _mm256_add_ps(tmp11, tmp12);
        let e2 = _mm256_sub_ps(tmp11, tmp12);

        // Odd part.
        let z13 = _mm256_add_ps(v[5], v[3]);
        let z10 = _mm256_sub_ps(v[5], v[3]);
        let z11 = _mm256_add_ps(v[1], v[7]);
        let z12 = _mm256_sub_ps(v[1], v[7]);
        let o7 = _mm256_add_ps(z11, z13);
        let z11_13 = _mm256_mul_ps(_mm256_sub_ps(z11, z13), sqrt2);
        let z5 = _mm256_mul_ps(_mm256_add_ps(z10, z12), c_a);
        let o10 = _mm256_sub_ps(_mm256_mul_ps(c_b, z12), z5);
        let o12 = _mm256_add_ps(_mm256_mul_ps(c_c, z10), z5);
        let o6 = _mm256_sub_ps(o12, o7);
        let o5 = _mm256_sub_ps(z11_13, o6);
        let o4 = _mm256_add_ps(o10, o5);

        [
            _mm256_add_ps(e0, o7),
            _mm256_add_ps(e1, o6),
            _mm256_add_ps(e2, o5),
            _mm256_sub_ps(e3, o4),
            _mm256_add_ps(e3, o4),
            _mm256_sub_ps(e2, o5),
            _mm256_sub_ps(e1, o6),
            _mm256_sub_ps(e0, o7),
        ]
    }

    /// 8×8 f32 transpose (rows in, columns out).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose_8x8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        [
            _mm256_permute2f128_ps(s0, s4, 0x20),
            _mm256_permute2f128_ps(s1, s5, 0x20),
            _mm256_permute2f128_ps(s2, s6, 0x20),
            _mm256_permute2f128_ps(s3, s7, 0x20),
            _mm256_permute2f128_ps(s0, s4, 0x31),
            _mm256_permute2f128_ps(s1, s5, 0x31),
            _mm256_permute2f128_ps(s2, s6, 0x31),
            _mm256_permute2f128_ps(s3, s7, 0x31),
        ]
    }

    /// `clamp_u8(v + 128.0)` for 8 lanes, returning 8 packed i32 in `[0,255]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn levelshift_clamp_i32(v: __m256) -> __m256i {
        let t = _mm256_add_ps(v, _mm256_set1_ps(128.0));
        clamp_round_i32(t)
    }

    /// The `clamp_u8` sequence (`+0.5`, clamp, truncate) for 8 lanes.
    /// `max(v, 0)` returns the second operand on NaN, matching the scalar
    /// clamp's NaN→0; `cvttps` truncates like `as u8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamp_round_i32(v: __m256) -> __m256i {
        let t = _mm256_add_ps(v, _mm256_set1_ps(0.5));
        let t = _mm256_max_ps(t, _mm256_setzero_ps());
        let t = _mm256_min_ps(t, _mm256_set1_ps(255.0));
        _mm256_cvttps_epi32(t)
    }

    /// Packs four rows of 8 i32 (each in `[0, 255]`) into 32 consecutive u8.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pack_4x8_u8(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
        // packs interleaves 128-bit lanes; permute restores row order.
        let ab = _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0b11011000);
        let cd = _mm256_permute4x64_epi64(_mm256_packs_epi32(c, d), 0b11011000);
        _mm256_permute4x64_epi64(_mm256_packus_epi16(ab, cd), 0b11011000)
    }

    /// Fused dequantise → AAN iDCT → level shift → u8 clamp for one block.
    ///
    /// Bit-exact with `idct_8x8_dequant` followed by `clamp_u8(s + 128.0)`:
    /// each lane runs the same f32 ops in the same order, and the scalar
    /// sparsity shortcuts are algebraically exact under IEEE semantics (the
    /// skipped stages only add signed zeros produced from `0 × scale`).
    ///
    /// # Safety
    /// The host must support AVX2 (guaranteed when [`super::simd_active`]
    /// returned true).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn idct_8x8_dequant_u8_avx2(
        quantized: &[i16; BLOCK_LEN],
        scale: &[f32; BLOCK_LEN],
        out: &mut [u8; BLOCK_LEN],
    ) {
        let qp = quantized.as_ptr();
        // DC-only shortcut, kept identical to the scalar one: OR all
        // coefficients except index 0 and test for zero.
        let q0 = _mm256_loadu_si256(qp as *const __m256i);
        let q1 = _mm256_loadu_si256(qp.add(16) as *const __m256i);
        let q2 = _mm256_loadu_si256(qp.add(32) as *const __m256i);
        let q3 = _mm256_loadu_si256(qp.add(48) as *const __m256i);
        let dc_mask = _mm256_set_epi64x(-1, -1, -1, !0xFFFFi64);
        let acc = _mm256_or_si256(
            _mm256_or_si256(_mm256_and_si256(q0, dc_mask), q1),
            _mm256_or_si256(q2, q3),
        );
        if _mm256_testz_si256(acc, acc) != 0 {
            out.fill(clamp_u8(quantized[0] as f32 * scale[0] + 128.0));
            return;
        }

        // Dequantise rows: i16 → i32 → f32, then multiply by the folded
        // AAN scale factors (exactly `q as f32 * scale` per lane).
        let mut rows = [_mm256_setzero_ps(); 8];
        for (r, row) in rows.iter_mut().enumerate() {
            let qi = _mm256_cvtepi16_epi32(_mm_loadu_si128(qp.add(r * 8) as *const __m128i));
            let s = _mm256_loadu_ps(scale.as_ptr().add(r * 8));
            *row = _mm256_mul_ps(_mm256_cvtepi32_ps(qi), s);
        }

        // Column pass (lanes = columns), transpose, row pass, transpose back.
        let ws = aan_butterfly(rows);
        let t = transpose_8x8(ws);
        let u = aan_butterfly(t);
        let s = transpose_8x8(u);

        let r0123 = pack_4x8_u8(
            levelshift_clamp_i32(s[0]),
            levelshift_clamp_i32(s[1]),
            levelshift_clamp_i32(s[2]),
            levelshift_clamp_i32(s[3]),
        );
        let r4567 = pack_4x8_u8(
            levelshift_clamp_i32(s[4]),
            levelshift_clamp_i32(s[5]),
            levelshift_clamp_i32(s[6]),
            levelshift_clamp_i32(s[7]),
        );
        _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, r0123);
        _mm256_storeu_si256(out.as_mut_ptr().add(32) as *mut __m256i, r4567);
    }

    /// Converts matched rows of Y/Cb/Cr samples into interleaved RGB,
    /// 8 pixels per iteration, with a scalar tail.
    ///
    /// Bit-exact with per-pixel `ycbcr_to_rgb`: the three channel
    /// expressions are evaluated with the same f32 op order per lane.
    ///
    /// # Safety
    /// The host must support AVX2. `y`, `cb`, `cr` must have equal lengths
    /// and `out` must hold `3 * y.len()` bytes.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn ycbcr_rows_to_rgb_avx2(y: &[u8], cb: &[u8], cr: &[u8], out: &mut [u8]) {
        debug_assert_eq!(y.len(), cb.len());
        debug_assert_eq!(y.len(), cr.len());
        debug_assert_eq!(out.len(), y.len() * 3);
        let n = y.len();
        let c128 = _mm256_set1_ps(128.0);
        let k_r_cr = _mm256_set1_ps(1.402);
        let k_g_cb = _mm256_set1_ps(0.344_136);
        let k_g_cr = _mm256_set1_ps(0.714_136);
        let k_b_cb = _mm256_set1_ps(1.772);

        let mut i = 0usize;
        while i + 8 <= n {
            let load = |p: &[u8]| -> __m256 {
                let v = _mm_loadl_epi64(p.as_ptr().add(i) as *const __m128i);
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(v))
            };
            let yf = load(y);
            let cbf = _mm256_sub_ps(load(cb), c128);
            let crf = _mm256_sub_ps(load(cr), c128);
            // r = yf + 1.402·crf ; g = (yf − 0.344136·cbf) − 0.714136·crf ;
            // b = yf + 1.772·cbf — the scalar evaluation order.
            let r = _mm256_add_ps(yf, _mm256_mul_ps(k_r_cr, crf));
            let g = _mm256_sub_ps(
                _mm256_sub_ps(yf, _mm256_mul_ps(k_g_cb, cbf)),
                _mm256_mul_ps(k_g_cr, crf),
            );
            let b = _mm256_add_ps(yf, _mm256_mul_ps(k_b_cb, cbf));
            let mut ri = [0i32; 8];
            let mut gi = [0i32; 8];
            let mut bi = [0i32; 8];
            _mm256_storeu_si256(ri.as_mut_ptr() as *mut __m256i, clamp_round_i32(r));
            _mm256_storeu_si256(gi.as_mut_ptr() as *mut __m256i, clamp_round_i32(g));
            _mm256_storeu_si256(bi.as_mut_ptr() as *mut __m256i, clamp_round_i32(b));
            for k in 0..8 {
                let o = (i + k) * 3;
                out[o] = ri[k] as u8;
                out[o + 1] = gi[k] as u8;
                out[o + 2] = bi[k] as u8;
            }
            i += 8;
        }
        while i < n {
            let [r, g, b] = ycbcr_to_rgb(y[i], cb[i], cr[i]);
            let o = i * 3;
            out[o] = r;
            out[o + 1] = g;
            out[o + 2] = b;
            i += 1;
        }
    }

    /// 2× horizontal nearest-neighbour upsample: `out[i] = src[i / 2]`,
    /// 32 output bytes per iteration via byte-interleave with itself.
    ///
    /// # Safety
    /// The host must support AVX2. `src` must hold at least
    /// `out.len().div_ceil(2)` bytes.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn upsample_dup2_row_avx2(src: &[u8], out: &mut [u8]) {
        debug_assert!(src.len() >= out.len().div_ceil(2));
        let n = out.len();
        let mut o = 0usize;
        while o + 32 <= n {
            let s = _mm_loadu_si128(src.as_ptr().add(o / 2) as *const __m128i);
            let lo = _mm_unpacklo_epi8(s, s);
            let hi = _mm_unpackhi_epi8(s, s);
            _mm_storeu_si128(out.as_mut_ptr().add(o) as *mut __m128i, lo);
            _mm_storeu_si128(out.as_mut_ptr().add(o + 16) as *mut __m128i, hi);
            o += 32;
        }
        while o < n {
            out[o] = src[o / 2];
            o += 1;
        }
    }

    /// Horizontal bilinear taps over an interleaved RGB row: for tap `dx`,
    /// `out[3·dx + ch] = p0 + (p1 − p0)·wx` with `p0`/`p1` the bytes at
    /// `o0 + ch`/`o1 + ch`. One tap per iteration in four f32 lanes (R, G, B
    /// and the byte after them); the fourth lane's store is overwritten by
    /// the next tap and, after the last, lands in the caller's slack float.
    /// Plain `sub`/`mul`/`add` per lane — the scalar expression, no FMA.
    ///
    /// # Safety
    /// The host must support AVX2. For every tap, `o0 + 4` and `o1 + 4`
    /// must not exceed `src.len()`, and `out` must hold `3·taps.len() + 1`
    /// floats.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hlerp_rgb_taps_avx2(src: &[u8], taps: &[XTap], out: &mut [f32]) {
        debug_assert!(taps.is_empty() || out.len() > 3 * taps.len());
        let sp = src.as_ptr();
        let op = out.as_mut_ptr();
        for (dx, t) in taps.iter().enumerate() {
            debug_assert!(t.o0 <= t.o1 && t.o1 as usize + 4 <= src.len());
            let load = |o: u32| -> __m128 {
                let px = (sp.add(o as usize) as *const i32).read_unaligned();
                _mm_cvtepi32_ps(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(px)))
            };
            let p0 = load(t.o0);
            let p1 = load(t.o1);
            let v = _mm_add_ps(p0, _mm_mul_ps(_mm_sub_ps(p1, p0), _mm_set1_ps(t.wx)));
            _mm_storeu_ps(op.add(dx * 3), v);
        }
    }

    /// Vertical bilinear pass: `out[i] = clamp_u8(top[i] + (bot[i] − top[i])
    /// · wy)`, 8 lanes per iteration with a scalar tail. Bit-exact with the
    /// scalar expression.
    ///
    /// # Safety
    /// The host must support AVX2. `top`, `bot` and `out` must have equal
    /// lengths.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn lerp_rows_to_u8_avx2(top: &[f32], bot: &[f32], wy: f32, out: &mut [u8]) {
        debug_assert_eq!(top.len(), bot.len());
        debug_assert_eq!(top.len(), out.len());
        let n = out.len();
        let wyv = _mm256_set1_ps(wy);
        let mut i = 0usize;
        while i + 8 <= n {
            let t = _mm256_loadu_ps(top.as_ptr().add(i));
            let b = _mm256_loadu_ps(bot.as_ptr().add(i));
            let v = _mm256_add_ps(t, _mm256_mul_ps(_mm256_sub_ps(b, t), wyv));
            let mut vi = [0i32; 8];
            _mm256_storeu_si256(vi.as_mut_ptr() as *mut __m256i, clamp_round_i32(v));
            for k in 0..8 {
                out[i + k] = vi[k] as u8;
            }
            i += 8;
        }
        while i < n {
            out[i] = clamp_u8(top[i] + (bot[i] - top[i]) * wy);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_cached_and_overridable() {
        let initial = simd_active();
        force_scalar(true);
        assert!(!simd_active());
        force_scalar(false);
        assert_eq!(simd_active(), initial);
    }

    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use super::super::*;
        use crate::dct::{idct_8x8_dequant, idct_scale_factors, BLOCK_LEN};
        use crate::pixel::{clamp_u8, ycbcr_to_rgb};

        fn have_avx2() -> bool {
            std::is_x86_feature_detected!("avx2")
        }

        fn lcg(state: &mut u32) -> u32 {
            *state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *state
        }

        #[test]
        fn idct_kernel_bit_exact_with_scalar() {
            if !have_avx2() {
                return;
            }
            let qt: [u16; BLOCK_LEN] = std::array::from_fn(|i| 1 + (i as u16 * 7) % 90);
            let scale = idct_scale_factors(&qt);
            let mut state = 0xC0FFEEu32;
            for density in [0u32, 2, 10, 50, 100] {
                for _ in 0..64 {
                    let mut block = [0i16; BLOCK_LEN];
                    for v in block.iter_mut() {
                        let r = lcg(&mut state);
                        if r % 100 < density {
                            *v = ((r >> 16) as i16) % 1024;
                        }
                    }
                    block[0] = ((lcg(&mut state) >> 16) as i16) % 1024;

                    let mut want_f = [0f32; BLOCK_LEN];
                    idct_8x8_dequant(&block, &scale, &mut want_f);
                    let mut want = [0u8; BLOCK_LEN];
                    for (o, &s) in want.iter_mut().zip(want_f.iter()) {
                        *o = clamp_u8(s + 128.0);
                    }

                    let mut got = [0u8; BLOCK_LEN];
                    // SAFETY: guarded by have_avx2 above.
                    unsafe { idct_8x8_dequant_u8_avx2(&block, &scale, &mut got) };
                    assert_eq!(want, got, "density {density} block {block:?}");
                }
            }
        }

        #[test]
        fn color_kernel_bit_exact_with_scalar() {
            if !have_avx2() {
                return;
            }
            let mut state = 0xBEEFu32;
            for len in [0usize, 1, 7, 8, 9, 64, 100] {
                let y: Vec<u8> = (0..len).map(|_| lcg(&mut state) as u8).collect();
                let cb: Vec<u8> = (0..len).map(|_| lcg(&mut state) as u8).collect();
                let cr: Vec<u8> = (0..len).map(|_| lcg(&mut state) as u8).collect();
                let mut want = vec![0u8; len * 3];
                for i in 0..len {
                    let [r, g, b] = ycbcr_to_rgb(y[i], cb[i], cr[i]);
                    want[i * 3] = r;
                    want[i * 3 + 1] = g;
                    want[i * 3 + 2] = b;
                }
                let mut got = vec![0u8; len * 3];
                // SAFETY: guarded by have_avx2 above.
                unsafe { ycbcr_rows_to_rgb_avx2(&y, &cb, &cr, &mut got) };
                assert_eq!(want, got, "len {len}");
            }
        }

        #[test]
        fn upsample_kernel_duplicates() {
            if !have_avx2() {
                return;
            }
            let mut state = 0x5EEDu32;
            for len in [0usize, 1, 2, 31, 32, 33, 64, 99] {
                let src: Vec<u8> = (0..len.div_ceil(2).max(1))
                    .map(|_| lcg(&mut state) as u8)
                    .collect();
                let mut got = vec![0u8; len];
                // SAFETY: guarded by have_avx2 above.
                unsafe { upsample_dup2_row_avx2(&src, &mut got) };
                for (i, &v) in got.iter().enumerate() {
                    assert_eq!(v, src[i / 2], "len {len} idx {i}");
                }
            }
        }

        #[test]
        fn hlerp_kernel_bit_exact_with_scalar() {
            use crate::resize::{hlerp_row, XTaps};
            if !have_avx2() {
                return;
            }
            let mut state = 0x7A95u32;
            // Downscales, upscales (where the last taps clamp x1 to sw − 1)
            // and 1:1, over rows with and without the pad byte that lets the
            // kernel cover the last pixel.
            for (sw, dw) in [
                (1usize, 1usize),
                (2, 7),
                (5, 5),
                (17, 40),
                (33, 8),
                (500, 224),
            ] {
                let mut taps = XTaps::default();
                taps.prepare(sw, dw, 3);
                for pad in [0usize, 1] {
                    let src: Vec<u8> = (0..sw * 3 + pad).map(|_| lcg(&mut state) as u8).collect();
                    let want: Vec<f32> = {
                        force_scalar(true);
                        let mut out = vec![0f32; dw * 3 + pad];
                        hlerp_row(&src, 3, &taps, &mut out);
                        force_scalar(false);
                        out
                    };
                    let mut got = vec![0f32; dw * 3 + pad];
                    hlerp_row(&src, 3, &taps, &mut got);
                    assert_eq!(want[..dw * 3], got[..dw * 3], "{sw} -> {dw}, pad {pad}");
                    // And against the expression itself, per channel.
                    let x_scale = sw as f32 / dw as f32;
                    for dx in 0..dw {
                        let fx = ((dx as f32 + 0.5) * x_scale - 0.5).max(0.0);
                        let x0 = fx as usize;
                        let x1 = (x0 + 1).min(sw - 1);
                        let wx = fx - x0 as f32;
                        for ch in 0..3 {
                            let (p0, p1) = (src[x0 * 3 + ch] as f32, src[x1 * 3 + ch] as f32);
                            assert_eq!(got[dx * 3 + ch], p0 + (p1 - p0) * wx);
                        }
                    }
                }
            }
        }

        #[test]
        fn lerp_kernel_bit_exact_with_scalar() {
            if !have_avx2() {
                return;
            }
            let mut state = 0xACEDu32;
            for len in [0usize, 3, 8, 17, 40] {
                for wy in [0.0f32, 0.25, 0.4999, 0.75, 1.0] {
                    let top: Vec<f32> = (0..len)
                        .map(|_| (lcg(&mut state) % 2560) as f32 / 10.0 - 1.0)
                        .collect();
                    let bot: Vec<f32> = (0..len)
                        .map(|_| (lcg(&mut state) % 2560) as f32 / 10.0 - 1.0)
                        .collect();
                    let want: Vec<u8> = top
                        .iter()
                        .zip(bot.iter())
                        .map(|(&t, &b)| clamp_u8(t + (b - t) * wy))
                        .collect();
                    let mut got = vec![0u8; len];
                    // SAFETY: guarded by have_avx2 above.
                    unsafe { lerp_rows_to_u8_avx2(&top, &bot, wy, &mut got) };
                    assert_eq!(want, got, "len {len} wy {wy}");
                }
            }
        }
    }
}
