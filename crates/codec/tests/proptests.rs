//! Property-based tests for the codec's core invariants.

use dlb_codec::huffman::{
    decode_magnitude, encode_magnitude, magnitude_category, BitReader, BitWriter, HuffTable,
};
use dlb_codec::jpeg::ChromaMode;
use dlb_codec::pixel::{rgb_to_ycbcr, ycbcr_to_rgb};
use dlb_codec::resize::{resize, ResizeFilter};
use dlb_codec::simd::{force_scalar, simd_active};
use dlb_codec::synth::{generate, SynthStyle};
use dlb_codec::{CodecError, ColorSpace, DecodeScratch, Image, JpegDecoder, JpegEncoder};
use proptest::prelude::*;

/// One image and one way to ask the kernel for it.
#[derive(Debug, Clone)]
struct KernelCase {
    mode: ChromaMode,
    interval: u16,
    w: u32,
    h: u32,
    /// 0 = (dw, dh); 1 = identity; 2 = width only; 3 = height only;
    /// 4 = no target (source geometry).
    shape: u8,
    dw: u32,
    dh: u32,
    color: ColorSpace,
    seed: u64,
}

impl KernelCase {
    fn target(&self) -> Option<(u32, u32)> {
        match self.shape {
            0 => Some((self.dw, self.dh)),
            1 => Some((self.w, self.h)),
            2 => Some((self.dw, self.h)),
            3 => Some((self.w, self.dh)),
            _ => None,
        }
    }

    fn jpeg(&self) -> Vec<u8> {
        let img = generate(self.w, self.h, SynthStyle::Photo, self.seed);
        let img = if self.mode == ChromaMode::Grayscale {
            img.to_gray()
        } else {
            img
        };
        JpegEncoder::new(88)
            .unwrap()
            .with_mode(self.mode)
            .with_restart_interval(self.interval)
            .encode(&img)
            .unwrap()
    }
}

fn kernel_case() -> impl Strategy<Value = KernelCase> {
    (
        prop::sample::select(vec![
            ChromaMode::Yuv444,
            ChromaMode::Yuv422,
            ChromaMode::Yuv420,
            ChromaMode::Grayscale,
        ]),
        prop::sample::select(vec![0u16, 1, 7, 64]),
        (1u32..=70, 1u32..=70),
        0u8..=4,
        (1u32..=96, 1u32..=96),
        prop::sample::select(vec![ColorSpace::Rgb, ColorSpace::Gray]),
        any::<u64>(),
    )
        .prop_map(
            |(mode, interval, (w, h), shape, (dw, dh), color, seed)| KernelCase {
                mode,
                interval,
                // Odd sizes: partial MCUs on both edges.
                w: w | 1,
                h: h | 1,
                shape,
                dw,
                dh,
                color,
                seed,
            },
        )
}

/// What the kernel must equal byte for byte: the one-image API chained.
fn decode_resize_convert(bytes: &[u8], target: Option<(u32, u32)>, color: ColorSpace) -> Image {
    let img = JpegDecoder::new().decode(bytes).unwrap();
    let img = match target {
        Some((w, h)) => resize(&img, w, h, ResizeFilter::Bilinear).unwrap(),
        None => img,
    };
    match color {
        ColorSpace::Rgb => img.to_rgb(),
        ColorSpace::Gray => img.to_gray(),
    }
}

fn psnr(a: &[u8], b: &[u8]) -> f64 {
    let mse: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_io_roundtrips(values in prop::collection::vec((0u32..=0xFFFF, 1u32..=16), 1..200)) {
        let mut w = BitWriter::new();
        let normalized: Vec<(u32, u32)> = values
            .iter()
            .map(|&(v, l)| (v & ((1u32 << l) - 1), l))
            .collect();
        for &(v, l) in &normalized {
            w.put_bits(v, l);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, l) in &normalized {
            prop_assert_eq!(r.get_bits(l).unwrap(), v);
        }
    }

    #[test]
    fn magnitude_coding_roundtrips(v in -32767i32..=32767) {
        let ssss = magnitude_category(v);
        let bits = encode_magnitude(v, ssss);
        prop_assert_eq!(decode_magnitude(bits, ssss), v);
    }

    #[test]
    fn ycbcr_roundtrip_close(r in 0u8..=255, g in 0u8..=255, b in 0u8..=255) {
        let [y, cb, cr] = rgb_to_ycbcr(r, g, b);
        let [r2, g2, b2] = ycbcr_to_rgb(y, cb, cr);
        prop_assert!((r as i16 - r2 as i16).abs() <= 2);
        prop_assert!((g as i16 - g2 as i16).abs() <= 2);
        prop_assert!((b as i16 - b2 as i16).abs() <= 2);
    }

    #[test]
    fn huffman_roundtrip_on_random_tables(
        lens in prop::collection::vec(2u8..=8, 4..16),
        seed in any::<u64>()
    ) {
        // Build a valid canonical table from random code lengths using the
        // Kraft inequality: assign as many codes per length as fit.
        let mut counts = [0u8; 16];
        let mut budget = 1.0f64;
        let mut symbols = Vec::new();
        let mut next_sym = 0u8;
        for &l in &lens {
            let cost = 0.5f64.powi(l as i32);
            if budget - cost > 1e-12 && counts[l as usize - 1] < 255 && symbols.len() < 255 {
                counts[l as usize - 1] += 1;
                symbols.push(next_sym);
                next_sym = next_sym.wrapping_add(1);
                budget -= cost;
            }
        }
        prop_assume!(!symbols.is_empty());
        // Canonical construction requires symbols sorted by length: re-sort.
        let mut by_len: Vec<(u8, u8)> = Vec::new();
        let mut k = 0;
        for l in 1..=16u8 {
            for _ in 0..counts[l as usize - 1] {
                by_len.push((l, symbols[k]));
                k += 1;
            }
        }
        by_len.sort_by_key(|&(l, _)| l);
        let sorted_symbols: Vec<u8> = by_len.iter().map(|&(_, s)| s).collect();
        let table = HuffTable::new(counts, &sorted_symbols).unwrap();

        // Encode a pseudo-random symbol sequence and decode it back.
        let mut rngstate = seed | 1;
        let seq: Vec<u8> = (0..100)
            .map(|_| {
                rngstate = rngstate.wrapping_mul(6364136223846793005).wrapping_add(1);
                sorted_symbols[(rngstate >> 33) as usize % sorted_symbols.len()]
            })
            .collect();
        let mut w = BitWriter::new();
        for &s in &seq {
            table.encode(&mut w, s).unwrap();
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &seq {
            prop_assert_eq!(table.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn jpeg_roundtrip_any_dims(
        w in 1u32..=80,
        h in 1u32..=80,
        quality in 60u8..=95,
        seed in any::<u64>(),
    ) {
        let img = generate(w, h, SynthStyle::Smooth, seed);
        let bytes = JpegEncoder::new(quality).unwrap().encode(&img).unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        prop_assert_eq!(out.width(), w);
        prop_assert_eq!(out.height(), h);
        prop_assert_eq!(out.color(), ColorSpace::Rgb);
        // Smooth content at q>=60 must be recognisable.
        let p = psnr(img.data(), out.data());
        prop_assert!(p > 20.0, "PSNR {} for {}x{} q{}", p, w, h, quality);
    }

    #[test]
    fn jpeg_restart_framing_is_pixel_invariant(
        w in 16u32..=64,
        h in 16u32..=64,
        interval in 1u16..=8,
        seed in any::<u64>(),
    ) {
        let img = generate(w, h, SynthStyle::Photo, seed);
        let enc = JpegEncoder::new(85).unwrap();
        let plain = enc.encode(&img).unwrap();
        let framed = enc.clone().with_restart_interval(interval).encode(&img).unwrap();
        let dec = JpegDecoder::new();
        let a = dec.decode(&plain).unwrap();
        let b = dec.decode(&framed).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn jpeg_444_roundtrip(w in 1u32..=48, h in 1u32..=48, seed in any::<u64>()) {
        let img = generate(w, h, SynthStyle::Smooth, seed);
        let bytes = JpegEncoder::new(90)
            .unwrap()
            .with_mode(ChromaMode::Yuv444)
            .encode(&img)
            .unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        prop_assert_eq!((out.width(), out.height()), (w, h));
    }

    #[test]
    fn resize_output_dims_always_match(
        sw in 1u32..=64, sh in 1u32..=64,
        dw in 1u32..=64, dh in 1u32..=64,
        filter in prop::sample::select(vec![
            ResizeFilter::Nearest,
            ResizeFilter::Bilinear,
            ResizeFilter::Area,
        ]),
        seed in any::<u64>(),
    ) {
        let img = generate(sw, sh, SynthStyle::Photo, seed);
        let out = resize(&img, dw, dh, filter).unwrap();
        prop_assert_eq!((out.width(), out.height()), (dw, dh));
        prop_assert_eq!(out.color(), img.color());
    }

    #[test]
    fn resize_respects_value_range(
        seed in any::<u64>(),
        dw in 1u32..=32,
        dh in 1u32..=32,
    ) {
        // All filters must interpolate within the source min/max per channel.
        let img = generate(24, 24, SynthStyle::Photo, seed);
        let lo = *img.data().iter().min().unwrap();
        let hi = *img.data().iter().max().unwrap();
        for f in [ResizeFilter::Nearest, ResizeFilter::Area] {
            let out = resize(&img, dw, dh, f).unwrap();
            for &v in out.data() {
                prop_assert!(v >= lo && v <= hi, "{:?}: {} outside [{}, {}]", f, v, lo, hi);
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_mutations(
        seed in any::<u64>(),
        flips in prop::collection::vec((0usize..4096, 0u8..=255), 1..20),
    ) {
        let img = generate(32, 32, SynthStyle::Photo, seed);
        let mut bytes = JpegEncoder::new(80).unwrap().encode(&img).unwrap();
        for &(pos, val) in &flips {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        // Must return (Ok or Err) without panicking.
        let _ = JpegDecoder::new().decode(&bytes);
    }

    #[test]
    fn gray_jpeg_roundtrip(w in 8u32..=40, h in 8u32..=40, seed in any::<u64>()) {
        let img = generate(w, h, SynthStyle::Digit, seed);
        let bytes = JpegEncoder::new(90).unwrap().encode(&img).unwrap();
        let out = JpegDecoder::new().decode(&bytes).unwrap();
        prop_assert_eq!(out.color(), ColorSpace::Gray);
        prop_assert_eq!((out.width(), out.height()), (w, h));
    }

    #[test]
    fn simd_and_scalar_decode_bit_exact(
        w in 9u32..=80,
        h in 9u32..=80,
        quality in 60u8..=95,
        mode in prop::sample::select(vec![
            ChromaMode::Yuv444,
            ChromaMode::Yuv422,
            ChromaMode::Yuv420,
        ]),
        seed in any::<u64>(),
    ) {
        // The decode pipeline (iDCT, upsample, colour convert) must produce
        // identical bytes with the AVX2 kernels and the scalar fallback, on
        // every subsampling mode. On hosts without AVX2 both runs take the
        // scalar path and the test degenerates to determinism.
        let img = generate(w, h, SynthStyle::Photo, seed);
        let bytes = JpegEncoder::new(quality)
            .unwrap()
            .with_mode(mode)
            .encode(&img)
            .unwrap();
        let dec = JpegDecoder::new();
        let _guard = SIMD_MODE_LOCK.lock().unwrap();
        force_scalar(false);
        let native = dec.decode(&bytes).unwrap();
        force_scalar(true);
        let scalar = dec.decode(&bytes);
        force_scalar(false);
        let scalar = scalar.unwrap();
        prop_assert_eq!(native.data(), scalar.data());
    }

    #[test]
    fn simd_and_scalar_resize_bit_exact(
        sw in 2u32..=64, sh in 2u32..=64,
        dw in 1u32..=64, dh in 1u32..=64,
        seed in any::<u64>(),
    ) {
        let img = generate(sw, sh, SynthStyle::Photo, seed);
        let _guard = SIMD_MODE_LOCK.lock().unwrap();
        force_scalar(false);
        let native = resize(&img, dw, dh, ResizeFilter::Bilinear).unwrap();
        force_scalar(true);
        let scalar = resize(&img, dw, dh, ResizeFilter::Bilinear);
        force_scalar(false);
        let scalar = scalar.unwrap();
        prop_assert_eq!(native.data(), scalar.data());
    }

    #[test]
    fn fast_and_reference_entropy_bit_exact_any_stream(
        w in 9u32..=80,
        h in 9u32..=80,
        interval in prop::sample::select(vec![0u16, 1, 5]),
        mode in prop::sample::select(vec![
            ChromaMode::Yuv444,
            ChromaMode::Yuv422,
            ChromaMode::Yuv420,
        ]),
        seed in any::<u64>(),
    ) {
        // The reservoir/LUT Huffman decoder against the bit-at-a-time
        // reference: identical pixels and work counters (entropy_bits is a
        // reader-position artefact and is excluded).
        let img = generate(w, h, SynthStyle::Photo, seed);
        let bytes = JpegEncoder::new(85)
            .unwrap()
            .with_mode(mode)
            .with_restart_interval(interval)
            .encode(&img)
            .unwrap();
        let (a, sa) = JpegDecoder::new().decode_with_stats(&bytes).unwrap();
        let (b, sb) = JpegDecoder::new()
            .with_reference_entropy(true)
            .decode_with_stats(&bytes)
            .unwrap();
        prop_assert_eq!(a.data(), b.data());
        prop_assert_eq!(
            (sa.mcus, sa.blocks, sa.nonzero_coeffs, sa.restart_segments),
            (sb.mcus, sb.blocks, sb.nonzero_coeffs, sb.restart_segments)
        );
    }

    #[test]
    fn fast_and_reference_entropy_agree_on_malformed_streams(
        flips in prop::collection::vec((0usize..4096, 0u8..=255), 0..12),
        bit_flips in prop::collection::vec((0usize..4096, 0u8..8), 0..4),
        // Half the draws leave the length alone.
        cut in 0usize..8192,
        interval in prop::sample::select(vec![0u16, 3]),
        seed in any::<u64>(),
    ) {
        // Overwritten bytes, flipped bits and truncation: the fused-table
        // decoder and the bit-at-a-time reference must agree on
        // success/failure, on the pixels and work counters when both
        // succeed, and on the error (same variant, same detail) when both
        // fail — and neither may panic.
        let img = generate(48, 48, SynthStyle::Photo, seed);
        let mut bytes = JpegEncoder::new(80)
            .unwrap()
            .with_restart_interval(interval)
            .encode(&img)
            .unwrap();
        for &(pos, val) in &flips {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        for &(pos, bit) in &bit_flips {
            let idx = pos % bytes.len();
            bytes[idx] ^= 1 << bit;
        }
        if cut < 4096 {
            bytes.truncate(cut % bytes.len());
        }
        let fast = JpegDecoder::new().decode_with_stats(&bytes);
        let reference = JpegDecoder::new()
            .with_reference_entropy(true)
            .decode_with_stats(&bytes);
        match (fast, reference) {
            (Ok((a, sa)), Ok((b, sb))) => {
                prop_assert_eq!(a.data(), b.data());
                prop_assert_eq!(
                    (sa.mcus, sa.blocks, sa.nonzero_coeffs, sa.restart_segments),
                    (sb.mcus, sb.blocks, sb.nonzero_coeffs, sb.restart_segments)
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "entropy decoder disagreement: fast {:?} reference {:?}",
                a.map(|_| ()),
                b.map(|_| ())
            ),
        }
    }

    #[test]
    fn kernel_matches_decode_resize_convert(
        cases in prop::collection::vec(kernel_case(), 1..5),
    ) {
        // One scratch across differently sized images, sources and output
        // layouts, in whatever order the strategy drew them, with the SIMD
        // kernels and with the scalar fallback: every delivery must equal
        // the chained one-image API byte for byte, and report its geometry
        // and work counters.
        let _guard = SIMD_MODE_LOCK.lock().unwrap();
        let dec = JpegDecoder::new();
        for scalar in [false, true] {
            force_scalar(scalar);
            let mut scratch = DecodeScratch::new();
            for case in &cases {
                let bytes = case.jpeg();
                let want = decode_resize_convert(&bytes, case.target(), case.color);
                // A window longer than needed: the tail must stay untouched.
                let mut out = vec![0xA5u8; want.byte_len() + 7];
                let got = dec.decode_into(&bytes, &mut scratch, case.target(), case.color, &mut out);
                force_scalar(false);
                let got = got.unwrap();
                force_scalar(scalar);
                prop_assert_eq!((got.width, got.height), (want.width(), want.height()));
                prop_assert_eq!(got.bytes, want.byte_len());
                prop_assert!(&out[..got.bytes] == want.data(), "{:?} scalar={}", case, scalar);
                prop_assert!(out[got.bytes..].iter().all(|&b| b == 0xA5));
                let (_, stats) = dec.decode_with_stats(&bytes).unwrap();
                prop_assert_eq!(got.stats.work(), stats.work());
            }
        }
        force_scalar(false);
    }

    #[test]
    fn kernel_with_reference_entropy_and_timing_is_bit_exact(case in kernel_case()) {
        // The switches change how, never what.
        let bytes = case.jpeg();
        let want = decode_resize_convert(&bytes, case.target(), case.color);
        let mut scratch = DecodeScratch::new();
        for dec in [
            JpegDecoder::new().with_reference_entropy(true),
            JpegDecoder::new().with_stage_timing(true),
        ] {
            let mut out = vec![0u8; want.byte_len()];
            let got = dec
                .decode_into(&bytes, &mut scratch, case.target(), case.color, &mut out)
                .unwrap();
            prop_assert_eq!(got.bytes, want.byte_len());
            prop_assert!(out == want.data(), "{:?}", case);
        }
    }

    #[test]
    fn kernel_refuses_a_short_window_and_bad_targets(case in kernel_case()) {
        let bytes = case.jpeg();
        let mut scratch = DecodeScratch::new();
        let dec = JpegDecoder::new();
        let need = decode_resize_convert(&bytes, case.target(), case.color).byte_len();
        let mut short = vec![0u8; need - 1];
        let err = dec
            .decode_into(&bytes, &mut scratch, case.target(), case.color, &mut short)
            .unwrap_err();
        prop_assert!(matches!(err, CodecError::InvalidArgument { .. }), "{}", err);
        prop_assert!(short.iter().all(|&b| b == 0), "refused before any row is written");
        let mut out = vec![0u8; need];
        for target in [(0, 5), (5, 0)] {
            let err = dec
                .decode_into(&bytes, &mut scratch, Some(target), case.color, &mut out)
                .unwrap_err();
            prop_assert!(matches!(err, CodecError::UnsupportedDimensions { .. }), "{}", err);
        }
        // The scratch is still good.
        dec.decode_into(&bytes, &mut scratch, case.target(), case.color, &mut out).unwrap();
    }
}

/// Serialises tests that flip the global SIMD dispatch mode. Flips are
/// harmless to concurrent decodes (SIMD and scalar outputs are bit-exact);
/// the lock only keeps the comparing tests from racing each other.
static SIMD_MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn force_scalar_env_override_disables_simd() {
    let _guard = SIMD_MODE_LOCK.lock().unwrap();
    std::env::set_var("DLB_CODEC_FORCE_SCALAR", "1");
    force_scalar(false); // re-run detection with the env var set
    assert!(!simd_active());
    std::env::remove_var("DLB_CODEC_FORCE_SCALAR");
    force_scalar(false);
    // Whatever detection now reports, a decode must still work.
    let img = generate(24, 24, SynthStyle::Photo, 7);
    let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
    JpegDecoder::new().decode(&bytes).unwrap();
}

#[test]
fn stuffed_ff_bytes_near_restart_boundaries_decode_identically() {
    // Regression for the old per-boundary marker hunt, which scanned raw
    // bytes for `0xFF` and could stop inside stuffed entropy data. Search
    // seeds for encoded streams that actually contain a stuffed `FF 00`
    // immediately before a restart marker, then require the decode to be
    // bit-exact with the same image encoded without restart markers
    // (restart intervals change framing, not pixels).
    let plain = JpegEncoder::new(95).unwrap();
    let enc = plain.clone().with_restart_interval(1);
    let dec = JpegDecoder::new();
    let mut exercised = 0;
    for seed in 0..500u64 {
        let img = generate(32, 32, SynthStyle::Photo, seed);
        let bytes = enc.clone().encode(&img).unwrap();
        let stuffed_before_rst = bytes
            .windows(4)
            .any(|w| w[0] == 0xFF && w[1] == 0x00 && w[2] == 0xFF && (0xD0..=0xD7).contains(&w[3]));
        if !stuffed_before_rst {
            continue;
        }
        exercised += 1;
        let restarted = dec.decode(&bytes).unwrap();
        let unframed = dec.decode(&plain.clone().encode(&img).unwrap()).unwrap();
        assert_eq!(restarted.data(), unframed.data(), "seed {seed}");
        if exercised >= 8 {
            break;
        }
    }
    assert!(
        exercised > 0,
        "no seed produced FF00 stuffing adjacent to a restart marker"
    );
}

#[test]
fn image_equality_across_decode_calls() {
    // Decoding the same bytes twice must be bit-identical (determinism
    // property relied on by backend-equivalence integration tests).
    let img = generate(100, 75, SynthStyle::Photo, 99);
    let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
    let dec = JpegDecoder::new();
    let a = dec.decode(&bytes).unwrap();
    let b = dec.decode(&bytes).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        a.data(),
        Image::from_vec(100, 75, ColorSpace::Rgb, b.clone().into_vec())
            .unwrap()
            .data()
    );
}
