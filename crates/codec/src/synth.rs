//! Deterministic synthetic image generation.
//!
//! The paper evaluates on ILSVRC2012 (avg ≈ 500×375 colour JPEGs) and MNIST
//! (28×28 grayscale). Neither dataset ships with this repository, so
//! `dlb-storage` synthesises look-alikes: images with photographic-ish
//! spectral content (smooth gradients + textured regions + edges) so that
//! JPEG compression ratios, entropy-bit counts and decode costs land in the
//! same regime as real photos.

use crate::pixel::{clamp_u8, ColorSpace, Image};

/// Style of synthetic content to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthStyle {
    /// Smooth low-frequency gradients — compresses heavily.
    Smooth,
    /// Photographic mix: gradients, a few shapes, mild noise. The default
    /// ILSVRC-like content.
    Photo,
    /// High-frequency noise — worst case for entropy coding.
    Noisy,
    /// Handwritten-digit-like blobs on dark background (MNIST-like).
    Digit,
}

/// Deterministic xorshift64* generator (no external RNG needed here; the
/// dataset builders seed one generator per image id for reproducibility).
#[derive(Debug, Clone)]
pub struct SynthRng(u64);

impl SynthRng {
    /// Creates a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        Self(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in [0, 1).
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in [0, bound).
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        (self.next_u64() % bound as u64) as u32
    }
}

/// Generates one synthetic image deterministically from `seed`.
pub fn generate(width: u32, height: u32, style: SynthStyle, seed: u64) -> Image {
    match style {
        SynthStyle::Digit => generate_digit(width, height, seed),
        _ => generate_color(width, height, style, seed),
    }
}

fn generate_color(width: u32, height: u32, style: SynthStyle, seed: u64) -> Image {
    let mut rng = SynthRng::new(seed);
    let mut img = Image::new(width, height, ColorSpace::Rgb).expect("valid dims");

    // Base gradient parameters.
    let base = [
        rng.next_below(200) as f32 + 20.0,
        rng.next_below(200) as f32 + 20.0,
        rng.next_below(200) as f32 + 20.0,
    ];
    let gx = [
        rng.next_f32() - 0.5,
        rng.next_f32() - 0.5,
        rng.next_f32() - 0.5,
    ];
    let gy = [
        rng.next_f32() - 0.5,
        rng.next_f32() - 0.5,
        rng.next_f32() - 0.5,
    ];
    let freq = 0.02 + rng.next_f32() * 0.08;
    let noise_amp: f32 = match style {
        SynthStyle::Smooth => 0.0,
        SynthStyle::Photo => 24.0,
        SynthStyle::Noisy => 64.0,
        SynthStyle::Digit => unreachable!(),
    };

    // A few random rectangles ("objects") for Photo style.
    let nrects = if style == SynthStyle::Photo {
        6 + rng.next_below(6)
    } else {
        0
    };
    let rects: Vec<(u32, u32, u32, u32, [f32; 3])> = (0..nrects)
        .map(|_| {
            let x = rng.next_below(width);
            let y = rng.next_below(height);
            let w = 1 + rng.next_below(width / 2 + 1);
            let h = 1 + rng.next_below(height / 2 + 1);
            let col = [
                rng.next_below(256) as f32,
                rng.next_below(256) as f32,
                rng.next_below(256) as f32,
            ];
            (x, y, w, h, col)
        })
        .collect();

    for y in 0..height {
        for x in 0..width {
            let mut px = [0f32; 3];
            for ch in 0..3 {
                let mut v = base[ch]
                    + gx[ch] * x as f32 * 0.5
                    + gy[ch] * y as f32 * 0.5
                    + 30.0 * ((x as f32 * freq).sin() * (y as f32 * freq * 0.7).cos());
                for &(rx, ry, rw, rh, col) in &rects {
                    if x >= rx && x < rx.saturating_add(rw) && y >= ry && y < ry.saturating_add(rh)
                    {
                        v = 0.6 * v + 0.4 * col[ch];
                    }
                }
                if noise_amp > 0.0 {
                    v += (SynthRng::new(
                        seed ^ ((y as u64) << 32) ^ (x as u64) ^ ((ch as u64) << 60),
                    )
                    .next_f32()
                        - 0.5)
                        * noise_amp;
                }
                px[ch] = v;
            }
            img.set_pixel(x, y, [clamp_u8(px[0]), clamp_u8(px[1]), clamp_u8(px[2])]);
        }
    }
    img
}

fn generate_digit(width: u32, height: u32, seed: u64) -> Image {
    let mut rng = SynthRng::new(seed);
    let mut img = Image::new(width, height, ColorSpace::Gray).expect("valid dims");
    // A handful of bright strokes modelled as thick line segments.
    let strokes = 2 + rng.next_below(3);
    let mut segs = Vec::new();
    for _ in 0..strokes {
        let x0 = rng.next_below(width) as f32;
        let y0 = rng.next_below(height) as f32;
        let x1 = rng.next_below(width) as f32;
        let y1 = rng.next_below(height) as f32;
        let thick = 1.0 + rng.next_f32() * (width.min(height) as f32 / 8.0);
        segs.push((x0, y0, x1, y1, thick));
    }
    for y in 0..height {
        for x in 0..width {
            let mut v = 0f32;
            for &(x0, y0, x1, y1, thick) in &segs {
                let d = point_segment_dist(x as f32, y as f32, x0, y0, x1, y1);
                if d < thick {
                    v = v.max(255.0 * (1.0 - d / thick).powf(0.5));
                }
            }
            img.set_pixel(x, y, [clamp_u8(v), 0, 0]);
        }
    }
    img
}

fn point_segment_dist(px: f32, py: f32, x0: f32, y0: f32, x1: f32, y1: f32) -> f32 {
    let dx = x1 - x0;
    let dy = y1 - y0;
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((px - x0) * dx + (py - y0) * dy) / len2).clamp(0.0, 1.0)
    };
    let cx = x0 + t * dx;
    let cy = y0 + t * dy;
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::encoder::JpegEncoder;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(64, 48, SynthStyle::Photo, 42);
        let b = generate(64, 48, SynthStyle::Photo, 42);
        assert_eq!(a.data(), b.data());
        let c = generate(64, 48, SynthStyle::Photo, 43);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn digit_style_is_grayscale() {
        let img = generate(28, 28, SynthStyle::Digit, 7);
        assert_eq!(img.color(), ColorSpace::Gray);
        // Strokes produce some bright pixels, background stays dark.
        let bright = img.data().iter().filter(|&&v| v > 128).count();
        assert!(bright > 0, "no stroke pixels");
        assert!(bright < img.byte_len(), "no background");
    }

    #[test]
    fn color_styles_are_rgb() {
        for style in [SynthStyle::Smooth, SynthStyle::Photo, SynthStyle::Noisy] {
            let img = generate(32, 32, style, 1);
            assert_eq!(img.color(), ColorSpace::Rgb);
        }
    }

    #[test]
    fn compressed_sizes_order_by_style() {
        // Smooth < Photo < Noisy after JPEG encoding — the property that makes
        // the synthetic dataset a fair stand-in for real photographs.
        let enc = JpegEncoder::new(85).unwrap();
        let smooth = enc
            .encode(&generate(128, 96, SynthStyle::Smooth, 5))
            .unwrap();
        let photo = enc
            .encode(&generate(128, 96, SynthStyle::Photo, 5))
            .unwrap();
        let noisy = enc
            .encode(&generate(128, 96, SynthStyle::Noisy, 5))
            .unwrap();
        assert!(
            smooth.len() < photo.len() && photo.len() < noisy.len(),
            "sizes: smooth={} photo={} noisy={}",
            smooth.len(),
            photo.len(),
            noisy.len()
        );
    }

    #[test]
    fn rng_ranges() {
        let mut rng = SynthRng::new(123);
        for _ in 0..1000 {
            let f = rng.next_f32();
            assert!((0.0..1.0).contains(&f));
            assert!(rng.next_below(10) < 10);
        }
        // Zero seed must not freeze the generator.
        let mut z = SynthRng::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn photo_images_have_structure() {
        let img = generate(96, 96, SynthStyle::Photo, 11);
        // Variance should be non-trivial (not a constant image).
        let mean: f64 = img.data().iter().map(|&v| v as f64).sum::<f64>() / img.byte_len() as f64;
        let var: f64 = img
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / img.byte_len() as f64;
        assert!(var > 100.0, "variance {var}");
    }
}
