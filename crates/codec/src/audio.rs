//! Audio preprocessing: framed DCT-II spectrogram extraction.
//!
//! Paper §2.1: "As for speech learning tasks, audio samples undergo a
//! discrete cosine transform to obtain the spectra data", and §3.1 promises
//! pluggable decoders for "speech models". This module is the functional
//! kernel behind the `AudioSpectrogram` mirror: 16-bit PCM in, log-magnitude
//! DCT coefficients out.

use crate::error::{CodecError, CodecResult};

/// Spectrogram extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectrogramConfig {
    /// Samples per analysis frame (power of two keeps the hardware simple).
    pub frame_size: usize,
    /// Hop between frame starts.
    pub hop: usize,
    /// DCT coefficients kept per frame.
    pub coefficients: usize,
}

impl SpectrogramConfig {
    /// A speech-recognition-ish default: 25 ms frames at 16 kHz with 10 ms
    /// hop, 40 coefficients.
    pub fn speech_16k() -> Self {
        Self {
            frame_size: 400,
            hop: 160,
            coefficients: 40,
        }
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> CodecResult<()> {
        if self.frame_size == 0 || self.hop == 0 || self.coefficients == 0 {
            return Err(CodecError::InvalidArgument {
                detail: "frame_size, hop and coefficients must be positive".into(),
            });
        }
        if self.coefficients > self.frame_size {
            return Err(CodecError::InvalidArgument {
                detail: format!(
                    "coefficients {} exceed frame size {}",
                    self.coefficients, self.frame_size
                ),
            });
        }
        Ok(())
    }

    /// Number of frames extracted from `n_samples`.
    pub fn frames(&self, n_samples: usize) -> usize {
        if n_samples < self.frame_size {
            return 0;
        }
        (n_samples - self.frame_size) / self.hop + 1
    }
}

/// Parses little-endian 16-bit PCM.
pub fn pcm_from_le_bytes(bytes: &[u8]) -> CodecResult<Vec<i16>> {
    if !bytes.len().is_multiple_of(2) {
        return Err(CodecError::MalformedSegment {
            detail: format!("PCM byte length {} is odd", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(2)
        .map(|c| i16::from_le_bytes([c[0], c[1]]))
        .collect())
}

/// Serialises PCM samples to little-endian bytes.
pub fn pcm_to_le_bytes(samples: &[i16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 2);
    for s in samples {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Extracts a log-magnitude DCT-II spectrogram: `frames × coefficients`
/// f32 values in row-major order.
pub fn spectrogram(samples: &[i16], config: &SpectrogramConfig) -> CodecResult<Vec<f32>> {
    config.validate()?;
    let n_frames = config.frames(samples.len());
    if n_frames == 0 {
        return Err(CodecError::InvalidArgument {
            detail: format!(
                "{} samples cannot fill one {}-sample frame",
                samples.len(),
                config.frame_size
            ),
        });
    }
    let n = config.frame_size;
    let mut out = Vec::with_capacity(n_frames * config.coefficients);
    // Hann window, precomputed.
    let window: Vec<f32> = (0..n)
        .map(|i| 0.5 - 0.5 * (2.0 * std::f32::consts::PI * i as f32 / (n as f32 - 1.0)).cos())
        .collect();
    // DCT-II basis rows for the kept coefficients.
    let mut windowed = vec![0f32; n];
    for f in 0..n_frames {
        let start = f * config.hop;
        for (i, w) in window.iter().enumerate() {
            windowed[i] = samples[start + i] as f32 / 32768.0 * w;
        }
        for k in 0..config.coefficients {
            let mut acc = 0f32;
            for (i, &x) in windowed.iter().enumerate() {
                acc += x * ((std::f32::consts::PI / n as f32) * (i as f32 + 0.5) * k as f32).cos();
            }
            // Log-magnitude with a floor, as speech front-ends do.
            out.push((acc.abs() + 1e-6).ln());
        }
    }
    Ok(out)
}

/// Deterministic synthetic speech-like PCM: a few harmonics with slow
/// amplitude modulation plus noise.
pub fn synth_pcm(n_samples: usize, seed: u64) -> Vec<i16> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let f0 = 80.0 + (rng() % 200) as f32; // fundamental 80–280 Hz
    let harmonics: Vec<(f32, f32)> = (1..=4).map(|h| (f0 * h as f32, 1.0 / h as f32)).collect();
    (0..n_samples)
        .map(|i| {
            let t = i as f32 / 16_000.0;
            let env = 0.5 + 0.5 * (2.0 * std::f32::consts::PI * 3.0 * t).sin();
            let mut v = 0f32;
            for &(f, a) in &harmonics {
                v += a * (2.0 * std::f32::consts::PI * f * t).sin();
            }
            let noise = ((rng() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.1;
            ((v * env * 0.4 + noise) * 20_000.0).clamp(-32768.0, 32767.0) as i16
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_roundtrip() {
        let samples: Vec<i16> = vec![0, 1, -1, 32767, -32768, 12345];
        let bytes = pcm_to_le_bytes(&samples);
        assert_eq!(pcm_from_le_bytes(&bytes).unwrap(), samples);
        assert!(pcm_from_le_bytes(&bytes[..3]).is_err());
    }

    #[test]
    fn frame_count_math() {
        let c = SpectrogramConfig::speech_16k();
        assert_eq!(c.frames(399), 0);
        assert_eq!(c.frames(400), 1);
        assert_eq!(c.frames(560), 2);
        assert_eq!(c.frames(16_000), (16_000 - 400) / 160 + 1);
    }

    #[test]
    fn spectrogram_shape_and_determinism() {
        let pcm = synth_pcm(16_000, 9);
        let c = SpectrogramConfig::speech_16k();
        let a = spectrogram(&pcm, &c).unwrap();
        let b = spectrogram(&pcm, &c).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), c.frames(16_000) * c.coefficients);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tonal_signal_concentrates_low_coefficients() {
        // A pure low-frequency tone puts more energy in low DCT bins than
        // white noise does, relatively.
        let c = SpectrogramConfig {
            frame_size: 256,
            hop: 128,
            coefficients: 64,
        };
        let tone: Vec<i16> = (0..4096)
            .map(|i| {
                ((2.0 * std::f32::consts::PI * 200.0 * i as f32 / 16_000.0).sin() * 16_000.0) as i16
            })
            .collect();
        let spec = spectrogram(&tone, &c).unwrap();
        // Average the first frame's low vs high halves (log domain).
        let lo: f32 = spec[..32].iter().sum::<f32>() / 32.0;
        let hi: f32 = spec[32..64].iter().sum::<f32>() / 32.0;
        assert!(lo > hi, "tonal energy must concentrate low: {lo} vs {hi}");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SpectrogramConfig::speech_16k();
        c.coefficients = 1000;
        assert!(spectrogram(&synth_pcm(1000, 1), &c).is_err());
        c = SpectrogramConfig {
            frame_size: 0,
            hop: 1,
            coefficients: 1,
        };
        assert!(c.validate().is_err());
        // Too few samples.
        assert!(spectrogram(&[0i16; 10], &SpectrogramConfig::speech_16k()).is_err());
    }

    #[test]
    fn synth_pcm_is_deterministic_and_nonsilent() {
        let a = synth_pcm(2000, 5);
        let b = synth_pcm(2000, 5);
        assert_eq!(a, b);
        assert_ne!(a, synth_pcm(2000, 6));
        let energy: f64 = a.iter().map(|&s| (s as f64).powi(2)).sum();
        assert!(energy > 1e6, "synthetic audio must carry signal");
    }
}
