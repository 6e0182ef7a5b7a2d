//! Text preprocessing: whitespace tokenisation + hash-vocabulary
//! quantisation.
//!
//! Paper §2.1: "In languages learning workflows, text samples in different
//! languages are quantized to obtain the vectorized features." This module
//! is the functional kernel behind the `TextQuantize` mirror: UTF-8 text in,
//! fixed-length `u32` token-id vectors out.

use crate::error::{CodecError, CodecResult};

/// Quantisation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizeConfig {
    /// Hash-vocabulary size (ids are in `[2, vocab_size)`; 0 = PAD, 1 = UNK
    /// for empty tokens, which the hasher never emits).
    pub vocab_size: u32,
    /// Output sequence length (truncate/pad).
    pub seq_len: usize,
}

impl QuantizeConfig {
    /// A BERT-ish default.
    pub fn default_nlp() -> Self {
        Self {
            vocab_size: 30_000,
            seq_len: 128,
        }
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> CodecResult<()> {
        if self.vocab_size < 3 || self.seq_len == 0 {
            return Err(CodecError::InvalidArgument {
                detail: format!(
                    "vocab_size {} must be >= 3 and seq_len {} positive",
                    self.vocab_size, self.seq_len
                ),
            });
        }
        Ok(())
    }
}

/// FNV-1a, the classic tiny hardware-friendly string hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Tokenises on whitespace, lowercases ASCII, hashes each token into the
/// vocabulary, truncates/pads to `seq_len`. Returns exactly `seq_len` ids.
pub fn quantize(text: &str, config: &QuantizeConfig) -> CodecResult<Vec<u32>> {
    config.validate()?;
    let mut ids = Vec::with_capacity(config.seq_len);
    for token in text.split_whitespace() {
        if ids.len() == config.seq_len {
            break;
        }
        let lowered: Vec<u8> = token.bytes().map(|b| b.to_ascii_lowercase()).collect();
        let id = 2 + (fnv1a(&lowered) % (config.vocab_size as u64 - 2)) as u32;
        ids.push(id);
    }
    ids.resize(config.seq_len, 0); // PAD
    Ok(ids)
}

/// Serialises token ids to little-endian bytes (the DMA payload).
pub fn ids_to_le_bytes(ids: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() * 4);
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// Deterministic synthetic text (word-salad over a small base vocabulary).
pub fn synth_text(n_words: usize, seed: u64) -> String {
    const WORDS: [&str; 24] = [
        "deep", "learning", "pipeline", "decode", "image", "batch", "tensor", "model", "train",
        "infer", "fpga", "gpu", "queue", "memory", "stream", "kernel", "cloud", "data", "epoch",
        "layer", "weight", "label", "sample", "cache",
    ];
    let mut state = seed | 1;
    let mut out = String::new();
    for i in 0..n_words {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[(state % WORDS.len() as u64) as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_shape_and_padding() {
        let c = QuantizeConfig {
            vocab_size: 1000,
            seq_len: 8,
        };
        let ids = quantize("hello world", &c).unwrap();
        assert_eq!(ids.len(), 8);
        assert!(ids[0] >= 2 && ids[0] < 1000);
        assert!(ids[1] >= 2 && ids[1] < 1000);
        assert!(ids[2..].iter().all(|&i| i == 0), "padding must be 0");
    }

    #[test]
    fn quantize_truncates() {
        let c = QuantizeConfig {
            vocab_size: 100,
            seq_len: 3,
        };
        let ids = quantize("a b c d e f", &c).unwrap();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&i| i >= 2));
    }

    #[test]
    fn quantize_is_case_insensitive_and_deterministic() {
        let c = QuantizeConfig::default_nlp();
        let a = quantize("Deep Learning", &c).unwrap();
        let b = quantize("deep learning", &c).unwrap();
        assert_eq!(a, b);
        let other = quantize("shallow learning", &c).unwrap();
        assert_ne!(a[0], other[0]);
        assert_eq!(a[1], other[1], "same word, same id");
    }

    #[test]
    fn ids_serialise_roundtrip() {
        let ids = vec![0u32, 2, 29_999, 12345];
        let bytes = ids_to_le_bytes(&ids);
        assert_eq!(bytes.len(), 16);
        let back: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(back, ids);
    }

    #[test]
    fn validation() {
        assert!(quantize(
            "x",
            &QuantizeConfig {
                vocab_size: 2,
                seq_len: 4
            }
        )
        .is_err());
        assert!(quantize(
            "x",
            &QuantizeConfig {
                vocab_size: 10,
                seq_len: 0
            }
        )
        .is_err());
    }

    #[test]
    fn synth_text_is_deterministic() {
        assert_eq!(synth_text(10, 3), synth_text(10, 3));
        assert_ne!(synth_text(10, 3), synth_text(10, 4));
        assert_eq!(synth_text(5, 1).split_whitespace().count(), 5);
    }
}
