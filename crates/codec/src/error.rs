//! Error types shared by every codec stage.

use std::fmt;

/// Errors produced while encoding, decoding or transforming images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended before a complete syntactic element was read.
    UnexpectedEof {
        /// What the parser was trying to read when the stream ended.
        context: &'static str,
    },
    /// A JFIF/JPEG marker was malformed or appeared out of order.
    InvalidMarker {
        /// The offending marker byte (the byte following `0xFF`).
        marker: u8,
        /// Parser context at the point of failure.
        context: &'static str,
    },
    /// A segment carried a structurally invalid payload.
    MalformedSegment {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A Huffman code was read that no table entry matches.
    InvalidHuffmanCode,
    /// The image dimensions are zero or exceed supported bounds.
    UnsupportedDimensions {
        /// Requested width in pixels.
        width: u32,
        /// Requested height in pixels.
        height: u32,
    },
    /// A feature outside the supported baseline subset was requested.
    Unsupported {
        /// Which feature was requested.
        feature: String,
    },
    /// An operation received arguments inconsistent with the image
    /// (e.g. a crop rectangle outside the bounds).
    InvalidArgument {
        /// Description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { context } => {
                write!(f, "unexpected end of stream while reading {context}")
            }
            CodecError::InvalidMarker { marker, context } => {
                write!(f, "invalid marker 0xFF{marker:02X} in {context}")
            }
            CodecError::MalformedSegment { detail } => {
                write!(f, "malformed segment: {detail}")
            }
            CodecError::InvalidHuffmanCode => write!(f, "invalid Huffman code in entropy stream"),
            CodecError::UnsupportedDimensions { width, height } => {
                write!(f, "unsupported image dimensions {width}x{height}")
            }
            CodecError::Unsupported { feature } => write!(f, "unsupported feature: {feature}"),
            CodecError::InvalidArgument { detail } => write!(f, "invalid argument: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias used across the codec.
pub(crate) type CodecResult<T> = Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<(CodecError, &str)> = vec![
            (
                CodecError::UnexpectedEof { context: "DHT" },
                "unexpected end of stream while reading DHT",
            ),
            (
                CodecError::InvalidMarker {
                    marker: 0xC2,
                    context: "frame header",
                },
                "invalid marker 0xFFC2 in frame header",
            ),
            (CodecError::InvalidHuffmanCode, "invalid Huffman code"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle}"
            );
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            CodecError::InvalidHuffmanCode,
            CodecError::InvalidHuffmanCode
        );
        assert_ne!(
            CodecError::UnexpectedEof { context: "a" },
            CodecError::UnexpectedEof { context: "b" }
        );
    }
}
