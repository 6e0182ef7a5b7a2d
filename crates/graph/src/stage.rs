//! Stage and data-kind vocabulary of the pipeline graph.

use std::fmt;

/// The kind of datum flowing along an edge. Every stage declares what it
/// consumes and what it produces; [`crate::GraphBuilder::build`] rejects
/// edges whose kinds disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Compressed JPEG bytes (plus source metadata).
    EncodedJpeg,
    /// Decoded interleaved RGB8 pixels.
    DecodedImage,
    /// Planar CHW f32 tensor (stored little-endian in batch units).
    Tensor,
}

impl fmt::Display for DataKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataKind::EncodedJpeg => write!(f, "EncodedJpeg"),
            DataKind::DecodedImage => write!(f, "DecodedImage"),
            DataKind::Tensor => write!(f, "Tensor"),
        }
    }
}

/// Where the source stage draws compressed images from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Dataset manifest on the NVMe disk (training mode; epochs wrap).
    Disk,
    /// NIC RX descriptors / serving-layer stream (online mode).
    Net,
}

/// Which substrate executes the decode stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeDevice {
    /// Host worker threads running the from-scratch JPEG decoder.
    Cpu,
    /// The FPGA decoder mirror (the paper's offload path).
    Fpga,
}

/// What a stage does. The decode substrate fuses the first resize (the
/// FPGA decoder resizes on-device, §3.1, and the CPU path mirrors it for
/// bit-exactness), so a `Decode` node must be followed immediately by a
/// `Resize` node; everything after that resize down to the sink runs as
/// per-sample host transforms.
#[derive(Debug, Clone, PartialEq)]
pub enum StageSpec {
    /// Produces [`DataKind::EncodedJpeg`] items.
    Source {
        /// Backing medium.
        kind: SourceKind,
    },
    /// JPEG entropy decode + iDCT + colour conversion.
    Decode {
        /// Executing substrate.
        device: DecodeDevice,
    },
    /// Bilinear resize to a fixed geometry.
    Resize {
        /// Output width in pixels.
        width: u32,
        /// Output height in pixels.
        height: u32,
    },
    /// Seeded random crop (training augmentation).
    RandomCrop {
        /// Crop width in pixels.
        width: u32,
        /// Crop height in pixels.
        height: u32,
    },
    /// Seeded random horizontal flip (training augmentation).
    RandomFlip {
        /// Flip probability in `[0, 1]`.
        prob: f32,
    },
    /// Per-channel `(px - mean) / scale` into a planar CHW f32 tensor.
    Normalize {
        /// Per-channel mean.
        mean: [f32; 3],
        /// Per-channel scale (must be non-zero).
        scale: [f32; 3],
    },
    /// Consumes finished items (the per-engine slot queues).
    Sink,
}

impl StageSpec {
    /// What this stage emits, or `None` for the sink.
    pub(crate) fn output(&self) -> Option<DataKind> {
        match self {
            StageSpec::Source { .. } => Some(DataKind::EncodedJpeg),
            StageSpec::Decode { .. }
            | StageSpec::Resize { .. }
            | StageSpec::RandomCrop { .. }
            | StageSpec::RandomFlip { .. } => Some(DataKind::DecodedImage),
            StageSpec::Normalize { .. } => Some(DataKind::Tensor),
            StageSpec::Sink => None,
        }
    }

    /// Whether this stage can consume `upstream`. Sources consume nothing.
    pub(crate) fn accepts(&self, upstream: DataKind) -> bool {
        match self {
            StageSpec::Source { .. } => false,
            StageSpec::Decode { .. } => upstream == DataKind::EncodedJpeg,
            StageSpec::Resize { .. }
            | StageSpec::RandomCrop { .. }
            | StageSpec::RandomFlip { .. }
            | StageSpec::Normalize { .. } => upstream == DataKind::DecodedImage,
            StageSpec::Sink => matches!(upstream, DataKind::DecodedImage | DataKind::Tensor),
        }
    }

    /// Human-readable description of what this stage consumes, for
    /// [`crate::GraphError::TypeMismatch`] messages.
    pub(crate) fn expected_input(&self) -> &'static str {
        match self {
            StageSpec::Source { .. } => "nothing (sources have no input)",
            StageSpec::Decode { .. } => "EncodedJpeg",
            StageSpec::Resize { .. }
            | StageSpec::RandomCrop { .. }
            | StageSpec::RandomFlip { .. }
            | StageSpec::Normalize { .. } => "DecodedImage",
            StageSpec::Sink => "DecodedImage or Tensor",
        }
    }

    /// True for the two structural endpoints.
    pub(crate) fn is_source(&self) -> bool {
        matches!(self, StageSpec::Source { .. })
    }

    /// True for the sink.
    pub(crate) fn is_sink(&self) -> bool {
        matches!(self, StageSpec::Sink)
    }
}

/// A named stage plus its execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageNode {
    /// Unique stage name (diagnostics, telemetry labels).
    pub name: String,
    /// What the stage does.
    pub spec: StageSpec,
    /// Worker threads for this stage (`None` = substrate default). Only
    /// meaningful on `Decode` today; validated non-zero everywhere.
    pub parallelism: Option<usize>,
    /// Prefetch-queue depth *downstream* of this stage (`None` = substrate
    /// default: 64 after the source, 8 per sink slot queue).
    pub queue_depth: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_line_up_along_the_legacy_chain() {
        let src = StageSpec::Source {
            kind: SourceKind::Disk,
        };
        let dec = StageSpec::Decode {
            device: DecodeDevice::Fpga,
        };
        let rsz = StageSpec::Resize {
            width: 32,
            height: 32,
        };
        let sink = StageSpec::Sink;
        assert!(dec.accepts(src.output().unwrap()));
        assert!(rsz.accepts(dec.output().unwrap()));
        assert!(sink.accepts(rsz.output().unwrap()));
        assert!(
            !sink.accepts(src.output().unwrap()),
            "undecoded bytes cannot be served"
        );
    }

    #[test]
    fn normalize_produces_tensor() {
        let n = StageSpec::Normalize {
            mean: [0.0; 3],
            scale: [1.0; 3],
        };
        assert_eq!(n.output(), Some(DataKind::Tensor));
        let sink = StageSpec::Sink;
        assert!(sink.accepts(DataKind::Tensor));
    }
}
