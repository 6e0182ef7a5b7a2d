//! Linear-chain sugar and the canned graphs `DlBooster::start` and
//! `CpuBackend::start` compile.
//!
//! Most pipelines are a straight line; [`Chain`] builds one without
//! explicit node handles. `fpga_training` / `fpga_streaming` /
//! `cpu_training` are the chains behind the plain constructors;
//! `tests/graph_equivalence.rs` checks what they deliver against
//! `decode` + `resize` + `to_rgb` of every source record.

use crate::graph::{GraphBuilder, GraphError, NodeId, PipelineGraph};
use crate::stage::{DecodeDevice, SourceKind, StageSpec};

/// Builds a linear pipeline: each pushed stage is connected to the
/// previous one. Finish with [`Chain::build`].
#[derive(Debug, Default, Clone)]
pub struct Chain {
    builder: GraphBuilder,
    tail: Option<NodeId>,
}

impl Chain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage, connecting it to the previous tail.
    pub fn then(mut self, name: &str, spec: StageSpec) -> Self {
        let id = self.builder.add(name, spec);
        if let Some(prev) = self.tail {
            self.builder.connect(prev, id);
        }
        self.tail = Some(id);
        self
    }

    /// Sets the parallelism of the most recently appended stage.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        if let Some(id) = self.tail {
            self.builder.set_parallelism(id, parallelism);
        }
        self
    }

    /// Sets the downstream queue depth of the most recently appended stage.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        if let Some(id) = self.tail {
            self.builder.set_queue_depth(id, depth);
        }
        self
    }

    /// Validates and returns the graph.
    pub fn build(self) -> Result<PipelineGraph, GraphError> {
        self.builder.build()
    }
}

/// The canned FPGA training pipeline: the chain `DlBooster::start` has
/// always wired — disk manifest, FPGA decode with on-device resize,
/// per-engine slot queues.
pub fn fpga_training(target_w: u32, target_h: u32) -> PipelineGraph {
    Chain::new()
        .then(
            "manifest",
            StageSpec::Source {
                kind: SourceKind::Disk,
            },
        )
        .then(
            "fpga-decode",
            StageSpec::Decode {
                device: DecodeDevice::Fpga,
            },
        )
        .then(
            "resize",
            StageSpec::Resize {
                width: target_w,
                height: target_h,
            },
        )
        .then("dispatch", StageSpec::Sink)
        .build()
        .expect("canned graph is well-formed by construction")
}

/// The canned FPGA served/streaming pipeline: identical transform chain,
/// NIC-fed source (no epochs; arrival deadlines instead).
pub fn fpga_streaming(target_w: u32, target_h: u32) -> PipelineGraph {
    Chain::new()
        .then(
            "nic-rx",
            StageSpec::Source {
                kind: SourceKind::Net,
            },
        )
        .then(
            "fpga-decode",
            StageSpec::Decode {
                device: DecodeDevice::Fpga,
            },
        )
        .then(
            "resize",
            StageSpec::Resize {
                width: target_w,
                height: target_h,
            },
        )
        .then("dispatch", StageSpec::Sink)
        .build()
        .expect("canned graph is well-formed by construction")
}

/// The canned CPU baseline pipeline: the chain `CpuBackend::start` has
/// always wired — disk manifest, host worker pool decoding and resizing.
pub fn cpu_training(target_w: u32, target_h: u32, workers: usize) -> PipelineGraph {
    Chain::new()
        .then(
            "manifest",
            StageSpec::Source {
                kind: SourceKind::Disk,
            },
        )
        .then(
            "cpu-decode",
            StageSpec::Decode {
                device: DecodeDevice::Cpu,
            },
        )
        .parallelism(workers.max(1))
        .then(
            "resize",
            StageSpec::Resize {
                width: target_w,
                height: target_h,
            },
        )
        .then("dispatch", StageSpec::Sink)
        .build()
        .expect("canned graph is well-formed by construction")
}

/// A canned *augmented* training pipeline: fused decode-resize followed by
/// the classic crop/flip/normalize tail. `decode` picks the substrate.
pub fn augmented_training(
    decode: DecodeDevice,
    resize: (u32, u32),
    crop: (u32, u32),
    flip_prob: f32,
    normalize: Option<([f32; 3], [f32; 3])>,
    workers: usize,
) -> Result<PipelineGraph, GraphError> {
    let mut c = Chain::new()
        .then(
            "manifest",
            StageSpec::Source {
                kind: SourceKind::Disk,
            },
        )
        .then("decode", StageSpec::Decode { device: decode })
        .parallelism(workers.max(1))
        .then(
            "resize",
            StageSpec::Resize {
                width: resize.0,
                height: resize.1,
            },
        )
        .then(
            "random-crop",
            StageSpec::RandomCrop {
                width: crop.0,
                height: crop.1,
            },
        )
        .then("random-flip", StageSpec::RandomFlip { prob: flip_prob });
    if let Some((mean, scale)) = normalize {
        c = c.then("normalize", StageSpec::Normalize { mean, scale });
    }
    c.then("dispatch", StageSpec::Sink).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use crate::stage::DataKind;

    #[test]
    fn canned_graphs_validate_and_compile() {
        for g in [
            fpga_training(40, 40),
            fpga_streaming(32, 32),
            cpu_training(40, 40, 4),
        ] {
            let c = g.compile(&GraphConfig::default()).unwrap();
            assert!(c.plan.ops.is_empty(), "legacy chains have no augmentation");
            assert_eq!(c.output.kind, DataKind::DecodedImage);
        }
    }

    #[test]
    fn cpu_parallelism_flows_through() {
        let c = cpu_training(40, 40, 6)
            .compile(&GraphConfig::default())
            .unwrap();
        assert_eq!(c.decode_parallelism, 6);
    }

    #[test]
    fn augmented_chain_compiles_with_tensor_output() {
        let g = augmented_training(
            DecodeDevice::Cpu,
            (48, 48),
            (32, 32),
            0.5,
            Some(([127.5; 3], [127.5; 3])),
            2,
        )
        .unwrap();
        let c = g.compile(&GraphConfig::default()).unwrap();
        assert_eq!(c.output.kind, DataKind::Tensor);
        assert_eq!(c.output.bytes_per_item(), 32 * 32 * 3 * 4);
        assert_eq!(c.plan.ops.len(), 3);
        // Unit must hold the larger of decoded (48*48*3) and output bytes.
        assert_eq!(c.unit_bytes(), c.batch_size * 32 * 32 * 3 * 4);
    }

    #[test]
    fn oversized_crop_rejected_at_compile() {
        let g = augmented_training(DecodeDevice::Cpu, (32, 32), (64, 64), 0.0, None, 1).unwrap();
        match g.compile(&GraphConfig::default()) {
            Err(GraphError::CropLargerThanInput { input, crop, .. }) => {
                assert_eq!(input, (32, 32));
                assert_eq!(crop, (64, 64));
            }
            other => panic!("expected CropLargerThanInput, got {other:?}"),
        }
    }
}
