//! Graph construction, validation and compilation.
//!
//! A [`GraphBuilder`] collects named stages and edges; [`GraphBuilder::build`]
//! validates the structure (exactly one source and one sink, no cycles, no
//! orphans, no fan-in/fan-out, kinds agree along every edge) and returns a
//! [`PipelineGraph`]. [`PipelineGraph::compile`] is a *pure function* of
//! `(graph, config)`: it resolves geometry through the chain, sizes batch
//! units, extracts the augmentation plan, and yields the
//! [`CompiledPipeline`] the executors (DlBooster, CpuBackend) wire onto the
//! existing queue/pool/telemetry substrate.

use crate::augment::{AugmentOp, AugmentPlan, SampleAugmentor};
use crate::stage::{DataKind, DecodeDevice, SourceKind, StageNode, StageSpec};

/// Handle to a stage added to a [`GraphBuilder`]. Only valid for the
/// builder that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(pub(crate) usize);

/// Why a graph failed validation or compilation. Every rejection names the
/// offending stage so the error is actionable.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph has no stages.
    Empty,
    /// Two stages share a name.
    DuplicateStage {
        /// The repeated name.
        name: String,
    },
    /// An edge references a [`NodeId`] this builder never issued.
    UnknownStage {
        /// The out-of-range index.
        index: usize,
    },
    /// A stage connected to itself.
    SelfEdge {
        /// The stage.
        stage: String,
    },
    /// The same edge was added twice.
    DuplicateEdge {
        /// Producer stage.
        from: String,
        /// Consumer stage.
        to: String,
    },
    /// No `Source` stage.
    MissingSource,
    /// More than one `Source` stage.
    MultipleSources {
        /// All source stages.
        stages: Vec<String>,
    },
    /// No `Sink` stage.
    MissingSink,
    /// More than one `Sink` stage.
    MultipleSinks {
        /// All sink stages.
        stages: Vec<String>,
    },
    /// A stage feeds more than one consumer (unsupported on this substrate).
    FanOut {
        /// The branching stage.
        stage: String,
    },
    /// A stage has more than one producer.
    FanIn {
        /// The merging stage.
        stage: String,
    },
    /// A stage sits on a cycle.
    Cycle {
        /// One stage on the cycle.
        stage: String,
    },
    /// A stage is not on the source→sink chain.
    Orphan {
        /// The disconnected stage.
        stage: String,
    },
    /// An edge connects stages whose data kinds disagree.
    TypeMismatch {
        /// Producer stage.
        from: String,
        /// Consumer stage.
        to: String,
        /// What `from` produces.
        produced: DataKind,
        /// What `to` expects.
        expected: &'static str,
    },
    /// `parallelism` was explicitly set to zero.
    ZeroParallelism {
        /// The stage.
        stage: String,
    },
    /// `queue_depth` was explicitly set to zero.
    ZeroQueueDepth {
        /// The stage.
        stage: String,
    },
    /// A resize/crop dimension is zero.
    ZeroDimension {
        /// The stage.
        stage: String,
    },
    /// A flip probability outside `[0, 1]` (or NaN).
    BadProbability {
        /// The stage.
        stage: String,
    },
    /// A normalize scale component is zero.
    ZeroScale {
        /// The stage.
        stage: String,
    },
    /// The decode substrate fuses the first resize; `Decode` must feed a
    /// `Resize` directly.
    DecodeRequiresResize {
        /// The stage that followed decode instead.
        stage: String,
    },
    /// A crop larger than its (known) input geometry.
    CropLargerThanInput {
        /// The crop stage.
        stage: String,
        /// Upstream geometry.
        input: (u32, u32),
        /// Requested crop.
        crop: (u32, u32),
    },
    /// A config knob the substrate cannot honour.
    BadConfig {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no stages"),
            GraphError::DuplicateStage { name } => write!(f, "duplicate stage name {name:?}"),
            GraphError::UnknownStage { index } => {
                write!(f, "edge references unknown stage #{index}")
            }
            GraphError::SelfEdge { stage } => write!(f, "stage {stage:?} connects to itself"),
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "edge {from:?} -> {to:?} added twice")
            }
            GraphError::MissingSource => write!(f, "graph has no Source stage"),
            GraphError::MultipleSources { stages } => {
                write!(f, "graph has multiple Source stages: {stages:?}")
            }
            GraphError::MissingSink => write!(f, "graph has no Sink stage"),
            GraphError::MultipleSinks { stages } => {
                write!(f, "graph has multiple Sink stages: {stages:?}")
            }
            GraphError::FanOut { stage } => write!(f, "stage {stage:?} feeds multiple consumers"),
            GraphError::FanIn { stage } => write!(f, "stage {stage:?} has multiple producers"),
            GraphError::Cycle { stage } => write!(f, "stage {stage:?} sits on a cycle"),
            GraphError::Orphan { stage } => {
                write!(f, "stage {stage:?} is not on the source\u{2192}sink chain")
            }
            GraphError::TypeMismatch {
                from,
                to,
                produced,
                expected,
            } => write!(
                f,
                "edge {from:?} -> {to:?}: {from:?} produces {produced}, {to:?} expects {expected}"
            ),
            GraphError::ZeroParallelism { stage } => {
                write!(f, "stage {stage:?}: parallelism must be >= 1")
            }
            GraphError::ZeroQueueDepth { stage } => {
                write!(f, "stage {stage:?}: queue depth must be >= 1")
            }
            GraphError::ZeroDimension { stage } => {
                write!(f, "stage {stage:?}: dimensions must be >= 1")
            }
            GraphError::BadProbability { stage } => {
                write!(f, "stage {stage:?}: probability must be in [0, 1]")
            }
            GraphError::ZeroScale { stage } => {
                write!(f, "stage {stage:?}: normalize scale must be non-zero")
            }
            GraphError::DecodeRequiresResize { stage } => write!(
                f,
                "decode fuses the first resize on this substrate; expected a Resize \
                 stage directly after Decode, found {stage:?}"
            ),
            GraphError::CropLargerThanInput { stage, input, crop } => write!(
                f,
                "stage {stage:?}: crop {}x{} exceeds input geometry {}x{}",
                crop.0, crop.1, input.0, input.1
            ),
            GraphError::BadConfig { detail } => write!(f, "bad pipeline config: {detail}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Collects stages and edges; [`GraphBuilder::build`] validates.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    nodes: Vec<StageNode>,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stage with default knobs and returns its handle.
    pub fn add(&mut self, name: &str, spec: StageSpec) -> NodeId {
        self.nodes.push(StageNode {
            name: name.to_string(),
            spec,
            parallelism: None,
            queue_depth: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Sets a stage's worker parallelism (validated non-zero at build).
    pub fn set_parallelism(&mut self, id: NodeId, parallelism: usize) {
        self.nodes[id.0].parallelism = Some(parallelism);
    }

    /// Sets a stage's downstream prefetch-queue depth (validated non-zero
    /// at build).
    pub fn set_queue_depth(&mut self, id: NodeId, depth: usize) {
        self.nodes[id.0].queue_depth = Some(depth);
    }

    /// Connects `from`'s output to `to`'s input. Checked at build time.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from.0, to.0));
    }

    /// Validates and freezes the graph. See [`GraphError`] for everything
    /// that can be rejected; a returned graph is guaranteed to be one
    /// well-typed chain `Source -> ... -> Sink`.
    pub fn build(self) -> Result<PipelineGraph, GraphError> {
        let GraphBuilder { nodes, edges } = self;
        if nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        // Unique names.
        let mut seen = std::collections::HashSet::new();
        for n in &nodes {
            if !seen.insert(n.name.as_str()) {
                return Err(GraphError::DuplicateStage {
                    name: n.name.clone(),
                });
            }
        }
        // Per-stage knob and parameter sanity.
        for n in &nodes {
            if n.parallelism == Some(0) {
                return Err(GraphError::ZeroParallelism {
                    stage: n.name.clone(),
                });
            }
            if n.queue_depth == Some(0) {
                return Err(GraphError::ZeroQueueDepth {
                    stage: n.name.clone(),
                });
            }
            match &n.spec {
                StageSpec::Resize { width, height } | StageSpec::RandomCrop { width, height }
                    if *width == 0 || *height == 0 =>
                {
                    return Err(GraphError::ZeroDimension {
                        stage: n.name.clone(),
                    });
                }
                StageSpec::RandomFlip { prob } if !(0.0..=1.0).contains(prob) => {
                    return Err(GraphError::BadProbability {
                        stage: n.name.clone(),
                    });
                }
                StageSpec::Normalize { scale, .. }
                    if scale.iter().any(|s| *s == 0.0 || !s.is_finite()) =>
                {
                    return Err(GraphError::ZeroScale {
                        stage: n.name.clone(),
                    });
                }
                _ => {}
            }
        }
        // Edge structure.
        let mut edge_set = std::collections::HashSet::new();
        for &(a, b) in &edges {
            if a >= nodes.len() || b >= nodes.len() {
                return Err(GraphError::UnknownStage { index: a.max(b) });
            }
            if a == b {
                return Err(GraphError::SelfEdge {
                    stage: nodes[a].name.clone(),
                });
            }
            if !edge_set.insert((a, b)) {
                return Err(GraphError::DuplicateEdge {
                    from: nodes[a].name.clone(),
                    to: nodes[b].name.clone(),
                });
            }
        }
        // Exactly one source, one sink.
        let sources: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].spec.is_source())
            .collect();
        match sources.len() {
            0 => return Err(GraphError::MissingSource),
            1 => {}
            _ => {
                return Err(GraphError::MultipleSources {
                    stages: sources.iter().map(|&i| nodes[i].name.clone()).collect(),
                })
            }
        }
        let sinks: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].spec.is_sink())
            .collect();
        match sinks.len() {
            0 => return Err(GraphError::MissingSink),
            1 => {}
            _ => {
                return Err(GraphError::MultipleSinks {
                    stages: sinks.iter().map(|&i| nodes[i].name.clone()).collect(),
                })
            }
        }
        let source = sources[0];
        let sink = sinks[0];
        // Fan-in / fan-out.
        let mut out_deg = vec![0usize; nodes.len()];
        let mut in_deg = vec![0usize; nodes.len()];
        let mut succ = vec![None::<usize>; nodes.len()];
        let mut pred = vec![None::<usize>; nodes.len()];
        for &(a, b) in &edges {
            out_deg[a] += 1;
            in_deg[b] += 1;
            succ[a] = Some(b);
            pred[b] = Some(a);
        }
        if let Some(i) = (0..nodes.len()).find(|&i| out_deg[i] > 1) {
            return Err(GraphError::FanOut {
                stage: nodes[i].name.clone(),
            });
        }
        if let Some(i) = (0..nodes.len()).find(|&i| in_deg[i] > 1) {
            return Err(GraphError::FanIn {
                stage: nodes[i].name.clone(),
            });
        }
        // Kinds agree along every edge (checked before connectivity so an
        // ill-typed edge is reported as such even on a cyclic graph).
        for &(a, b) in &edges {
            let produced = nodes[a]
                .spec
                .output()
                .ok_or_else(|| GraphError::TypeMismatch {
                    from: nodes[a].name.clone(),
                    to: nodes[b].name.clone(),
                    produced: DataKind::Tensor, // sink produces nothing; placeholder
                    expected: nodes[b].spec.expected_input(),
                })?;
            if !nodes[b].spec.accepts(produced) {
                return Err(GraphError::TypeMismatch {
                    from: nodes[a].name.clone(),
                    to: nodes[b].name.clone(),
                    produced,
                    expected: nodes[b].spec.expected_input(),
                });
            }
        }
        // Walk the chain from the source. With fan-in/out <= 1 this either
        // reaches the sink or stops; cycles not containing the source are
        // caught below as orphans-with-predecessors.
        let mut chain = vec![source];
        let mut on_chain = vec![false; nodes.len()];
        on_chain[source] = true;
        let mut cur = source;
        while let Some(next) = succ[cur] {
            if on_chain[next] {
                return Err(GraphError::Cycle {
                    stage: nodes[next].name.clone(),
                });
            }
            on_chain[next] = true;
            chain.push(next);
            cur = next;
        }
        if cur != sink {
            // The chain dead-ended before the sink: `cur` has no successor.
            return Err(GraphError::Orphan {
                stage: nodes[sink].name.clone(),
            });
        }
        if let Some(i) = (0..nodes.len()).find(|&i| !on_chain[i]) {
            // Off-chain nodes: either a detached cycle or a dangling stage.
            let mut walk = i;
            let mut hops = 0;
            while let Some(p) = pred[walk] {
                if p == i || hops > nodes.len() {
                    return Err(GraphError::Cycle {
                        stage: nodes[i].name.clone(),
                    });
                }
                walk = p;
                hops += 1;
            }
            return Err(GraphError::Orphan {
                stage: nodes[i].name.clone(),
            });
        }
        Ok(PipelineGraph { nodes, chain })
    }
}

/// A validated pipeline graph: one well-typed `Source -> ... -> Sink`
/// chain. Obtain via [`GraphBuilder::build`]; compile with
/// [`PipelineGraph::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineGraph {
    nodes: Vec<StageNode>,
    /// Node indices in chain order (source first, sink last).
    chain: Vec<usize>,
}

impl PipelineGraph {
    /// Stage nodes in chain order.
    pub(crate) fn stages(&self) -> impl Iterator<Item = &StageNode> {
        self.chain.iter().map(|&i| &self.nodes[i])
    }

    /// Stage names in chain order.
    pub(crate) fn stage_names(&self) -> Vec<String> {
        self.stages().map(|n| n.name.clone()).collect()
    }

    /// Compiles the graph against `config`. Pure: identical inputs yield
    /// an identical [`CompiledPipeline`] (no clocks, no environment —
    /// `DLB_AUG_SEED` is resolved by the executor at start, not here).
    pub fn compile(&self, config: &GraphConfig) -> Result<CompiledPipeline, GraphError> {
        if config.batch_size == 0 {
            return Err(GraphError::BadConfig {
                detail: "batch_size must be >= 1".into(),
            });
        }
        if config.n_engines == 0 {
            return Err(GraphError::BadConfig {
                detail: "n_engines must be >= 1".into(),
            });
        }
        let stages: Vec<&StageNode> = self.stages().collect();
        let source_node = stages[0];
        let sink_node = stages[stages.len() - 1];
        let StageSpec::Source { kind: source } = source_node.spec else {
            unreachable!("validated graphs start at the source");
        };
        // Decode + fused resize.
        let decode_pos = stages
            .iter()
            .position(|n| matches!(n.spec, StageSpec::Decode { .. }))
            .ok_or(GraphError::BadConfig {
                detail: "no Decode stage on the chain".into(),
            })?;
        let StageSpec::Decode { device } = stages[decode_pos].spec else {
            unreachable!()
        };
        let after_decode = stages.get(decode_pos + 1).ok_or(GraphError::BadConfig {
            detail: "Decode cannot feed the sink directly".into(),
        })?;
        let StageSpec::Resize {
            width: rw,
            height: rh,
        } = after_decode.spec
        else {
            return Err(GraphError::DecodeRequiresResize {
                stage: after_decode.name.clone(),
            });
        };
        // Walk the transforms after the fused resize: accumulate the
        // augmentation plan and track geometry for crop validation.
        let mut ops = Vec::new();
        let mut geom = (rw, rh);
        let mut kind = DataKind::DecodedImage;
        for node in &stages[decode_pos + 2..stages.len() - 1] {
            match &node.spec {
                StageSpec::Resize { width, height } => {
                    ops.push(AugmentOp::Resize {
                        width: *width,
                        height: *height,
                    });
                    geom = (*width, *height);
                }
                StageSpec::RandomCrop { width, height } => {
                    if *width > geom.0 || *height > geom.1 {
                        return Err(GraphError::CropLargerThanInput {
                            stage: node.name.clone(),
                            input: geom,
                            crop: (*width, *height),
                        });
                    }
                    ops.push(AugmentOp::RandomCrop {
                        width: *width,
                        height: *height,
                    });
                    geom = (*width, *height);
                }
                StageSpec::RandomFlip { prob } => {
                    ops.push(AugmentOp::RandomFlip { prob: *prob });
                }
                StageSpec::Normalize { mean, scale } => {
                    ops.push(AugmentOp::Normalize {
                        mean: *mean,
                        scale: *scale,
                    });
                    kind = DataKind::Tensor;
                }
                other => {
                    return Err(GraphError::BadConfig {
                        detail: format!("stage {:?} cannot appear between resize and sink", other),
                    })
                }
            }
        }
        let output = OutputDesc {
            width: geom.0,
            height: geom.1,
            channels: 3,
            kind,
        };
        Ok(CompiledPipeline {
            source,
            decode: device,
            decode_parallelism: stages[decode_pos]
                .parallelism
                .unwrap_or(config.default_decode_parallelism.max(1)),
            slot_depth: sink_node.queue_depth.unwrap_or(8),
            resize: (rw, rh),
            output,
            plan: AugmentPlan { ops },
            seed: config.seed,
            batch_size: config.batch_size,
            n_engines: config.n_engines,
            stage_names: self.stage_names(),
        })
    }
}

/// Executor-level knobs the graph itself does not carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphConfig {
    /// Images per batch.
    pub batch_size: usize,
    /// Compute engines served (sink slot queues).
    pub n_engines: usize,
    /// Decode workers when the decode stage sets no explicit parallelism.
    pub default_decode_parallelism: usize,
    /// Augmentation run seed (overridable at start via `DLB_AUG_SEED`).
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            batch_size: 4,
            n_engines: 1,
            default_decode_parallelism: 1,
            seed: 0,
        }
    }
}

/// Geometry and kind of the items the pipeline delivers to its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDesc {
    /// Item width in pixels.
    pub width: u32,
    /// Item height in pixels.
    pub height: u32,
    /// Channels (always 3 on this substrate).
    pub channels: u8,
    /// Delivered kind ([`DataKind::DecodedImage`] or [`DataKind::Tensor`]).
    pub kind: DataKind,
}

impl OutputDesc {
    /// Bytes one delivered item occupies in a batch unit (tensors store
    /// f32 little-endian, 4 bytes per channel value).
    pub fn bytes_per_item(&self) -> usize {
        let per_value = if self.kind == DataKind::Tensor { 4 } else { 1 };
        self.width as usize * self.height as usize * self.channels as usize * per_value
    }
}

/// The compiled execution plan: everything an executor needs to wire the
/// chain onto the queue/pool/telemetry substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPipeline {
    /// Source medium.
    pub source: SourceKind,
    /// Decode substrate.
    pub decode: DecodeDevice,
    /// Decode worker threads.
    pub decode_parallelism: usize,
    /// Depth of each per-engine sink slot queue.
    pub slot_depth: usize,
    /// The fused decode-resize geometry.
    pub resize: (u32, u32),
    /// What the sink receives.
    pub output: OutputDesc,
    /// Host transforms applied per sample after the fused resize.
    pub plan: AugmentPlan,
    /// Augmentation run seed from the config (pre-env-resolution).
    pub seed: u64,
    /// Images per batch.
    pub batch_size: usize,
    /// Sink slot queues.
    pub n_engines: usize,
    /// Stage names in chain order (telemetry/diagnostics).
    pub stage_names: Vec<String>,
}

impl CompiledPipeline {
    /// Bytes one *decoded* (pre-augmentation) item occupies.
    pub(crate) fn decoded_bytes_per_item(&self) -> usize {
        self.resize.0 as usize * self.resize.1 as usize * 3
    }

    /// Batch-unit capacity: units hold the batch both at the decode stage
    /// (the FPGA writes resized RGB8 in place) and after augmentation
    /// (which may grow items 4x via Normalize), so size for the larger.
    pub fn unit_bytes(&self) -> usize {
        self.batch_size
            * self
                .decoded_bytes_per_item()
                .max(self.output.bytes_per_item())
    }

    /// The per-sample augmentor, honouring the `DLB_AUG_SEED` override.
    /// `None` when the chain has no transforms beyond the fused resize —
    /// executors then skip the augmentation hop entirely.
    pub fn augmentor(&self) -> Option<SampleAugmentor> {
        self.augmentor_with_seed(crate::seed::resolve_run_seed(self.seed))
    }

    /// Like [`CompiledPipeline::augmentor`] with an explicit run seed
    /// (tests; replaying a recorded run).
    pub(crate) fn augmentor_with_seed(&self, run_seed: u64) -> Option<SampleAugmentor> {
        if self.plan.ops.is_empty() {
            return None;
        }
        Some(SampleAugmentor::new(self.plan.clone(), run_seed))
    }
}
