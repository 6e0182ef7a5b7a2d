//! Property suite for the pipeline-graph plane.
//!
//! Four families over arbitrary stage chains:
//! * **Soundness** — every well-typed chain builds and compiles, and the
//!   compiled geometry/knobs are exactly the fold of the stage list.
//! * **Structural rejection** — every structural mutation (dropped or
//!   duplicated endpoints, fan-in/out, cycles, orphans, ill-typed edges,
//!   self/duplicate edges, foreign node handles) is rejected with its
//!   *specific* [`GraphError`] variant, never a catch-all.
//! * **Parameter rejection** — zero dimensions/parallelism/queue depth,
//!   out-of-range probabilities, zero scales and oversized crops name the
//!   offending stage in their error.
//! * **Purity** — `compile` is a pure function of `(graph, config)`: the
//!   same chain built twice and compiled twice yields identical
//!   [`CompiledPipeline`]s, and differing seeds differ only in the seed.
//!
//! Case count is pinned in CI; override with `PROPTEST_CASES`.

use dlb_graph::{
    AugmentOp, DataKind, DecodeDevice, GraphBuilder, GraphConfig, GraphError, NodeId,
    PipelineGraph, SourceKind, StageSpec,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// One raw generated transform between the fused resize and the sink.
/// `kind % 3` selects resize / crop / flip; normalize is appended
/// separately (it must sit last — only the sink accepts tensors).
type RawOp = (u8, u32, u32, f32);

/// A raw generated chain: decode device flag, fused resize geometry,
/// decode parallelism, source/sink queue depths, mid-chain transforms,
/// and whether a trailing normalize is appended.
type RawChain = (bool, u32, u32, usize, usize, usize, Vec<RawOp>, bool);

fn chains() -> impl Strategy<Value = RawChain> {
    (
        any::<bool>(),
        8u32..64,
        8u32..64,
        1usize..8,
        1usize..128,
        1usize..32,
        vec((0u8..3, 1u32..64, 1u32..64, 0f32..=1.0f32), 0..5),
        any::<bool>(),
    )
}

/// The fully-typed form of a generated chain, with the geometry fold the
/// compiled pipeline must reproduce.
struct TypedChain {
    stages: Vec<StageSpec>,
    expect_geom: (u32, u32),
    expect_tensor: bool,
}

/// Lowers a raw chain to stage specs, clamping crops to the running
/// geometry so the result is well-formed by construction.
fn typed(raw: &RawChain) -> TypedChain {
    let (fpga, rw, rh, _, _, _, ops, normalize) = raw;
    let mut stages = vec![
        StageSpec::Source {
            kind: SourceKind::Disk,
        },
        StageSpec::Decode {
            device: if *fpga {
                DecodeDevice::Fpga
            } else {
                DecodeDevice::Cpu
            },
        },
        StageSpec::Resize {
            width: *rw,
            height: *rh,
        },
    ];
    let mut geom = (*rw, *rh);
    for (kind, w, h, prob) in ops {
        match kind % 3 {
            0 => {
                stages.push(StageSpec::Resize {
                    width: *w,
                    height: *h,
                });
                geom = (*w, *h);
            }
            1 => {
                let (cw, ch) = ((*w).min(geom.0), (*h).min(geom.1));
                stages.push(StageSpec::RandomCrop {
                    width: cw,
                    height: ch,
                });
                geom = (cw, ch);
            }
            _ => stages.push(StageSpec::RandomFlip { prob: *prob }),
        }
    }
    if *normalize {
        stages.push(StageSpec::Normalize {
            mean: [127.5; 3],
            scale: [127.5; 3],
        });
    }
    stages.push(StageSpec::Sink);
    TypedChain {
        stages,
        expect_geom: geom,
        expect_tensor: *normalize,
    }
}

/// Builds the typed chain through [`GraphBuilder`], returning the builder
/// (pre-`build`, for mutation) and the issued node handles in chain order.
fn builder_for(raw: &RawChain, chain: &TypedChain) -> (GraphBuilder, Vec<NodeId>) {
    let (_, _, _, par, src_depth, sink_depth, _, _) = raw;
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for (i, spec) in chain.stages.iter().enumerate() {
        let id = b.add(&format!("stage-{i}"), spec.clone());
        if let Some(&prev) = ids.last() {
            b.connect(prev, id);
        }
        ids.push(id);
    }
    b.set_parallelism(ids[1], *par);
    b.set_queue_depth(ids[0], *src_depth);
    b.set_queue_depth(*ids.last().unwrap(), *sink_depth);
    (b, ids)
}

fn build(raw: &RawChain) -> (PipelineGraph, TypedChain) {
    let chain = typed(raw);
    let (b, _) = builder_for(raw, &chain);
    let graph = b.build().expect("well-typed chain must build");
    (graph, chain)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn well_typed_chains_always_build_and_compile(
        raw in chains(),
        batch in 1usize..8,
        engines in 1usize..4,
    ) {
        let (graph, chain) = build(&raw);
        let (_, _, _, par, _, sink_depth, _, _) = &raw;
        let config = GraphConfig {
            batch_size: batch,
            n_engines: engines,
            default_decode_parallelism: 1,
            seed: 0,
        };
        let c = graph.compile(&config).expect("well-typed chain must compile");
        // The compiled plan is exactly the fold of the stage list.
        prop_assert_eq!((c.output.width, c.output.height), chain.expect_geom);
        prop_assert_eq!(
            c.output.kind,
            if chain.expect_tensor { DataKind::Tensor } else { DataKind::DecodedImage }
        );
        prop_assert_eq!(c.decode_parallelism, *par);
        prop_assert_eq!(c.slot_depth, *sink_depth);
        prop_assert_eq!(c.batch_size, batch);
        prop_assert_eq!(c.n_engines, engines);
        prop_assert_eq!(c.stage_names.len(), chain.stages.len());
        // Unit sizing covers both the decoded and the augmented form.
        let decoded = c.resize.0 as usize * c.resize.1 as usize * 3;
        prop_assert_eq!(
            c.unit_bytes(),
            batch * decoded.max(c.output.bytes_per_item())
        );
        // The plan holds exactly the post-resize transforms.
        prop_assert_eq!(c.plan.ops.len(), chain.stages.len() - 4);
        prop_assert_eq!(
            c.plan.ops.iter().any(|op| matches!(op, AugmentOp::Normalize { .. })),
            chain.expect_tensor
        );
    }

    #[test]
    fn compile_is_a_pure_function_of_graph_and_config(
        raw in chains(),
        batch in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (g1, _) = build(&raw);
        let (g2, _) = build(&raw);
        prop_assert_eq!(&g1, &g2);
        let config = GraphConfig {
            batch_size: batch,
            n_engines: 2,
            default_decode_parallelism: 3,
            seed,
        };
        let a = g1.compile(&config).unwrap();
        let b = g1.compile(&config).unwrap();
        let c = g2.compile(&config).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        // The seed flows through verbatim and is the *only* seed input.
        prop_assert_eq!(a.seed, seed);
        let other = g1
            .compile(&GraphConfig { seed: seed ^ 1, ..config })
            .unwrap();
        prop_assert_eq!(other.seed, seed ^ 1);
        prop_assert_eq!(&other.plan, &a.plan);
    }

    #[test]
    fn structural_mutations_rejected_with_exact_variant(raw in chains()) {
        let chain = typed(&raw);
        let fresh = || builder_for(&raw, &chain);
        let last = chain.stages.len() - 1;
        let src_spec = StageSpec::Source { kind: SourceKind::Net };
        let flip = StageSpec::RandomFlip { prob: 0.5 };

        // Baseline: untouched builder is valid.
        prop_assert!(fresh().0.build().is_ok());

        // Second source (off-chain; endpoint counting fires before the
        // orphan walk).
        let (mut b, _) = fresh();
        b.add("rogue-source", src_spec.clone());
        prop_assert!(
            matches!(b.build(), Err(GraphError::MultipleSources { ref stages }) if stages.len() == 2)
        , "unexpected build/compile result");

        // Second sink.
        let (mut b, _) = fresh();
        b.add("rogue-sink", StageSpec::Sink);
        prop_assert!(
            matches!(b.build(), Err(GraphError::MultipleSinks { ref stages }) if stages.len() == 2)
        , "unexpected build/compile result");

        // Fan-out: the source also feeds the sink directly.
        let (mut b, ids) = fresh();
        b.connect(ids[0], ids[last]);
        prop_assert!(matches!(b.build(), Err(GraphError::FanOut { .. })), "unexpected build/compile result");

        // Fan-in: an extra producer feeding the resize stage.
        let (mut b, ids) = fresh();
        let extra = b.add("extra-producer", flip.clone());
        b.connect(extra, ids[2]);
        prop_assert!(
            matches!(b.build(), Err(GraphError::FanIn { ref stage }) if stage == "stage-2")
        , "unexpected build/compile result");

        // Detached two-cycle off the main chain.
        let (mut b, _) = fresh();
        let x = b.add("loop-a", flip.clone());
        let y = b.add("loop-b", flip.clone());
        b.connect(x, y);
        b.connect(y, x);
        prop_assert!(matches!(b.build(), Err(GraphError::Cycle { .. })), "unexpected build/compile result");

        // Dangling stage with no edges.
        let (mut b, _) = fresh();
        b.add("dangling", flip.clone());
        prop_assert!(
            matches!(b.build(), Err(GraphError::Orphan { ref stage }) if stage == "dangling")
        , "unexpected build/compile result");

        // Ill-typed edge: encoded bytes cannot feed a transform.
        let mut b = GraphBuilder::new();
        let s = b.add("src", src_spec);
        let r = b.add("resize", StageSpec::Resize { width: 8, height: 8 });
        let k = b.add("sink", StageSpec::Sink);
        b.connect(s, r);
        b.connect(r, k);
        match b.build() {
            Err(GraphError::TypeMismatch { from, to, produced, expected }) => {
                prop_assert_eq!(from, "src");
                prop_assert_eq!(to, "resize");
                prop_assert_eq!(produced, DataKind::EncodedJpeg);
                prop_assert_eq!(expected, "DecodedImage");
            }
            other => prop_assert!(false, "expected TypeMismatch, got {:?}", other),
        }

        // The sink as a producer is also a type error (it emits nothing).
        let (mut b, ids) = fresh();
        let tail = b.add("after-sink", flip.clone());
        b.connect(ids[last], tail);
        prop_assert!(matches!(b.build(), Err(GraphError::TypeMismatch { .. })), "unexpected build/compile result");

        // Self edge.
        let (mut b, ids) = fresh();
        b.connect(ids[2], ids[2]);
        prop_assert!(
            matches!(b.build(), Err(GraphError::SelfEdge { ref stage }) if stage == "stage-2")
        , "unexpected build/compile result");

        // Duplicate edge.
        let (mut b, ids) = fresh();
        b.connect(ids[0], ids[1]);
        prop_assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { .. })), "unexpected build/compile result");

        // Duplicate stage name.
        let (mut b, _) = fresh();
        b.add("stage-0", flip.clone());
        prop_assert!(
            matches!(b.build(), Err(GraphError::DuplicateStage { ref name }) if name == "stage-0")
        , "unexpected build/compile result");

        // A handle issued by a different builder.
        let mut foreign = GraphBuilder::new();
        for i in 0..chain.stages.len() + 4 {
            foreign.add(&format!("f{i}"), flip.clone());
        }
        let alien = foreign.add("far", flip.clone());
        let (mut b, ids) = fresh();
        b.connect(ids[0], alien);
        prop_assert!(matches!(b.build(), Err(GraphError::UnknownStage { .. })), "unexpected build/compile result");

        // The empty graph.
        prop_assert!(matches!(GraphBuilder::new().build(), Err(GraphError::Empty)), "unexpected build/compile result");
    }

    #[test]
    fn parameter_mutations_name_the_offending_stage(
        raw in chains(),
        bad_prob in 1.0f32..16.0,
    ) {
        let chain = typed(&raw);
        let fresh = || builder_for(&raw, &chain);

        // Zero parallelism.
        let (mut b, ids) = fresh();
        b.set_parallelism(ids[1], 0);
        prop_assert!(
            matches!(b.build(), Err(GraphError::ZeroParallelism { ref stage }) if stage == "stage-1")
        , "unexpected build/compile result");

        // Zero queue depth.
        let (mut b, ids) = fresh();
        b.set_queue_depth(ids[0], 0);
        prop_assert!(
            matches!(b.build(), Err(GraphError::ZeroQueueDepth { ref stage }) if stage == "stage-0")
        , "unexpected build/compile result");

        // Zero dimension.
        let (mut b, _) = fresh();
        let z = b.add("zero-resize", StageSpec::Resize { width: 0, height: 8 });
        let _ = z;
        prop_assert!(
            matches!(b.build(), Err(GraphError::ZeroDimension { ref stage }) if stage == "zero-resize")
        , "unexpected build/compile result");

        // Probability above one (and NaN).
        for prob in [bad_prob + f32::EPSILON, f32::NAN] {
            let (mut b, _) = fresh();
            b.add("bad-flip", StageSpec::RandomFlip { prob });
            prop_assert!(
                matches!(b.build(), Err(GraphError::BadProbability { ref stage }) if stage == "bad-flip")
            , "unexpected build/compile result");
        }

        // Zero normalize scale.
        let (mut b, _) = fresh();
        b.add(
            "bad-norm",
            StageSpec::Normalize { mean: [0.0; 3], scale: [1.0, 0.0, 1.0] },
        );
        prop_assert!(
            matches!(b.build(), Err(GraphError::ZeroScale { ref stage }) if stage == "bad-norm")
        , "unexpected build/compile result");
    }

    #[test]
    fn compile_rejects_bad_geometry_and_config(
        raw in chains(),
        oversize in 1u32..64,
    ) {
        let (graph, chain) = build(&raw);

        // Zero batch / zero engines.
        prop_assert!(matches!(
            graph.compile(&GraphConfig { batch_size: 0, ..Default::default() }),
            Err(GraphError::BadConfig { .. })
        ), "unexpected build/compile result");
        prop_assert!(matches!(
            graph.compile(&GraphConfig { n_engines: 0, ..Default::default() }),
            Err(GraphError::BadConfig { .. })
        ), "unexpected build/compile result");

        // A crop wider than the running geometry at its position.
        let (fpga, rw, rh, ..) = raw;
        let mut b = GraphBuilder::new();
        let s = b.add("src", StageSpec::Source { kind: SourceKind::Disk });
        let d = b.add(
            "decode",
            StageSpec::Decode {
                device: if fpga { DecodeDevice::Fpga } else { DecodeDevice::Cpu },
            },
        );
        let r = b.add("resize", StageSpec::Resize { width: rw, height: rh });
        let c = b.add(
            "big-crop",
            StageSpec::RandomCrop { width: rw + oversize, height: rh },
        );
        let k = b.add("sink", StageSpec::Sink);
        b.connect(s, d);
        b.connect(d, r);
        b.connect(r, c);
        b.connect(c, k);
        let g = b.build().expect("structurally valid");
        match g.compile(&GraphConfig::default()) {
            Err(GraphError::CropLargerThanInput { stage, input, crop }) => {
                prop_assert_eq!(stage, "big-crop");
                prop_assert_eq!(input, (rw, rh));
                prop_assert_eq!(crop, (rw + oversize, rh));
            }
            other => prop_assert!(false, "expected CropLargerThanInput, got {:?}", other),
        }

        // Decode must feed a resize (the substrate fuses them).
        let mut b = GraphBuilder::new();
        let s = b.add("src", StageSpec::Source { kind: SourceKind::Disk });
        let d = b.add("decode", StageSpec::Decode { device: DecodeDevice::Cpu });
        let f = b.add("flip", StageSpec::RandomFlip { prob: 0.5 });
        let k = b.add("sink", StageSpec::Sink);
        b.connect(s, d);
        b.connect(d, f);
        b.connect(f, k);
        let g = b.build().expect("structurally valid");
        prop_assert!(matches!(
            g.compile(&GraphConfig::default()),
            Err(GraphError::DecodeRequiresResize { ref stage }) if stage == "flip"
        ), "unexpected build/compile result");

        let _ = chain;
    }
}
