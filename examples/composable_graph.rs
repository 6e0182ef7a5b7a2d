//! Composable pipelines: build a typed stage graph, mount it on a real
//! backend, and prove the seeded-augmentation replay contract.
//!
//! Three acts:
//!   1. compose an augmented training graph (decode → resize → random
//!      crop → random flip → normalize) and run two epochs through the
//!      CPU backend;
//!   2. re-run the identical graph from the same seed and show every
//!      epoch — epoch 2 included — replays **bitwise**;
//!   3. show what the validator rejects at build/compile time.
//!
//! ```text
//! cargo run --example composable_graph
//! ```

use dlbooster::prelude::*;
use std::sync::Arc;

const N_IMAGES: usize = 16;
const BATCH: usize = 4;
const EPOCHS: u64 = 2;
const BATCHES_PER_EPOCH: u64 = (N_IMAGES / BATCH) as u64;

/// Runs the graph for `EPOCHS` epochs and returns one payload blob per
/// batch, in delivery order.
fn run(disk: &Arc<NvmeDisk>, dataset: &Dataset, graph: &PipelineGraph, seed: u64) -> Vec<Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let backend = CpuBackend::from_graph(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(disk))),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: BATCH,
            target_w: 48,
            target_h: 48,
            workers: 1, // single worker → deterministic delivery *order* too
            max_batches: Some(EPOCHS * BATCHES_PER_EPOCH),
            sample_cache: None,
        },
        graph,
        seed,
    )
    .expect("graph mounts on the CPU backend");
    let mut payloads = Vec::new();
    while let Ok(batch) = backend.next_batch(0) {
        let mut payload = vec![0; batch.unit.used()];
        batch.unit.gather_into(&mut payload);
        payloads.push(payload);
        backend.recycle(batch.unit);
    }
    payloads
}

fn main() {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset =
        Dataset::build(DatasetSpec::ilsvrc_small(N_IMAGES, 2026), &disk).expect("dataset");

    // --- act 1: compose and run an augmented training graph ---------------
    let graph = Chain::new()
        .then(
            "manifest",
            GraphStageSpec::Source {
                kind: SourceKind::Disk,
            },
        )
        .then(
            "decode",
            GraphStageSpec::Decode {
                device: DecodeDevice::Cpu,
            },
        )
        .parallelism(1)
        .then(
            "resize",
            GraphStageSpec::Resize {
                width: 48,
                height: 48,
            },
        )
        .then(
            "crop",
            GraphStageSpec::RandomCrop {
                width: 32,
                height: 32,
            },
        )
        .then("flip", GraphStageSpec::RandomFlip { prob: 0.5 })
        .then(
            "normalize",
            GraphStageSpec::Normalize {
                mean: [127.5; 3],
                scale: [127.5; 3],
            },
        )
        .then("dispatch", GraphStageSpec::Sink)
        .build()
        .expect("well-typed chain");
    let compiled = graph.compile(&GraphConfig::default()).expect("compiles");
    println!(
        "graph compiled: {} augmentation ops, {} output bytes/item ({:?})",
        compiled.plan.ops.len(),
        compiled.output.bytes_per_item(),
        compiled.output.kind,
    );

    let seed = 42;
    let first = run(&disk, &dataset, &graph, seed);
    println!(
        "run A: {} batches over {EPOCHS} epochs from seed {seed}",
        first.len()
    );

    // --- act 2: bitwise replay from the seed ------------------------------
    let second = run(&disk, &dataset, &graph, seed);
    assert_eq!(first, second, "same seed must replay the run bitwise");
    let per_epoch = BATCHES_PER_EPOCH as usize;
    let epoch2 = &first[per_epoch..];
    let epoch2_replay = &second[per_epoch..];
    assert_eq!(epoch2, epoch2_replay);
    println!(
        "run B: bitwise-identical — epoch 2 alone: {} batches, {} payload bytes, all equal",
        epoch2.len(),
        epoch2.iter().map(Vec::len).sum::<usize>(),
    );
    assert_ne!(
        first[..per_epoch],
        first[per_epoch..],
        "distinct epochs draw distinct augmentations"
    );
    println!("epoch 1 vs epoch 2: different crops/flips, as expected");
    let other = run(&disk, &dataset, &graph, seed + 1);
    assert_ne!(first, other, "a different seed draws differently");
    println!("seed {} diverges from seed {seed}, as expected", seed + 1);

    // --- act 3: the validator works for its living ------------------------
    let cyclic = {
        let mut b = GraphBuilder::new();
        let src = b.add(
            "src",
            GraphStageSpec::Source {
                kind: SourceKind::Disk,
            },
        );
        let dec = b.add(
            "decode",
            GraphStageSpec::Decode {
                device: DecodeDevice::Cpu,
            },
        );
        let rsz = b.add(
            "resize",
            GraphStageSpec::Resize {
                width: 32,
                height: 32,
            },
        );
        let sink = b.add("sink", GraphStageSpec::Sink);
        b.connect(src, dec);
        b.connect(dec, rsz);
        b.connect(rsz, sink);
        // a detached flip two-cycle, reachable from nothing
        let f1 = b.add("flip-a", GraphStageSpec::RandomFlip { prob: 0.5 });
        let f2 = b.add("flip-b", GraphStageSpec::RandomFlip { prob: 0.5 });
        b.connect(f1, f2);
        b.connect(f2, f1);
        b.build()
    };
    println!("cycle rejected at build:   {}", cyclic.unwrap_err());
    let oversized =
        dlbooster::graph::augmented_training(DecodeDevice::Cpu, (32, 32), (64, 64), 0.0, None, 1)
            .expect("builds — geometry is a compile-time concern")
            .compile(&GraphConfig::default());
    println!("bad crop rejected at compile: {}", oversized.unwrap_err());
}
