//! Backend equivalence: for the same inputs and target geometry, the
//! online backends (DLBooster, CPU-based, nvJPEG) must produce *identical*
//! decoded pixels — only their resource profile differs. This is the
//! compatibility guarantee of §3.1/§4.2 ("DLBooster can be plugged into
//! different DL libraries … and co-exist with other preprocessing
//! backends").

use dlbooster::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const N_IMAGES: usize = 8;
const BATCH: usize = 4;
const TARGET: u32 = 40;

struct Fixture {
    disk: Arc<NvmeDisk>,
    dataset: Dataset,
}

fn fixture() -> Fixture {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(N_IMAGES, 123), &disk).unwrap();
    Fixture { disk, dataset }
}

/// Collects `label → pixels` for every delivered item of a backend.
fn collect(backend: &dyn PreprocessBackend, batches: usize) -> HashMap<u64, Vec<u8>> {
    let mut out = HashMap::new();
    for _ in 0..batches {
        let batch = backend.next_batch(0).expect("batch");
        for (i, item) in batch.unit.items().iter().enumerate() {
            out.insert(item.label, batch.unit.item_bytes(i).to_vec());
        }
        backend.recycle(batch.unit);
    }
    out
}

fn dlbooster_pixels(f: &Fixture) -> HashMap<u64, Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
    )
    .unwrap();
    let config = DlBoosterConfig::training(
        1,
        BATCH,
        (TARGET as u16, TARGET as u16),
        N_IMAGES,
        Some((N_IMAGES / BATCH) as u64),
    );
    let booster = DlBooster::start(collector, FpgaChannel::init(engine, 0), config).unwrap();
    collect(&booster, N_IMAGES / BATCH)
}

fn cpu_pixels(f: &Fixture) -> HashMap<u64, Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let backend = CpuBackend::start(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: BATCH,
            target_w: TARGET,
            target_h: TARGET,
            workers: 2,
            max_batches: Some((N_IMAGES / BATCH) as u64),
            sample_cache: None,
        },
    )
    .unwrap();
    collect(&backend, N_IMAGES / BATCH)
}

fn nvjpeg_pixels(f: &Fixture) -> HashMap<u64, Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let mut config = NvJpegBackendConfig::paper_defaults(1, BATCH, (TARGET, TARGET));
    config.max_batches = Some((N_IMAGES / BATCH) as u64);
    let backend = NvJpegBackend::start(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        config,
    )
    .unwrap();
    collect(&backend, N_IMAGES / BATCH)
}

#[test]
fn online_backends_produce_identical_pixels() {
    let f = fixture();
    // Labels in this synthetic dataset are not necessarily unique per image;
    // re-key by label only works when they are. Verify uniqueness first.
    let labels: std::collections::HashSet<u64> =
        f.dataset.records.iter().map(|r| r.label).collect();
    assert_eq!(labels.len(), N_IMAGES, "fixture labels must be unique");

    let dlb = dlbooster_pixels(&f);
    let cpu = cpu_pixels(&f);
    let nv = nvjpeg_pixels(&f);
    assert_eq!(dlb.len(), N_IMAGES);
    assert_eq!(cpu.len(), N_IMAGES);
    assert_eq!(nv.len(), N_IMAGES);
    for (label, pixels) in &dlb {
        assert_eq!(
            Some(pixels),
            cpu.get(label),
            "CPU backend diverges on label {label}"
        );
        assert_eq!(
            Some(pixels),
            nv.get(label),
            "nvJPEG backend diverges on label {label}"
        );
    }
}

fn dlbooster_pixels_via_graph(f: &Fixture, graph: &PipelineGraph) -> HashMap<u64, Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
    )
    .unwrap();
    let config = DlBoosterConfig::training(
        1,
        BATCH,
        (TARGET as u16, TARGET as u16),
        N_IMAGES,
        Some((N_IMAGES / BATCH) as u64),
    );
    let booster =
        DlBooster::from_graph(collector, FpgaChannel::init(engine, 0), config, graph, 0).unwrap();
    collect(&booster, N_IMAGES / BATCH)
}

fn cpu_pixels_via_graph(f: &Fixture, graph: &PipelineGraph) -> HashMap<u64, Vec<u8>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let backend = CpuBackend::from_graph(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: BATCH,
            target_w: TARGET,
            target_h: TARGET,
            workers: 2,
            max_batches: Some((N_IMAGES / BATCH) as u64),
            sample_cache: None,
        },
        graph,
        0,
    )
    .unwrap();
    collect(&backend, N_IMAGES / BATCH)
}

#[test]
fn graph_compiled_backends_match_the_legacy_constructors() {
    // The graph plane must not change a single pixel: compiling the canned
    // chains through `from_graph` yields exactly what the legacy `start`
    // constructors (and therefore every other equivalent backend) produce.
    let f = fixture();
    let legacy_dlb = dlbooster_pixels(&f);
    let legacy_cpu = cpu_pixels(&f);
    let graph_dlb =
        dlbooster_pixels_via_graph(&f, &dlbooster::graph::fpga_training(TARGET, TARGET));
    let graph_cpu = cpu_pixels_via_graph(&f, &dlbooster::graph::cpu_training(TARGET, TARGET, 2));
    assert_eq!(graph_dlb.len(), N_IMAGES);
    assert_eq!(
        graph_dlb, legacy_dlb,
        "graph-compiled DLBooster diverges from the legacy constructor"
    );
    assert_eq!(
        graph_cpu, legacy_cpu,
        "graph-compiled CPU backend diverges from the legacy constructor"
    );
    assert_eq!(
        graph_dlb, graph_cpu,
        "graph-compiled backends diverge from each other"
    );
}

#[test]
fn hand_built_graph_matches_the_canned_chain() {
    // Same pipeline, assembled with explicit `GraphBuilder` node handles
    // instead of the `Chain` sugar or a canned constructor: the builder
    // path must be pixel-identical.
    let f = fixture();
    let mut b = GraphBuilder::new();
    let src = b.add(
        "manifest",
        GraphStageSpec::Source {
            kind: SourceKind::Disk,
        },
    );
    let dec = b.add(
        "fpga-decode",
        GraphStageSpec::Decode {
            device: DecodeDevice::Fpga,
        },
    );
    let rsz = b.add(
        "resize",
        GraphStageSpec::Resize {
            width: TARGET,
            height: TARGET,
        },
    );
    let sink = b.add("dispatch", GraphStageSpec::Sink);
    b.connect(src, dec);
    b.connect(dec, rsz);
    b.connect(rsz, sink);
    let graph = b.build().expect("hand-built chain is well-typed");
    let hand = dlbooster_pixels_via_graph(&f, &graph);
    let canned = dlbooster_pixels_via_graph(&f, &dlbooster::graph::fpga_training(TARGET, TARGET));
    assert_eq!(hand, canned, "builder-assembled graph diverges from canned");
}

#[test]
fn lmdb_backend_preserves_labels_and_geometry() {
    // LMDB converts offline with an area filter (as Caffe's convert tool
    // does), so pixels legitimately differ from the online backends; what
    // must match is the label set and the record geometry.
    let f = fixture();
    let backend = LmdbBackend::start(
        &f.dataset,
        &f.disk,
        LmdbBackendConfig {
            n_engines: 1,
            batch_size: BATCH,
            target_w: TARGET,
            target_h: TARGET,
            readers: 1,
            max_batches: Some((N_IMAGES / BATCH) as u64),
        },
    )
    .unwrap();
    let got = collect(&backend, N_IMAGES / BATCH);
    let expected: std::collections::HashSet<u64> =
        f.dataset.records.iter().map(|r| r.label).collect();
    let got_labels: std::collections::HashSet<u64> = got.keys().copied().collect();
    assert_eq!(got_labels, expected);
    for pixels in got.values() {
        assert_eq!(pixels.len(), (TARGET * TARGET * 3) as usize);
    }
}
