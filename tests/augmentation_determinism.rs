//! Determinism contract of the seeded augmentation stages: every random
//! crop/flip draw is a pure function of `(run seed, epoch, sample
//! identity)`, so augmented pixels must be invariant to worker count,
//! decode substrate, chaos-driven failover re-decodes, and replay — while
//! different epochs and different seeds must actually draw differently.
//!
//! Every test takes the file-global lock: one test exercises the
//! `DLB_AUG_SEED` environment override, which is process-wide state read
//! at pipeline start.

use dlbooster::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

const N_IMAGES: usize = 8;
const BATCH: usize = 4;
const BATCHES_PER_EPOCH: u64 = (N_IMAGES / BATCH) as u64;
const RESIZE: (u32, u32) = (48, 48);
const CROP: (u32, u32) = (32, 32);
const FLIP: f32 = 0.5;

/// Serialises the whole file: `DLB_AUG_SEED` is process-global and every
/// pipeline start resolves it.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct Fixture {
    disk: Arc<NvmeDisk>,
    dataset: Dataset,
}

fn fixture(data_seed: u64) -> Fixture {
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(N_IMAGES, data_seed), &disk).unwrap();
    Fixture { disk, dataset }
}

fn augmented_graph(device: DecodeDevice, workers: usize) -> PipelineGraph {
    dlbooster::graph::augmented_training(device, RESIZE, CROP, FLIP, None, workers).unwrap()
}

/// Runs the augmented CPU pipeline for `epochs` epochs and returns each
/// epoch's `label → pixels` map, in delivery order within the run.
fn cpu_epoch_maps(
    f: &Fixture,
    workers: usize,
    seed: u64,
    epochs: u64,
) -> Vec<HashMap<u64, Vec<u8>>> {
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let config = CpuBackendConfig {
        n_engines: 1,
        batch_size: BATCH,
        target_w: RESIZE.0,
        target_h: RESIZE.1,
        workers,
        max_batches: Some(epochs * BATCHES_PER_EPOCH),
        sample_cache: None,
    };
    let backend = CpuBackend::from_graph(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        config,
        &augmented_graph(DecodeDevice::Cpu, workers),
        seed,
    )
    .unwrap();
    let mut maps: Vec<HashMap<u64, Vec<u8>>> = vec![HashMap::new(); epochs as usize];
    let mut seen_per_epoch = vec![0usize; epochs as usize];
    while let Ok(batch) = backend.next_batch(0) {
        for (i, item) in batch.unit.items().iter().enumerate() {
            // Epoch attribution by sighting count: the unshuffled
            // collector delivers each label exactly once per epoch.
            let epoch = maps
                .iter()
                .position(|m| !m.contains_key(&item.label))
                .expect("no label appears more than `epochs` times");
            maps[epoch].insert(item.label, batch.unit.item_bytes(i).to_vec());
            seen_per_epoch[epoch] += 1;
        }
        backend.recycle(batch.unit);
    }
    for (e, seen) in seen_per_epoch.iter().enumerate() {
        assert_eq!(*seen, N_IMAGES, "epoch {e} must cover every record");
    }
    maps
}

#[test]
fn augmented_output_has_crop_geometry_and_differs_from_plain_resize() {
    let _g = lock();
    let f = fixture(11);
    let augmented = &cpu_epoch_maps(&f, 1, 42, 1)[0];
    for pixels in augmented.values() {
        assert_eq!(
            pixels.len(),
            (CROP.0 * CROP.1 * 3) as usize,
            "items must carry the cropped geometry"
        );
    }
    // Against a crop-free run: augmentation actually changed the bytes.
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let plain = CpuBackend::start(
        collector,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        CpuBackendConfig {
            n_engines: 1,
            batch_size: BATCH,
            target_w: RESIZE.0,
            target_h: RESIZE.1,
            workers: 1,
            max_batches: Some(BATCHES_PER_EPOCH),
            sample_cache: None,
        },
    )
    .unwrap();
    let mut plain_map = HashMap::new();
    while let Ok(b) = plain.next_batch(0) {
        for (i, item) in b.unit.items().iter().enumerate() {
            plain_map.insert(item.label, b.unit.item_bytes(i).to_vec());
        }
        plain.recycle(b.unit);
    }
    for (label, pixels) in augmented {
        assert_ne!(
            Some(pixels),
            plain_map.get(label),
            "label {label}: augmented output equals the un-augmented resize"
        );
    }
}

#[test]
fn same_seed_is_bitwise_identical_across_worker_counts() {
    let _g = lock();
    let f = fixture(123);
    let reference = cpu_epoch_maps(&f, 1, 42, 1);
    for workers in [2usize, 4, 8] {
        let got = cpu_epoch_maps(&f, workers, 42, 1);
        assert_eq!(
            reference, got,
            "worker count {workers} changed augmentation draws"
        );
    }
}

#[test]
fn epochs_draw_differently_and_replay_bitwise() {
    let _g = lock();
    let f = fixture(7);
    let run1 = cpu_epoch_maps(&f, 1, 42, 2);
    let run2 = cpu_epoch_maps(&f, 1, 42, 2);
    // Bitwise replay of the whole 2-epoch run, including epoch 2 alone.
    assert_eq!(run1, run2, "same seed must replay the run bitwise");
    assert_eq!(run1[1], run2[1], "epoch 2 re-run must match epoch 2");
    // Different epochs fold a different ordinal into every draw stream.
    assert_ne!(
        run1[0], run1[1],
        "epoch 1 and epoch 2 must draw different augmentations"
    );
    // Different run seeds draw differently.
    let other = cpu_epoch_maps(&f, 1, 43, 2);
    assert_ne!(run1[0], other[0], "run seed must affect the draws");
}

#[test]
fn fpga_and_cpu_paths_agree_under_augmentation() {
    // The FPGA reader augments host-side on its completion path; the CPU
    // backend augments in its workers. Identity keys on the *source*, not
    // the executor, so both substrates must produce identical pixels.
    let _g = lock();
    let f = fixture(123);
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
        (RESIZE.0 as u16, RESIZE.1 as u16),
        N_IMAGES,
        Some(BATCHES_PER_EPOCH),
    );
    let booster = DlBooster::from_graph(
        collector,
        FpgaChannel::init(engine, 0),
        config,
        &augmented_graph(DecodeDevice::Fpga, 1),
        42,
    )
    .unwrap();
    let mut fpga_map = HashMap::new();
    while let Ok(b) = booster.next_batch(0) {
        for (i, item) in b.unit.items().iter().enumerate() {
            fpga_map.insert(item.label, b.unit.item_bytes(i).to_vec());
        }
        booster.recycle(b.unit);
    }
    drop(booster);
    let cpu_map = cpu_epoch_maps(&f, 2, 42, 1).remove(0);
    assert_eq!(fpga_map.len(), N_IMAGES);
    assert_eq!(
        fpga_map, cpu_map,
        "augmented pixels must not depend on the decode substrate"
    );
}

#[test]
fn chaos_failover_redecodes_replay_the_same_augmentations() {
    // Chaos wedges the augmented FPGA primary; the augmented CPU fallback
    // re-decodes the remainder. Because draws key on (seed, epoch, source
    // identity), a re-decoded sample draws exactly what the primary would
    // have drawn — the run's label→pixels map must equal a clean,
    // chaos-free run with the same seed.
    use dlbooster::chaos::Stage;
    use std::time::Duration;

    let _g = lock();
    let f = fixture(51);
    let clean = cpu_epoch_maps(&f, 2, 42, 1).remove(0);

    let telemetry = Telemetry::with_defaults();
    let records = f.dataset.records.clone();
    let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .unwrap();
    let engine = DecoderEngine::start_with_telemetry(
        device,
        Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
        &telemetry,
    )
    .unwrap();
    let mut plan = FaultPlan::disabled();
    plan.seed = 23;
    plan.fpga = StageSpec::rate(0.5).with_delay(Duration::from_secs(60));
    let cancel = plan.cancel_token();
    engine.attach_chaos(plan.injector(Stage::Fpga, &telemetry).unwrap());
    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let config = DlBoosterConfig::training(
        1,
        BATCH,
        (RESIZE.0 as u16, RESIZE.1 as u16),
        N_IMAGES,
        Some(BATCHES_PER_EPOCH),
    );
    let primary = Arc::new(
        DlBooster::from_graph_with_telemetry(
            collector,
            channel,
            config,
            &augmented_graph(DecodeDevice::Fpga, 1),
            42,
            Arc::clone(&telemetry),
        )
        .unwrap(),
    );
    let t2 = Arc::clone(&telemetry);
    let disk = Arc::clone(&f.disk);
    let backend = FailoverBackend::new(
        Arc::clone(&primary),
        Box::new(move |remaining| {
            let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
            CpuBackend::from_graph_with_telemetry(
                collector,
                Arc::new(CombinedResolver::disk_only(Arc::clone(&disk))),
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size: BATCH,
                    target_w: RESIZE.0,
                    target_h: RESIZE.1,
                    workers: 2,
                    max_batches: Some(remaining),
                    sample_cache: None,
                },
                &augmented_graph(DecodeDevice::Cpu, 2),
                42,
                Arc::clone(&t2),
            )
            .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
        }),
        dlbooster::backends::FailoverConfig {
            total_batches: BATCHES_PER_EPOCH,
            deadline: Duration::from_millis(200),
            chaos_cancel: Some(cancel),
        },
        &telemetry,
    );
    let mut wedged = HashMap::new();
    loop {
        match backend.next_batch(0) {
            Ok(b) => {
                for (i, item) in b.unit.items().iter().enumerate() {
                    wedged.insert(item.label, b.unit.item_bytes(i).to_vec());
                }
                backend.recycle(b.unit);
            }
            Err(dlbooster::core::BackendError::Exhausted) => break,
            Err(e) => panic!("run must complete cleanly, got {e}"),
        }
    }
    assert!(backend.failed_over(), "the wedged FPGA must fail over");
    backend.shutdown();
    drop(backend);
    drop(primary);
    assert_eq!(
        wedged, clean,
        "failover re-decode must replay identical augmentation draws"
    );
}

#[test]
fn normalize_stage_delivers_replayable_le_f32_tensors() {
    let _g = lock();
    let f = fixture(9);
    let run = || {
        let collector = Arc::new(DataCollector::load_from_disk(&f.dataset.records, 0));
        let graph = dlbooster::graph::augmented_training(
            DecodeDevice::Cpu,
            RESIZE,
            CROP,
            FLIP,
            Some(([127.5; 3], [127.5; 3])),
            1,
        )
        .unwrap();
        let backend = CpuBackend::from_graph(
            collector,
            Arc::new(CombinedResolver::disk_only(Arc::clone(&f.disk))),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: BATCH,
                target_w: RESIZE.0,
                target_h: RESIZE.1,
                workers: 1,
                max_batches: Some(BATCHES_PER_EPOCH),
                sample_cache: None,
            },
            &graph,
            42,
        )
        .unwrap();
        let mut out = HashMap::new();
        while let Ok(b) = backend.next_batch(0) {
            for (i, item) in b.unit.items().iter().enumerate() {
                out.insert(item.label, b.unit.item_bytes(i).to_vec());
            }
            backend.recycle(b.unit);
        }
        out
    };
    let a = run();
    assert_eq!(a.len(), N_IMAGES);
    for bytes in a.values() {
        assert_eq!(
            bytes.len(),
            (CROP.0 * CROP.1 * 3 * 4) as usize,
            "tensor items are f32 per channel value"
        );
        for chunk in bytes.chunks_exact(4) {
            let v = f32::from_le_bytes(chunk.try_into().unwrap());
            assert!(
                (-1.01..=1.01).contains(&v),
                "normalised value {v} outside (px - 127.5) / 127.5 range"
            );
        }
    }
    assert_eq!(a, run(), "tensor output must replay bitwise");
}

#[test]
fn dlb_aug_seed_env_override_is_honoured_at_start() {
    let _g = lock();
    let f = fixture(77);
    // Explicit-seed baselines, no env var in play.
    std::env::remove_var("DLB_AUG_SEED");
    let with_999 = cpu_epoch_maps(&f, 1, 999, 1);
    let with_1 = cpu_epoch_maps(&f, 1, 1, 1);
    assert_ne!(with_999, with_1, "distinct seeds must draw differently");
    // The override replaces the configured seed at pipeline start.
    std::env::set_var("DLB_AUG_SEED", "999");
    let overridden = cpu_epoch_maps(&f, 1, 1, 1);
    std::env::remove_var("DLB_AUG_SEED");
    assert_eq!(
        overridden, with_999,
        "DLB_AUG_SEED must replace the configured run seed"
    );
    // Garbage values fall back to the configured seed.
    std::env::set_var("DLB_AUG_SEED", "not-a-number");
    let garbage = cpu_epoch_maps(&f, 1, 1, 1);
    std::env::remove_var("DLB_AUG_SEED");
    assert_eq!(garbage, with_1, "unparsable override must be ignored");
}
