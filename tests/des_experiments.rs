//! Smoke tests of the figure-regenerating DES experiments: the qualitative
//! claims of the evaluation section must hold on the paper calibration.
//! (Full sweeps run in the bench harness; these are the fast subset.)

use dlbooster::gpu::ModelZoo;
use dlbooster::workflows::calibration::{BackendKind, Calibration};
use dlbooster::workflows::figures;
use dlbooster::workflows::inference::InferenceSim;
use dlbooster::workflows::training::{TrainBackend, TrainingParams, TrainingSim};

fn cal() -> Calibration {
    Calibration::paper()
}

#[test]
fn headline_claim_throughput_gain_1_35x_to_2_4x() {
    // Abstract: "1.35×∼2.4× image processing throughput in several DL
    // workloads" vs the baselines. Check the inference pairs at the paper's
    // largest batch sizes.
    let c = cal();
    let mut gains = Vec::new();
    for model in [ModelZoo::GoogLeNet, ModelZoo::ResNet50] {
        let bs = model.paper_batch_size();
        let dlb = InferenceSim::saturated_throughput(&c, model, BackendKind::DlBooster, bs);
        for baseline in [BackendKind::CpuBased, BackendKind::NvJpeg] {
            let base = InferenceSim::saturated_throughput(&c, model, baseline, bs);
            gains.push(dlb / base);
        }
    }
    let max_gain = gains.iter().cloned().fold(0.0, f64::max);
    let min_gain = gains.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        min_gain > 1.05,
        "DLBooster must beat every baseline; min gain {min_gain:.2}"
    );
    assert!(
        max_gain > 1.5 && max_gain < 4.0,
        "headline band ~2.4x; max gain {max_gain:.2}"
    );
}

#[test]
fn headline_claim_one_tenth_cpu_cores() {
    // Abstract: "consumes only 1/10 CPU cores" (vs the CPU-based backend).
    let c = cal();
    let cpu = TrainingSim::run(
        c.clone(),
        TrainingParams::paper(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::CpuBased),
            2,
        ),
    );
    let dlb = TrainingSim::run(
        c,
        TrainingParams::paper(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::DlBooster),
            2,
        ),
    );
    // Total cores include framework overhead common to both backends; the
    // "1/10" headline is about the preprocessing burn itself.
    let total_ratio = dlb.cpu_cores / cpu.cpu_cores;
    assert!(
        total_ratio < 0.35,
        "DLBooster {:.1} vs CPU-based {:.1} total cores (ratio {total_ratio:.2})",
        dlb.cpu_cores,
        cpu.cpu_cores
    );
    let (cpu_pre, ..) = cpu.cpu_breakdown;
    let (dlb_pre, ..) = dlb.cpu_breakdown;
    let pre_ratio = dlb_pre / cpu_pre;
    assert!(
        pre_ratio < 0.15,
        "preprocessing cores: DLBooster {dlb_pre:.2} vs CPU-based {cpu_pre:.2} (ratio {pre_ratio:.2})"
    );
}

#[test]
fn headline_claim_latency_cut_by_one_third() {
    let c = cal();
    let dlb = InferenceSim::loaded_latency(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, 1, 0.6);
    let cpu = InferenceSim::loaded_latency(&c, ModelZoo::GoogLeNet, BackendKind::CpuBased, 1, 0.6);
    let cut = 1.0 - dlb.p50_latency.as_secs_f64() / cpu.p50_latency.as_secs_f64();
    assert!(cut > 0.28, "latency reduction {cut:.2} (paper: ~1/3)");
}

#[test]
fn fig5_dlbooster_wins_on_ilsvrc_models() {
    let c = cal();
    for model in [ModelZoo::AlexNet, ModelZoo::ResNet18] {
        let dlb = TrainingSim::run(
            c.clone(),
            TrainingParams::paper(model, TrainBackend::Kind(BackendKind::DlBooster), 2),
        )
        .throughput;
        for kind in [BackendKind::CpuBased, BackendKind::Lmdb] {
            let base = TrainingSim::run(
                c.clone(),
                TrainingParams::paper(model, TrainBackend::Kind(kind), 2),
            )
            .throughput;
            assert!(
                dlb >= base * 0.99,
                "{}: DLBooster {dlb:.0} must match or beat {} {base:.0}",
                model.name(),
                kind.label()
            );
        }
    }
}

#[test]
fn fig7_nvjpeg_degradation_grows_with_batch() {
    // §5.3: nvJPEG suffers "~40% performance degradation as the batch size
    // increases" relative to what the GPU could do.
    let c = cal();
    let rel = |bs| {
        let nv =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::NvJpeg, bs);
        let dlb =
            InferenceSim::saturated_throughput(&c, ModelZoo::GoogLeNet, BackendKind::DlBooster, bs);
        nv / dlb
    };
    let small = rel(2);
    let large = rel(32);
    assert!(
        large < small,
        "nvJPEG relative performance must fall with batch size: {small:.2} → {large:.2}"
    );
    assert!(large < 0.75, "large-batch degradation {large:.2}");
}

#[test]
fn all_figures_render_without_panicking() {
    // A full sweep of every figure (the same call the `figures` binary and
    // EXPERIMENTS.md use) must complete and produce non-empty tables.
    let reports = figures::all_figures(&cal());
    assert_eq!(
        reports.len(),
        14,
        "7 paper figures + the overload sweep + the cluster degradation sweep + 5 ablations"
    );
    for rep in &reports {
        assert!(!rep.rows.is_empty(), "{} has no rows", rep.id);
        let rendered = rep.render();
        assert!(rendered.contains(&rep.id));
    }
}
