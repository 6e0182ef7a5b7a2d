//! Per-figure sweep drivers: each function regenerates one table/figure of
//! the paper, or one of its design-choice ablations (§3.3/§3.4/§5.2/§7),
//! and returns a [`FigureReport`] with paper-expected values in the notes.

use crate::calibration::{BackendKind, Calibration};
use crate::cluster::cluster_degradation_figure;
use crate::economics::{analyze, EconomicsInputs};
use crate::inference::{DriveMode, InferenceParams, InferenceSim, SweepGrid};
use crate::report::{fmt_cores, fmt_rate, fmt_ratio, goodput_vs_offered_load, FigureReport, Row};
use crate::training::{TrainBackend, TrainingParams, TrainingSim};
use dlb_fpga::{DecoderMirror, DeviceSpec, FpgaTimingModel, ImageWorkload};
use dlb_gpu::ModelZoo;
use dlb_serving::{ServingConfig, ShedPolicy};
use dlb_simcore::SimTime;

/// Batch-size axis of Figs. 7/8 for a model (…32, ResNet-50 goes to 64).
pub(crate) fn batch_axis(model: ModelZoo) -> Vec<u32> {
    let mut axis = vec![1, 2, 4, 8, 16, 32];
    if model == ModelZoo::ResNet50 {
        axis.push(64);
    }
    axis
}

/// The inference models of Figs. 7–9.
pub(crate) fn inference_models() -> [ModelZoo; 3] {
    [ModelZoo::GoogLeNet, ModelZoo::Vgg16, ModelZoo::ResNet50]
}

/// The training models of Figs. 5–6.
pub(crate) fn training_models() -> [ModelZoo; 3] {
    [ModelZoo::LeNet5, ModelZoo::AlexNet, ModelZoo::ResNet18]
}

/// Figure 2: the motivation experiment — AlexNet/Caffe on P100s.
/// (a) throughput under the default configuration (2 decode threads/GPU for
/// the CPU path, per-GPU LMDB readers) vs the upper boundary;
/// (b) CPU cores needed to reach maximum throughput.
pub(crate) fn fig2_motivation(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 2",
        "AlexNet training motivation: default-config throughput and max-perf CPU cost",
        &["config", "gpus", "throughput (img/s)", "CPU cores"],
    );
    for gpus in [1u32, 2] {
        // Upper boundary.
        let ideal = TrainingSim::run(
            cal.clone(),
            TrainingParams::paper(ModelZoo::AlexNet, TrainBackend::Ideal, gpus),
        );
        rep.push_row(Row::new(&[
            "upper-boundary".to_string(),
            gpus.to_string(),
            fmt_rate(ideal.throughput),
            "-".to_string(),
        ]));
        // CPU-based, default config: 2 decode threads per GPU.
        let mut p = TrainingParams::paper(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::CpuBased),
            gpus,
        );
        p.cpu_workers = 2 * gpus;
        let dflt = TrainingSim::run(cal.clone(), p);
        rep.push_row(Row::new(&[
            "CPU-based (default)".to_string(),
            gpus.to_string(),
            fmt_rate(dflt.throughput),
            fmt_cores(dflt.cpu_cores),
        ]));
        // CPU-based, max performance: enough workers to feed the GPUs.
        let max = TrainingSim::run(
            cal.clone(),
            TrainingParams::paper(
                ModelZoo::AlexNet,
                TrainBackend::Kind(BackendKind::CpuBased),
                gpus,
            ),
        );
        rep.push_row(Row::new(&[
            "CPU-based (max)".to_string(),
            gpus.to_string(),
            fmt_rate(max.throughput),
            fmt_cores(max.cpu_cores),
        ]));
        // LMDB.
        let lmdb = TrainingSim::run(
            cal.clone(),
            TrainingParams::paper(
                ModelZoo::AlexNet,
                TrainBackend::Kind(BackendKind::Lmdb),
                gpus,
            ),
        );
        rep.push_row(Row::new(&[
            "LMDB".to_string(),
            gpus.to_string(),
            fmt_rate(lmdb.throughput),
            fmt_cores(lmdb.cpu_cores),
        ]));
    }
    rep.note("paper (b): CPU-based 2346/4363, LMDB 2446/3200, Ideal 2496/4652 img/s (1/2 GPUs)");
    rep.note("paper (a): default CPU config reaches only ~25% of GPU performance");
    rep
}

/// Figure 5: training throughput per model × backend × GPU count.
pub fn fig5_training_throughput(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 5",
        "Training throughput (images/s) for LeNet-5/AlexNet/ResNet-18",
        &["model", "backend", "1 GPU", "2 GPU", "2-GPU scaling"],
    );
    for model in training_models() {
        for backend in [
            TrainBackend::Kind(BackendKind::CpuBased),
            TrainBackend::Kind(BackendKind::Lmdb),
            TrainBackend::Kind(BackendKind::DlBooster),
            TrainBackend::Ideal,
        ] {
            let one = TrainingSim::run(cal.clone(), TrainingParams::paper(model, backend, 1));
            let two = TrainingSim::run(cal.clone(), TrainingParams::paper(model, backend, 2));
            let label = match backend {
                TrainBackend::Ideal => "upper-boundary",
                TrainBackend::Kind(k) => k.label(),
            };
            rep.push_row(Row::new(&[
                model.name().to_string(),
                label.to_string(),
                fmt_rate(one.throughput),
                fmt_rate(two.throughput),
                fmt_ratio(two.throughput / one.throughput.max(1.0)),
            ]));
        }
    }
    rep.note("paper: DLBooster approaches the GPU bound; LMDB loses ~30% at 2 GPUs (AlexNet)");
    rep.note("paper: DLBooster beats CPU-based/LMDB by ~30%/20% on ILSVRC-scale models");
    rep
}

/// Figure 6: training CPU cost per model × backend, plus the Fig. 6(d)
/// DLBooster breakdown on ResNet-18.
pub fn fig6_training_cpu_cost(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 6",
        "Training CPU cost (# cores) and DLBooster breakdown",
        &["model", "backend", "1-GPU cores", "2-GPU cores"],
    );
    for model in training_models() {
        for kind in [
            BackendKind::CpuBased,
            BackendKind::Lmdb,
            BackendKind::DlBooster,
        ] {
            let one = TrainingSim::run(
                cal.clone(),
                TrainingParams::paper(model, TrainBackend::Kind(kind), 1),
            );
            let two = TrainingSim::run(
                cal.clone(),
                TrainingParams::paper(model, TrainBackend::Kind(kind), 2),
            );
            rep.push_row(Row::new(&[
                model.name().to_string(),
                kind.label().to_string(),
                fmt_cores(one.cpu_cores),
                fmt_cores(two.cpu_cores),
            ]));
        }
    }
    // Fig. 6(d): DLBooster ResNet-18 per-activity breakdown.
    let d = TrainingSim::run(
        cal.clone(),
        TrainingParams::paper(
            ModelZoo::ResNet18,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        ),
    );
    let (pre, tra, lau, upd) = d.cpu_breakdown;
    rep.note(format!(
        "Fig 6(d) breakdown (ResNet-18, DLBooster): preprocessing {:.2} / transform {:.2} / launch {:.2} / update {:.2} cores",
        pre, tra, lau, upd
    ));
    rep.note("paper 6(d): 0.3 preprocessing / 0.15 transform / 0.95 launch / 0.12 update");
    rep.note(
        "paper: DLBooster ~1.5 cores/GPU, LMDB ~2.5, CPU-based ~12 (AlexNet) / ~7 (ResNet-18)",
    );
    rep
}

/// Figure 7: inference throughput over the batch-size axis.
pub fn fig7_inference_throughput(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 7",
        "Inference throughput (images/s) vs batch size (fp16 Tensor Cores)",
        &[
            "model",
            "batch",
            "CPU-based",
            "nvJPEG",
            "DLBooster",
            "DLB/nvJPEG",
        ],
    );
    for model in inference_models() {
        for &bs in &batch_axis(model) {
            let cpu = InferenceSim::saturated_throughput(cal, model, BackendKind::CpuBased, bs);
            let nv = InferenceSim::saturated_throughput(cal, model, BackendKind::NvJpeg, bs);
            let dlb = InferenceSim::saturated_throughput(cal, model, BackendKind::DlBooster, bs);
            rep.push_row(Row::new(&[
                model.name().to_string(),
                bs.to_string(),
                fmt_rate(cpu),
                fmt_rate(nv),
                fmt_rate(dlb),
                fmt_ratio(dlb / nv.max(1.0)),
            ]));
        }
    }
    rep.note("paper: DLBooster 1.2x-2.4x the baselines; nvJPEG degrades ~40% as batch grows");
    rep.note("paper: DLBooster plateaus at bs>=16 on GoogLeNet (FPGA decode bound, Fig 7a)");
    rep
}

/// Figure 8: inference latency over the batch-size axis (60 % load).
pub fn fig8_inference_latency(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 8",
        "Inference latency (ms, median) vs batch size at 60% load",
        &["model", "batch", "CPU-based", "nvJPEG", "DLBooster"],
    );
    for model in inference_models() {
        for &bs in &batch_axis(model) {
            let cpu = InferenceSim::loaded_latency(cal, model, BackendKind::CpuBased, bs, 0.6);
            let nv = InferenceSim::loaded_latency(cal, model, BackendKind::NvJpeg, bs, 0.6);
            let dlb = InferenceSim::loaded_latency(cal, model, BackendKind::DlBooster, bs, 0.6);
            rep.push_row(Row::new(&[
                model.name().to_string(),
                bs.to_string(),
                format!("{:.2}", cpu.p50_latency.as_millis_f64()),
                format!("{:.2}", nv.p50_latency.as_millis_f64()),
                format!("{:.2}", dlb.p50_latency.as_millis_f64()),
            ]));
        }
    }
    rep.note("paper bs=1 (GoogLeNet): 1.2ms DLBooster / 1.8ms nvJPEG / 3.4ms CPU-based");
    rep.note("paper: DLBooster reduces latency by ~1/3; all latencies grow with batch size");
    rep
}

/// Figure 9: inference CPU cost at the largest batch size.
pub fn fig9_inference_cpu_cost(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Figure 9",
        "Inference CPU cost (# cores) at the paper's batch sizes",
        &["model", "batch", "CPU-based", "nvJPEG", "DLBooster"],
    );
    for model in inference_models() {
        let bs = model.paper_batch_size();
        let run = |kind| {
            crate::inference::InferenceSim::run(
                cal.clone(),
                crate::inference::InferenceParams::paper(model, kind, bs),
            )
            .cpu_cores
        };
        rep.push_row(Row::new(&[
            model.name().to_string(),
            bs.to_string(),
            fmt_cores(run(BackendKind::CpuBased)),
            fmt_cores(run(BackendKind::NvJpeg)),
            fmt_cores(run(BackendKind::DlBooster)),
        ]));
    }
    rep.note("paper: CPU-based burns 7-14 cores/GPU, nvJPEG ~1.5, DLBooster ~0.5");
    rep
}

/// §5.4 economics table.
pub fn sec54_economics() -> FigureReport {
    let r = analyze(&EconomicsInputs::paper());
    let mut rep = FigureReport::new(
        "Section 5.4",
        "Economic analysis per deployed FPGA decoder",
        &["quantity", "value"],
    );
    rep.push_row(Row::new(&[
        "freed-core revenue ($/h)".to_string(),
        format!("{:.2}", r.freed_core_revenue_per_hour),
    ]));
    rep.push_row(Row::new(&[
        "core revenue ($/year)".to_string(),
        format!("{:.0}", r.core_revenue_per_year),
    ]));
    rep.push_row(Row::new(&[
        "CPU decode power cost ($/h)".to_string(),
        format!("{:.3}", r.cpu_decode_power_cost_per_hour),
    ]));
    rep.push_row(Row::new(&[
        "FPGA power cost ($/h)".to_string(),
        format!("{:.4}", r.fpga_power_cost_per_hour),
    ]));
    rep.push_row(Row::new(&[
        "FPGA amortisation ($/h)".to_string(),
        format!("{:.3}", r.fpga_amortisation_per_hour),
    ]));
    rep.push_row(Row::new(&[
        "net provider benefit ($/h)".to_string(),
        format!("{:.2}", r.net_benefit_per_hour),
    ]));
    rep.push_row(Row::new(&[
        "power saved (W)".to_string(),
        format!("{:.0}", r.watts_saved),
    ]));
    rep.note("paper: core ~$0.10-0.11/h (~$900/yr); 1 FPGA ~ 30 cores; saved cores resell >$1.5/h");
    rep.note("paper: power 25W FPGA vs 130W CPU vs 250W GPU");
    rep
}

pub use crate::inference::OVERLOAD_MULTIPLIERS;

/// Goodput vs offered load through the SLO-aware serving layer (beyond
/// the paper: the ROADMAP's "heavy traffic" regime). GoogLeNet on the
/// DLBooster backend, the paper's five clients as equal-weight tenants,
/// deadline-aware shedding, 50 ms SLO.
pub(crate) fn overload_goodput_sweep(cal: &Calibration) -> FigureReport {
    let slo = SimTime::from_millis(50);
    let cfg = ServingConfig::five_clients(32, slo, ShedPolicy::DeadlineAware);
    let points = InferenceSim::overload_sweep_grid(
        cal,
        ModelZoo::GoogLeNet,
        BackendKind::DlBooster,
        32,
        cfg,
        &SweepGrid::default(),
        7,
    );
    let mut rep = goodput_vs_offered_load(
        "GoogLeNet / DLBooster bs32, 5 tenants, deadline-aware shedding, 50 ms SLO",
        &points,
    );
    rep.note("expected: goodput plateaus at capacity beyond 1.0x while p99 stays inside the SLO");
    rep
}

/// Ablation A1 (§5.2): batched pool memory vs per-datum copies. The
/// training DES charges the baselines one small copy per datum and
/// DLBooster one block copy per batch, so DLBooster vs CPU-based on the
/// cached MNIST workload isolates that difference (paper: small-piece
/// copies cost ≈ 20 % of LeNet-5 throughput).
pub(crate) fn ablation_batch_memory(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Ablation A1",
        "Batched pool memory vs per-datum copies (LeNet-5, batch 512)",
        &["variant", "throughput (img/s)"],
    );
    let batched = TrainingSim::run(
        cal.clone(),
        TrainingParams::paper(
            ModelZoo::LeNet5,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        ),
    );
    let per_datum = TrainingSim::run(
        cal.clone(),
        TrainingParams::paper(
            ModelZoo::LeNet5,
            TrainBackend::Kind(BackendKind::CpuBased),
            1,
        ),
    );
    rep.push_row(Row::new(&[
        "batched unit (DLBooster)".to_string(),
        format!("{:.0}", batched.throughput),
    ]));
    rep.push_row(Row::new(&[
        "per-datum copies (baseline)".to_string(),
        format!("{:.0}", per_datum.throughput),
    ]));
    let loss = 1.0 - per_datum.throughput / batched.throughput;
    rep.note(format!(
        "measured small-copy loss: {:.0}% (paper: ~20%)",
        loss * 100.0
    ));
    rep
}

/// Ablation A2 (§3.3): FPGA decoder width sweep. The paper chose 4-way
/// Huffman / 2-way resize for load balance; sweeping the widths shows the
/// bottleneck move and where the Arria-10 budget runs out.
pub(crate) fn ablation_pipeline_width() -> FigureReport {
    let mut rep = FigureReport::new(
        "Ablation A2",
        "FPGA decoder width sweep (ILSVRC-like images)",
        &[
            "huffman ways",
            "resize ways",
            "throughput (img/s)",
            "bottleneck",
            "fits Arria-10",
        ],
    );
    let spec = DeviceSpec::arria10_ax();
    let w = ImageWorkload::ilsvrc_like();
    for (hw, rw) in [(1, 1), (2, 1), (2, 2), (4, 2), (8, 2), (8, 4), (16, 8)] {
        let mirror = DecoderMirror::jpeg_with_ways(hw, rw);
        let fits = spec.budget.fits(&mirror.resources).is_ok();
        let model = FpgaTimingModel::from_mirror(&mirror, &spec);
        rep.push_row(Row::new(&[
            hw.to_string(),
            rw.to_string(),
            format!("{:.0}", model.throughput_images_per_sec(&w)),
            model.bottleneck(&w).to_string(),
            fits.to_string(),
        ]));
    }
    rep.note("paper §3.3: 4/2 chosen so neither unit straggles within the resource budget");
    rep
}

/// Ablation A3 (§3.3 optimisation 1): decoupled pipelined stages vs a
/// fused decoder in which every image pays its full stage sum with no
/// cross-stage overlap (Huffman lanes still run in parallel across
/// images).
pub(crate) fn ablation_pipelining() -> FigureReport {
    let mut rep = FigureReport::new(
        "Ablation A3",
        "Decoupled pipelined stages vs a fused decoder (batch 64)",
        &["variant", "batch service (ms)", "images/s"],
    );
    let model = FpgaTimingModel::paper_config();
    let images = vec![ImageWorkload::ilsvrc_like(); 64];
    let pipelined = model.batch_service_time(&images);
    let fused_secs: f64 = images
        .iter()
        .map(|w| model.stage_times(w).total().as_secs_f64() / model.huffman_ways as f64)
        .sum();
    rep.push_row(Row::new(&[
        "pipelined (paper)".to_string(),
        format!("{:.2}", pipelined.as_millis_f64()),
        format!("{:.0}", 64.0 / pipelined.as_secs_f64()),
    ]));
    rep.push_row(Row::new(&[
        "fused".to_string(),
        format!("{:.2}", fused_secs * 1e3),
        format!("{:.0}", 64.0 / fused_secs),
    ]));
    rep.note("paper §3.3(1): decoupled units work in pipelining and increase parallelism");
    rep
}

/// Ablation A4 (§3.4.1): asynchronous FPGAReader vs synchronous
/// submission (AlexNet, 1 GPU). Async is the shipped DES, whose prefetch
/// keeps the FPGA busy during GPU iterations; sync serialises decode and
/// compute, i.e. the ideal-backend iteration time plus one FPGA batch
/// service per iteration.
pub(crate) fn ablation_async_reader(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Ablation A4",
        "Asynchronous FPGAReader (prefetch) vs synchronous submission (AlexNet, 1 GPU)",
        &["variant", "throughput (img/s)"],
    );
    let asynchronous = TrainingSim::run(
        cal.clone(),
        TrainingParams::paper(
            ModelZoo::AlexNet,
            TrainBackend::Kind(BackendKind::DlBooster),
            1,
        ),
    );
    let ideal = TrainingSim::run(
        cal.clone(),
        TrainingParams::paper(ModelZoo::AlexNet, TrainBackend::Ideal, 1),
    );
    let images = vec![ImageWorkload::ilsvrc_like(); 256];
    let decode = cal.fpga.batch_service_time(&images).as_secs_f64();
    let iter_ideal = 256.0 / ideal.throughput;
    let sync_throughput = 256.0 / (iter_ideal + decode);
    rep.push_row(Row::new(&[
        "async (Algorithm 1)".to_string(),
        format!("{:.0}", asynchronous.throughput),
    ]));
    rep.push_row(Row::new(&[
        "sync (no prefetch)".to_string(),
        format!("{sync_throughput:.0}"),
    ]));
    rep.note("paper §3.4.1: async submission achieves high throughput and low latency");
    rep
}

/// Ablation A5 (§7 future work 2): host-bounce copy vs direct FPGA-to-GPU
/// DMA (ResNet-50 / DLBooster, batch 16, 2,000 req/s).
pub(crate) fn ablation_direct_gpu_dma(cal: &Calibration) -> FigureReport {
    let mut rep = FigureReport::new(
        "Ablation A5",
        "Host-bounce copy vs direct FPGA-to-GPU DMA (paper §7 future work 2)",
        &["variant", "median latency (ms)", "throughput (img/s)"],
    );
    let mut base = InferenceParams::paper(ModelZoo::ResNet50, BackendKind::DlBooster, 16);
    base.mode = DriveMode::Load { rate: 2_000.0 };
    base.batches = 150;
    base.warmup = 25;
    let mut direct = base.clone();
    direct.direct_gpu_dma = true;
    let host = InferenceSim::run(cal.clone(), base);
    let peer = InferenceSim::run(cal.clone(), direct);
    rep.push_row(Row::new(&[
        "host bounce (shipped)".to_string(),
        format!("{:.2}", host.p50_latency.as_millis_f64()),
        format!("{:.0}", host.throughput),
    ]));
    rep.push_row(Row::new(&[
        "direct GPU DMA".to_string(),
        format!("{:.2}", peer.p50_latency.as_millis_f64()),
        format!("{:.0}", peer.throughput),
    ]));
    rep.note("paper §7: direct device writes promise lower latency; the saved hop is one PCIe batch copy");
    rep
}

/// Every figure in paper order, then the five design-choice ablations
/// (the `figures` binary prints these).
pub fn all_figures(cal: &Calibration) -> Vec<FigureReport> {
    vec![
        fig2_motivation(cal),
        fig5_training_throughput(cal),
        fig6_training_cpu_cost(cal),
        fig7_inference_throughput(cal),
        fig8_inference_latency(cal),
        fig9_inference_cpu_cost(cal),
        sec54_economics(),
        overload_goodput_sweep(cal),
        cluster_degradation_figure(),
        ablation_batch_memory(cal),
        ablation_pipeline_width(),
        ablation_pipelining(),
        ablation_async_reader(cal),
        ablation_direct_gpu_dma(cal),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_rows_and_shapes() {
        let rep = fig2_motivation(&Calibration::paper());
        assert_eq!(rep.rows.len(), 8);
        // Default config is far below the bound (paper: ~25 %).
        let ideal: f64 = rep.rows[0].cells[2]
            .replace('k', "000")
            .replace('.', "")
            .parse()
            .unwrap_or(0.0);
        assert!(ideal > 0.0);
    }

    #[test]
    fn fig9_report_has_three_models() {
        let rep = fig9_inference_cpu_cost(&Calibration::paper());
        assert_eq!(rep.rows.len(), 3);
        for row in &rep.rows {
            let cpu: f64 = row.cells[2].parse().unwrap();
            let nv: f64 = row.cells[3].parse().unwrap();
            let dlb: f64 = row.cells[4].parse().unwrap();
            assert!(cpu > nv && nv > dlb, "{:?}", row.cells);
        }
    }

    fn cell(rep: &FigureReport, row: usize, col: usize) -> f64 {
        rep.rows[row].cells[col].parse().unwrap()
    }

    #[test]
    fn ablation_a1_per_datum_copies_cost_throughput() {
        let rep = ablation_batch_memory(&Calibration::paper());
        let loss = 1.0 - cell(&rep, 1, 1) / cell(&rep, 0, 1);
        assert!(
            loss > 0.05,
            "per-datum copies must cost something: {loss:.3}"
        );
    }

    #[test]
    fn ablation_a3_pipelining_beats_a_fused_decoder() {
        let rep = ablation_pipelining();
        let (pipelined, fused) = (cell(&rep, 0, 1), cell(&rep, 1, 1));
        assert!(
            pipelined < fused,
            "pipelining must win: {pipelined} vs {fused} ms"
        );
    }

    #[test]
    fn ablation_a4_async_reader_beats_sync_by_ten_percent() {
        let rep = ablation_async_reader(&Calibration::paper());
        let (asynchronous, sync) = (cell(&rep, 0, 1), cell(&rep, 1, 1));
        assert!(asynchronous > sync * 1.1, "{asynchronous} vs {sync} img/s");
    }

    #[test]
    fn ablation_a5_direct_dma_lowers_median_latency() {
        let rep = ablation_direct_gpu_dma(&Calibration::paper());
        let (host, direct) = (cell(&rep, 0, 1), cell(&rep, 1, 1));
        assert!(direct < host, "direct {direct} vs host bounce {host} ms");
    }

    #[test]
    fn batch_axis_shapes() {
        assert_eq!(batch_axis(ModelZoo::GoogLeNet), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(batch_axis(ModelZoo::ResNet50).last(), Some(&64));
    }
}
