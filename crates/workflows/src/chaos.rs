//! Degraded-mode experiment: what a training run loses when the FPGA
//! decode plane wedges mid-run and DLBooster fails over to the CPU
//! backend.
//!
//! The paper only evaluates the healthy pipeline; operators of the
//! real system care just as much about the failure envelope. This
//! driver runs the *functional* pipeline (real decode, no DES) with a
//! seeded chaos plan that stalls FPGA lanes far past the failover
//! deadline, lets the [`FailoverBackend`] retire the primary and finish
//! on CPU, and reports the batch split, the fault ledger and the
//! conservation verdict as a figure-style table.

use crate::report::{FigureReport, Row};
use dlb_backends::{CpuBackend, CpuBackendConfig, FailoverBackend, FailoverConfig};
use dlb_chaos::{FaultPlan, Stage, StageSpec};
use dlb_fpga::{DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice};
use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};
use dlb_telemetry::{ChaosMetrics, PipelineSnapshot, Telemetry};
use dlbooster_core::{
    BackendError, CombinedResolver, DataCollector, DlBooster, DlBoosterConfig, FpgaChannel,
    PreprocessBackend,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for one degraded-mode run.
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Chaos seed (drives which lane jobs stall).
    pub seed: u64,
    /// Batches the run must deliver in total.
    pub total_batches: u64,
    /// Images per batch.
    pub batch_size: usize,
    /// Square decode target edge.
    pub side: u16,
    /// Probability a lane job wedges.
    pub stall_rate: f64,
    /// How long a wedged lane stalls (released early by failover).
    pub stall: Duration,
    /// Slot starvation deadline before failover triggers.
    pub deadline: Duration,
    /// CPU fallback decode workers.
    pub fallback_workers: usize,
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self {
            seed: 11,
            total_batches: 12,
            batch_size: 4,
            side: 32,
            stall_rate: 0.5,
            stall: Duration::from_secs(30),
            deadline: Duration::from_millis(150),
            fallback_workers: 2,
        }
    }
}

/// The outcome of one degraded-mode run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Chaos seed used.
    pub seed: u64,
    /// Batches the FPGA primary delivered before it was retired.
    pub from_primary: u64,
    /// Batches the CPU fallback delivered after the swap.
    pub from_fallback: u64,
    /// Whether failover actually triggered.
    pub failed_over: bool,
    /// Wall-clock for the whole run.
    pub wall: Duration,
    /// The chaos/retry ledger (faults injected, failovers performed).
    pub chaos: ChaosMetrics,
    /// Full end-of-run snapshot (conservation checks, per-stage detail).
    pub snapshot: PipelineSnapshot,
}

impl ChaosOutcome {
    /// Total batches delivered across both planes.
    pub fn delivered(&self) -> u64 {
        self.from_primary + self.from_fallback
    }
}

/// Runs the functional pipeline under a wedging FPGA chaos plan with
/// FPGA→CPU failover armed, and returns the accounting.
pub fn run_degraded_training(params: &ChaosParams) -> Result<ChaosOutcome, String> {
    let telemetry = Telemetry::with_defaults();
    let n_images = params.total_batches as usize * params.batch_size;
    let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
    let dataset = Dataset::build(DatasetSpec::ilsvrc_small(n_images, 77), &disk)
        .map_err(|e| e.to_string())?;
    let records = dataset.records.clone();
    let collector = Arc::new(DataCollector::load_from_disk(&dataset.records, 0));
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_paper_config())
        .map_err(|e| e.to_string())?;
    let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&disk)));
    let engine =
        DecoderEngine::start_with_telemetry(device, Arc::clone(&resolver) as _, &telemetry)
            .map_err(|e| e.to_string())?;

    let mut plan = FaultPlan::disabled();
    plan.seed = params.seed;
    plan.fpga = StageSpec::rate(params.stall_rate).with_delay(params.stall);
    let cancel = plan.cancel_token();
    if let Some(inj) = plan.injector(Stage::Fpga, &telemetry) {
        engine.attach_chaos(inj);
    }

    let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
    let mut config = DlBoosterConfig::training(
        1,
        params.batch_size,
        (params.side, params.side),
        n_images,
        Some(params.total_batches),
    );
    // The fault plan keys on decode jobs: every batch must reach the FPGA.
    config.sample_cache_bytes = 0;
    let primary = Arc::new(DlBooster::start_with_telemetry(
        collector,
        channel,
        config,
        Arc::clone(&telemetry),
    )?);

    let t2 = Arc::clone(&telemetry);
    let (batch_size, side, workers) = (params.batch_size, params.side, params.fallback_workers);
    let backend = FailoverBackend::new(
        Arc::clone(&primary),
        Box::new(move |remaining| {
            let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
            CpuBackend::start_with_telemetry(
                collector,
                Arc::new(CombinedResolver::disk_only(disk)),
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size,
                    target_w: side as u32,
                    target_h: side as u32,
                    workers,
                    max_batches: Some(remaining),
                    sample_cache: None,
                },
                t2,
            )
            .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
        }),
        FailoverConfig {
            total_batches: params.total_batches,
            deadline: params.deadline,
            chaos_cancel: Some(cancel),
        },
        &telemetry,
    );

    let started = Instant::now();
    let mut from_primary = 0u64;
    let mut from_fallback = 0u64;
    loop {
        match backend.next_batch(0) {
            Ok(batch) => {
                if primary.pool().owns(&batch.unit) {
                    from_primary += 1;
                } else {
                    from_fallback += 1;
                }
                backend.recycle(batch.unit);
            }
            Err(BackendError::Exhausted) => break,
            Err(e) => return Err(format!("degraded run failed: {e}")),
        }
    }
    let wall = started.elapsed();
    let failed_over = backend.failed_over();
    backend.shutdown();
    drop(backend);
    drop(primary); // join pipeline threads so the snapshot is final

    let snapshot = telemetry.pipeline_snapshot();
    Ok(ChaosOutcome {
        seed: params.seed,
        from_primary,
        from_fallback,
        failed_over,
        wall,
        chaos: snapshot.chaos.clone(),
        snapshot,
    })
}

/// The degraded-mode figure: one row per run showing how the batch
/// budget split across the FPGA primary and the CPU fallback, the fault
/// ledger, and whether conservation held.
pub fn degraded_mode_figure(outcomes: &[ChaosOutcome]) -> FigureReport {
    let mut rep = FigureReport::new(
        "Degraded mode",
        "FPGA wedge -> CPU failover: batch budget split under chaos",
        &[
            "seed",
            "total",
            "fpga",
            "cpu",
            "failovers",
            "faults",
            "wall ms",
            "conserved",
        ],
    );
    for o in outcomes {
        rep.push_row(Row::new(&[
            o.seed.to_string(),
            o.delivered().to_string(),
            o.from_primary.to_string(),
            o.from_fallback.to_string(),
            o.chaos.failovers.to_string(),
            o.chaos.faults_total.to_string(),
            format!("{:.0}", o.wall.as_secs_f64() * 1e3),
            if o.snapshot.invariant_violations().is_empty() {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]));
    }
    rep.note(
        "every batch is delivered exactly once: fpga + cpu always equals the \
         configured total, whatever the seed wedges",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_run_completes_budget_and_reports() {
        let params = ChaosParams {
            total_batches: 8,
            ..ChaosParams::default()
        };
        let out = run_degraded_training(&params).unwrap();
        assert_eq!(out.delivered(), 8, "exact budget, no loss, no dup");
        assert!(out.failed_over, "a 30s stall at rate 0.5 must wedge");
        assert_eq!(out.chaos.failovers, 1);
        assert!(out.from_fallback > 0);
        assert!(
            out.snapshot.invariant_violations().is_empty(),
            "violations: {:?}",
            out.snapshot.invariant_violations()
        );

        let fig = degraded_mode_figure(std::slice::from_ref(&out));
        let text = fig.render();
        assert!(text.contains("Degraded mode"));
        assert!(text.contains("yes"), "conservation column must say yes");
        assert_eq!(fig.to_json()["rows"][0]["cells"][1], "8");
    }

    #[test]
    fn healthy_run_never_fails_over() {
        let params = ChaosParams {
            total_batches: 4,
            stall_rate: 0.0,
            deadline: Duration::from_secs(10),
            ..ChaosParams::default()
        };
        let out = run_degraded_training(&params).unwrap();
        assert_eq!(out.delivered(), 4);
        assert!(!out.failed_over);
        assert_eq!(out.from_fallback, 0);
        assert_eq!(out.chaos.failovers, 0);
    }
}
