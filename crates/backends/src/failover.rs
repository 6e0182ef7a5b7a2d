//! FPGA→CPU graceful degradation.
//!
//! DLBooster's FPGA decode path is the fast plane, but a wedged or
//! poisoned decoder must not take the training run down with it. This
//! module wraps a [`DlBooster`] primary in a [`FailoverBackend`] that
//! watches every batch wait: when a slot starves past a deadline (or the
//! primary dies outright), it retires the FPGA pipeline with
//! [`DlBooster::quiesce`] and finishes the run on a CPU fallback built
//! on the spot — without losing or duplicating a single batch.
//!
//! The accounting that makes "no loss, no dup" exact:
//!
//! * `quiesce()` closes the primary's slot queues and waits out any
//!   delivery in progress, so [`DlBooster::delivered`] is the *final*
//!   count of batches that will ever leave the primary (consumed already,
//!   plus residue still queued).
//! * The fallback is constructed with `max_batches = total − delivered`,
//!   so primary + fallback together emit exactly the configured total.
//! * Residue batches stay poppable from the primary's closed slot
//!   queues and are served before the fallback's output; their units
//!   recycle into the primary's still-open pool (recycles are routed by
//!   [`MemManager::owns`](dlb_membridge::MemManager::owns)).

use dlb_chaos::CancelToken;
use dlb_membridge::BatchUnit;
use dlb_telemetry::{names, Counter, Telemetry};
use dlb_trace::{stages, Tracer};
use dlbooster_core::{BackendError, DlBooster, HostBatch, PreprocessBackend};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Builds the fallback backend once failover triggers. Receives the
/// remaining batch budget (`total − primary.delivered()`).
pub type FallbackFactory =
    Box<dyn FnOnce(u64) -> Result<Box<dyn PreprocessBackend>, String> + Send>;

/// Failover policy knobs.
pub struct FailoverConfig {
    /// Batches the whole run must deliver (primary + fallback).
    pub total_batches: u64,
    /// How long one slot may starve before the primary is declared
    /// wedged.
    pub deadline: Duration,
    /// Cancelled right before quiescing the primary so chaos-injected
    /// stalls release their lanes instead of riding out the full delay.
    pub chaos_cancel: Option<CancelToken>,
}

/// A [`PreprocessBackend`] that serves from a [`DlBooster`] primary and
/// fails over to a lazily-built CPU backend when the primary wedges.
pub struct FailoverBackend {
    primary: Arc<DlBooster>,
    factory: Mutex<Option<FallbackFactory>>,
    fallback: OnceLock<Box<dyn PreprocessBackend>>,
    failed_over: AtomicBool,
    total: u64,
    deadline: Duration,
    chaos_cancel: Option<CancelToken>,
    failovers: Arc<Counter>,
    tracer_cell: Arc<OnceLock<Arc<Tracer>>>,
}

impl FailoverBackend {
    /// Wraps `primary`, keeping `factory` in reserve. The factory runs at
    /// most once, on the first detected wedge.
    pub fn new(
        primary: Arc<DlBooster>,
        factory: FallbackFactory,
        config: FailoverConfig,
        telemetry: &Telemetry,
    ) -> Self {
        Self {
            primary,
            factory: Mutex::new(Some(factory)),
            fallback: OnceLock::new(),
            failed_over: AtomicBool::new(false),
            total: config.total_batches,
            deadline: config.deadline,
            chaos_cancel: config.chaos_cancel,
            failovers: telemetry.registry.counter(names::CHAOS_FAILOVER_TOTAL),
            tracer_cell: telemetry.tracer_cell(),
        }
    }

    /// True once the CPU fallback took over.
    pub fn failed_over(&self) -> bool {
        self.failed_over.load(Ordering::Acquire)
    }

    /// Performs the primary→fallback swap exactly once; concurrent
    /// callers (one per slot) serialize on the factory lock and all but
    /// the first find the work already done.
    fn fail_over(&self, why: &str) -> Result<(), BackendError> {
        let mut factory = self.factory.lock();
        if self.failed_over.load(Ordering::Acquire) {
            return Ok(());
        }
        // Release chaos-injected stalls first, so the reader is not left
        // riding out an injected multi-second lane delay.
        if let Some(cancel) = &self.chaos_cancel {
            cancel.cancel();
        }
        self.primary.quiesce();
        let remaining = self.total.saturating_sub(self.primary.delivered());
        let build = factory
            .take()
            .expect("factory consumed only under this lock");
        let fallback = build(remaining).map_err(|detail| BackendError::Failed {
            detail: format!("failover ({why}): fallback refused to start: {detail}"),
        })?;
        if self.fallback.set(fallback).is_err() {
            unreachable!("fallback set exactly once, under the factory lock");
        }
        self.failovers.inc();
        if let Some(t) = self.tracer_cell.get() {
            // Pipeline-level event, not tied to one batch ordinal.
            t.mark(0, stages::FAILOVER);
        }
        self.failed_over.store(true, Ordering::Release);
        Ok(())
    }

    /// Residue the quiesced primary still holds for `slot`, if any.
    fn pop_residue(&self, slot: usize) -> Option<HostBatch> {
        self.primary
            .next_batch_timeout(slot, Duration::ZERO)
            .unwrap_or_default()
    }
}

impl PreprocessBackend for FailoverBackend {
    fn name(&self) -> &'static str {
        "DLBooster+CPU-failover"
    }

    fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        loop {
            if self.failed_over() {
                // Drain what the primary decoded before the wedge, then
                // hand the slot to the fallback.
                if let Some(batch) = self.pop_residue(slot) {
                    return Ok(batch);
                }
                return self
                    .fallback
                    .get()
                    .expect("failed_over implies fallback present")
                    .next_batch(slot);
            }
            match self.primary.next_batch_timeout(slot, self.deadline) {
                Ok(Some(batch)) => return Ok(batch),
                Ok(None) => {
                    // Starved. If the run is actually complete the queue
                    // closes momentarily — don't fail over on the
                    // end-of-stream edge.
                    if self.primary.delivered() >= self.total {
                        continue;
                    }
                    self.fail_over("slot starved past deadline")?;
                }
                Err(BackendError::Exhausted) => {
                    // Primary closed: natural completion, or it died
                    // before delivering the full budget.
                    if self.primary.delivered() >= self.total {
                        return Err(BackendError::Exhausted);
                    }
                    self.fail_over("primary closed early")?;
                }
                Err(err) => {
                    self.fail_over("primary failed")?;
                    let _ = err;
                }
            }
        }
    }

    fn recycle(&self, unit: BatchUnit) {
        if self.primary.pool().owns(&unit) {
            self.primary.recycle(unit);
        } else if let Some(fallback) = self.fallback.get() {
            fallback.recycle(unit);
        }
        // A unit owned by neither pool cannot exist: every batch this
        // backend hands out came from one of the two.
    }

    fn max_batch_bytes(&self) -> usize {
        let fb = self.fallback.get().map_or(0, |f| f.max_batch_bytes());
        self.primary.max_batch_bytes().max(fb)
    }

    fn cpu_busy_nanos(&self) -> u64 {
        self.primary.cpu_busy_nanos() + self.fallback.get().map_or(0, |f| f.cpu_busy_nanos())
    }

    fn shutdown(&self) {
        if let Some(cancel) = &self.chaos_cancel {
            cancel.cancel();
        }
        self.primary.shutdown();
        if let Some(fallback) = self.fallback.get() {
            fallback.shutdown();
        }
    }
}

impl std::fmt::Debug for FailoverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverBackend")
            .field("failed_over", &self.failed_over())
            .field("total", &self.total)
            .field("deadline", &self.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuBackend, CpuBackendConfig};
    use dlb_chaos::{FaultPlan, StageSpec};
    use dlb_fpga::{DecoderEngine, DecoderMirror, DeviceSpec, FpgaDevice};
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};
    use dlbooster_core::{CombinedResolver, DataCollector, DlBoosterConfig, FpgaChannel};
    use std::collections::HashSet;

    const TOTAL: u64 = 12;
    const BATCH: usize = 4;
    const SIDE: u16 = 32;

    /// A primary whose FPGA lanes wedge hard (multi-second chaos stalls
    /// at a high rate, far past the reader's grasp), plus the failover
    /// wrapper with a CPU fallback factory over the same dataset.
    fn wedged_rig() -> (FailoverBackend, Arc<Telemetry>) {
        let telemetry = Telemetry::with_defaults();
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(
            DatasetSpec::ilsvrc_small((TOTAL as usize) * BATCH, 77),
            &disk,
        )
        .unwrap();
        let records = ds.records.clone();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&disk)));
        let engine =
            DecoderEngine::start_with_telemetry(dev, Arc::clone(&resolver) as _, &telemetry)
                .unwrap();

        // Chaos: every other cmd stalls its lane for 30 s — the primary
        // will deliver a few batches and then starve every slot.
        let mut plan = FaultPlan::disabled();
        plan.seed = 11;
        plan.fpga = StageSpec::rate(0.5).with_delay(Duration::from_secs(30));
        let cancel = plan.cancel_token();
        engine.attach_chaos(plan.injector(dlb_chaos::Stage::Fpga, &telemetry).unwrap());

        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let config = DlBoosterConfig::training(
            1,
            BATCH,
            (SIDE, SIDE),
            (TOTAL as usize) * BATCH,
            Some(TOTAL),
        );
        let primary = Arc::new(
            DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
                .unwrap(),
        );

        let t2 = Arc::clone(&telemetry);
        let factory: FallbackFactory = Box::new(move |remaining| {
            let collector = Arc::new(DataCollector::load_from_disk(&records, 0));
            let resolver = Arc::new(CombinedResolver::disk_only(disk));
            CpuBackend::start_with_telemetry(
                collector,
                resolver,
                CpuBackendConfig {
                    n_engines: 1,
                    batch_size: BATCH,
                    target_w: SIDE as u32,
                    target_h: SIDE as u32,
                    workers: 2,
                    max_batches: Some(remaining),
                    sample_cache: None,
                },
                t2,
            )
            .map(|b| Box::new(b) as Box<dyn PreprocessBackend>)
        });
        let backend = FailoverBackend::new(
            primary,
            factory,
            FailoverConfig {
                total_batches: TOTAL,
                deadline: Duration::from_millis(150),
                chaos_cancel: Some(cancel),
            },
            &telemetry,
        );
        (backend, telemetry)
    }

    #[test]
    fn wedged_primary_fails_over_and_completes_exactly() {
        let (backend, telemetry) = wedged_rig();
        let mut primary_batches = 0u64;
        let mut fallback_batches = 0u64;
        let mut primary_seqs = HashSet::new();
        loop {
            match backend.next_batch(0) {
                Ok(batch) => {
                    if backend.primary.pool().owns(&batch.unit) {
                        primary_batches += 1;
                        assert!(
                            primary_seqs.insert(batch.sequence),
                            "duplicate primary sequence {}",
                            batch.sequence
                        );
                    } else {
                        fallback_batches += 1;
                    }
                    backend.recycle(batch.unit);
                }
                Err(BackendError::Exhausted) => break,
                Err(e) => panic!("unexpected backend error: {e}"),
            }
        }
        assert!(backend.failed_over(), "wedge must trigger failover");
        assert_eq!(
            primary_batches + fallback_batches,
            TOTAL,
            "exactly the configured total, no loss, no duplication \
             (primary {primary_batches} + fallback {fallback_batches})"
        );
        assert_eq!(primary_batches, backend.primary.delivered());
        assert!(
            fallback_batches > 0,
            "a 30s lane stall cannot finish 12 batches in time on its own"
        );
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter(names::CHAOS_FAILOVER_TOTAL), 1);
        backend.shutdown();
    }

    #[test]
    fn healthy_primary_never_fails_over() {
        let telemetry = Telemetry::with_defaults();
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let engine =
            DecoderEngine::start(dev, Arc::new(CombinedResolver::disk_only(disk))).unwrap();
        let channel = FpgaChannel::init_with_telemetry(engine, 0, &telemetry);
        let config = DlBoosterConfig::training(1, 4, (16, 16), 16, Some(4));
        let primary = Arc::new(
            DlBooster::start_with_telemetry(collector, channel, config, Arc::clone(&telemetry))
                .unwrap(),
        );
        let backend = FailoverBackend::new(
            primary,
            Box::new(|_| Err("factory must not run for a healthy primary".into())),
            FailoverConfig {
                total_batches: 4,
                deadline: Duration::from_secs(10),
                chaos_cancel: None,
            },
            &telemetry,
        );
        let mut n = 0;
        while let Ok(batch) = backend.next_batch(0) {
            n += 1;
            backend.recycle(batch.unit);
        }
        assert_eq!(n, 4);
        assert!(!backend.failed_over());
        assert_eq!(
            telemetry
                .registry
                .snapshot()
                .counter(names::CHAOS_FAILOVER_TOTAL),
            0
        );
        backend.shutdown();
    }
}
