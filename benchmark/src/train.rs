//! The four training workloads: bytes on the simulated disk → a backend →
//! a real `Dispatcher` → `TransQueues.full`, with one benchmark thread
//! standing in for the compute engine (pop a filled device buffer, check
//! it, hand the buffer straight back).

use crate::alloc::{self, AllocDelta};
use crate::corpus::{digest, Corpus, BATCH, ITEM_BYTES, TARGET};
use crate::engine::{self, EngineSide, Quiet};
use crate::host;
use crate::stats;
use dlbooster::core::dispatcher::DeviceBatch;
use dlbooster::prelude::*;
use dlbooster::telemetry::Counter;
use dlbooster::trace::SpanKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainKind {
    Fpga,
    Cpu,
    Warm,
    Churn,
}

impl TrainKind {
    /// Decoded-sample cache budget: none, twice the decoded corpus (every
    /// sample stays resident) or half of it (every epoch evicts).
    fn sample_cache_bytes(self, corpus: &Corpus) -> u64 {
        match self {
            TrainKind::Fpga | TrainKind::Cpu => 0,
            TrainKind::Warm => 2 * corpus.decoded_bytes(),
            TrainKind::Churn => corpus.decoded_bytes() / 2,
        }
    }

    /// Batches consumed (and fully checked) before the measured section:
    /// 16 to fill every queue; on `Warm` the cold fill epoch plus 52
    /// resident batches; on `Churn` one epoch plus 4 so eviction has begun.
    fn warmup_batches(self, corpus: &Corpus) -> usize {
        let epoch = corpus.records().len() / BATCH;
        match self {
            TrainKind::Fpga | TrainKind::Cpu => 16,
            TrainKind::Warm => epoch + 52,
            TrainKind::Churn => epoch + 4,
        }
    }
}

/// Span stage of the benchmark's own consumer: the engine blocked in
/// `TransQueues.full.pop()`.
const STAGE_ENGINE_POP: &str = "bench.engine.pop";

/// A started, warmed-up training pipeline.
pub struct Live<'c> {
    kind: TrainKind,
    corpus: &'c Corpus,
    backend: Arc<dyn PreprocessBackend>,
    booster: Option<Arc<DlBooster>>,
    engine: EngineSide,
    telemetry: Arc<Telemetry>,
    tracer: Option<Arc<Tracer>>,
    /// `decoder.items_in` of the FPGA engine (stays 0 on the CPU backend).
    decoder_items: Arc<Counter>,
    reader_item_errors: Arc<Counter>,
    /// First constructor call → end of warm-up.
    pub setup_s: f64,
    pub failed: u64,
    pub attempted: u64,
}

/// What one measured section produced.
pub struct Section {
    pub started: Instant,
    pub images: u64,
    /// Every pop: when, the process CPU time then, and how long the engine
    /// blocked in `full.pop()` per batch over the round of batches it ended.
    pub record: stats::Record,
    /// `DeviceBatch.ready_at` → popped, per batch.
    pub ready_to_trans_ms: Vec<f64>,
    pub alloc: AllocDelta,
    pub decoder_items: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
}

/// Read after the pipeline is torn down.
pub struct Final {
    pub quiet: Quiet,
    pub resident_mb: f64,
}

impl<'c> Live<'c> {
    /// Builds the pipeline for `kind`, consumes and checks the warm-up
    /// batches, and returns it ready to measure. `tracer` is installed on
    /// the pipeline's telemetry hub before any stage starts.
    pub fn start(
        kind: TrainKind,
        corpus: &'c Corpus,
        seed: u64,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let telemetry = Telemetry::with_defaults();
        if let Some(t) = &tracer {
            telemetry.install_tracer(Arc::clone(t));
        }
        let collector = Arc::new(DataCollector::load_from_disk(
            corpus.records(),
            shuffle_seed(seed),
        ));
        let resolver = Arc::new(CombinedResolver::disk_only(Arc::clone(&corpus.disk)));
        let mut decoder_items = Arc::new(Counter::default());
        let mut booster = None;

        let backend: Arc<dyn PreprocessBackend> = if kind == TrainKind::Cpu {
            // A telemetry hub switches the CPU workers' per-stage decode
            // timers on, so timed runs go without one.
            Arc::new(match &tracer {
                Some(_) => CpuBackend::start_with_telemetry(
                    collector,
                    resolver,
                    engine::cpu_config(),
                    Arc::clone(&telemetry),
                ),
                None => CpuBackend::start(collector, resolver, engine::cpu_config()),
            }?)
        } else {
            let decoder = engine::decoder(resolver, &telemetry)?;
            decoder_items = Arc::clone(&decoder.stats().items_in);
            let b = Arc::new(DlBooster::start_with_telemetry(
                collector,
                FpgaChannel::init_with_telemetry(decoder, 0, &telemetry),
                engine::training_config(corpus.records().len(), kind.sample_cache_bytes(corpus)),
                Arc::clone(&telemetry),
            )?);
            booster = Some(Arc::clone(&b));
            b
        };

        let engine = EngineSide::attach(Arc::clone(&backend), &telemetry)?;

        let reader_item_errors = telemetry
            .registry
            .counter(dlbooster::telemetry::names::READER_ITEM_ERRORS);
        let mut live = Live {
            kind,
            corpus,
            backend,
            booster,
            engine,
            telemetry,
            tracer,
            decoder_items,
            reader_item_errors,
            setup_s: 0.0,
            failed: 0,
            attempted: 0,
        };
        for _ in 0..kind.warmup_batches(corpus) {
            let batch = live.engine.pop()?;
            live.check(&batch, 0..BATCH);
            live.engine.give_back(batch)?;
        }
        live.setup_s = t0.elapsed().as_secs_f64();
        Ok(live)
    }

    /// Checks a delivered batch: item count, every item's geometry, length
    /// and bounds, and for the items in `pixels` that the bytes are exactly
    /// one record's reference decode carrying that record's label.
    fn check(&mut self, batch: &DeviceBatch, pixels: std::ops::Range<usize>) {
        self.attempted += BATCH as u64;
        self.failed += BATCH.saturating_sub(batch.items.len()) as u64;
        for (i, item) in batch.items.iter().enumerate() {
            let shaped = item.len == ITEM_BYTES
                && item.width == TARGET.0 as u32
                && item.height == TARGET.1 as u32
                && item.channels == 3
                && item.offset + item.len <= batch.dev.len();
            let ok = shaped
                && (!pixels.contains(&i) || {
                    let bytes = &batch.dev.bytes()[item.offset..item.offset + item.len];
                    self.corpus.by_digest.get(&digest(bytes)) == Some(&item.label)
                });
            if !ok {
                self.failed += 1;
            }
        }
    }

    /// Consumes batches for `seconds` (at most `max_batches`), checking one
    /// rotating item of each batch bit for bit and the rest by shape.
    pub fn measure(&mut self, seconds: f64, max_batches: usize) -> Result<Section, String> {
        let expect = ((seconds * 4000.0) as usize + 64).min(max_batches);
        let mut ready_ms: Vec<f64> = Vec::with_capacity(expect);
        let mut wait_ms: Vec<f64> = Vec::with_capacity(expect);
        let round = engine::decode_ways();
        let cache0 = self.cache_counts();
        let decoder0 = self.decoder_items.get();
        let errors0 = self.reader_item_errors.get();
        // Reserved before the allocator is read: the section's allocations
        // are the pipeline's.
        let mut record = stats::Record::begin(host::process_cpu_ms(), expect, expect);
        let alloc0 = alloc::totals();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut images = 0u64;
        loop {
            let asked = Instant::now();
            let batch = self.engine.pop()?;
            let got = Instant::now();
            if let Some(t) = &self.tracer {
                t.span(
                    batch.sequence + 1,
                    STAGE_ENGINE_POP,
                    SpanKind::Queue,
                    asked,
                    got,
                );
            }
            let n = batch.items.len() as u64;
            // The CPU backend's workers each deliver a whole batch, so its
            // batches come in bursts of `round` and single waits read 5 ms
            // or 60 ms by the workers' phase, which drifts. What a trainer
            // that prefetches feels is the wait over a round.
            wait_ms.push(host::ms(got - asked));
            let recent = &wait_ms[wait_ms.len().saturating_sub(round)..];
            record
                .latency_ms
                .push(recent.iter().sum::<f64>() / recent.len() as f64);
            record.pop((got - start).as_secs_f64(), host::process_cpu_ms(), n, n);
            ready_ms.push(host::ms(got.saturating_duration_since(batch.ready_at)));
            images += n;
            let probe = record.pop_count() % BATCH;
            self.check(&batch, probe..probe + 1);
            self.engine.give_back(batch)?;
            if got >= deadline || record.pop_count() >= max_batches {
                break;
            }
        }
        let alloc = AllocDelta::since(alloc0);
        self.failed += self.reader_item_errors.get() - errors0;
        let cache1 = self.cache_counts();
        Ok(Section {
            started: start,
            images,
            record,
            ready_to_trans_ms: ready_ms,
            alloc,
            decoder_items: self.decoder_items.get() - decoder0,
            cache_lookups: cache1.0 - cache0.0,
            cache_hits: cache1.1 - cache0.1,
            cache_evictions: cache1.2 - cache0.2,
        })
    }

    /// `(lookups, hits, evictions)` of the decoded-sample cache so far.
    fn cache_counts(&self) -> (u64, u64, u64) {
        match self.booster.as_ref().and_then(|b| b.sample_cache()) {
            Some(c) => {
                let (lookups, hits, _) = c.lookup_stats();
                (lookups, hits, c.churn_stats().1)
            }
            None => (0, 0, 0),
        }
    }

    /// What the workload was built to exercise must have happened in
    /// `section`; otherwise the numbers describe some other workload.
    pub fn validity_errors(&self, section: &Section) -> Vec<String> {
        let mut errors = Vec::new();
        let hit_frac = section.cache_hits as f64 / section.cache_lookups.max(1) as f64;
        match self.kind {
            TrainKind::Fpga | TrainKind::Cpu => {
                if section.cache_lookups != 0 {
                    errors.push("sample cache in use on a cache-off workload".into());
                }
            }
            TrainKind::Warm => {
                if section.cache_hits != section.cache_lookups || section.cache_lookups == 0 {
                    errors.push(format!("train_warm hit fraction {hit_frac} is not 1"));
                }
                if section.decoder_items != 0 {
                    errors.push(format!(
                        "train_warm decoded {} items in the measured section",
                        section.decoder_items
                    ));
                }
            }
            TrainKind::Churn => {
                if section.cache_evictions == 0 {
                    errors.push("train_churn evicted nothing".into());
                }
                if !(hit_frac > 0.0 && hit_frac < 1.0) {
                    errors.push(format!("train_churn hit fraction {hit_frac} not in (0, 1)"));
                }
            }
        }
        // On the decoding FPGA workloads every delivered image came out of
        // the engine, give or take the batches in flight at either edge.
        if matches!(self.kind, TrainKind::Fpga | TrainKind::Churn)
            && section.decoder_items.abs_diff(section.images) > (8 * BATCH) as u64
        {
            errors.push(format!(
                "engine decoded {} items for {} delivered images",
                section.decoder_items, section.images
            ));
        }
        if let Some(b) = &self.booster {
            if b.cache().stats() != (0, 0, 0) || b.cache().used_bytes() != 0 {
                errors.push("EpochCache was touched although cache_bytes = 0".into());
            }
        }
        errors
    }

    /// Stops the pipeline, joins every thread it started, and reads what is
    /// only final once it is quiet.
    pub fn stop(self) -> Final {
        let resident_mb = self
            .booster
            .as_ref()
            .and_then(|b| b.sample_cache())
            .map_or(0.0, |c| c.resident_bytes() as f64 / (1 << 20) as f64);
        self.engine.detach(self.backend.as_ref());
        drop(self.booster);
        drop(self.backend);
        Final {
            quiet: Quiet::read(&self.telemetry),
            resident_mb,
        }
    }
}

/// The collector treats shuffle seed 0 as "do not shuffle".
fn shuffle_seed(seed: u64) -> u64 {
    (seed ^ 0x5EED_5A17).max(1)
}
