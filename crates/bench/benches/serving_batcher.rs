//! Serving-layer microbench: the dynamic batch former's close behaviour as
//! a function of arrival rate, plus the hot-path costs of the WFQ and the
//! batch former themselves.
//!
//! The sweep drives Poisson arrivals through a [`BatchFormer`] (batch 32,
//! 2 ms linger — the `five_clients` overload config) at rates from deep
//! starvation to saturation and records, per rate, the mean formed batch
//! size, the fraction of batches closed by linger expiry, and the mean
//! close latency (first push → close). The sweep drives the two timer
//! rules alone — a pipeline that is always busy, so the idle rule never
//! fires: under light load every batch should close by linger at
//! ~`max_linger`; under heavy load batches should fill to `max_batch` with
//! close latency `~ max_batch / rate`. The table is
//! printed and archived to `target/figure-reports/serving_batcher.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dlb_bench::{print_report, save_reports};
use dlb_serving::{BatchFormer, CloseReason, ServeRequest, WeightedFairQueue};
use dlb_simcore::{SimRng, SimTime};
use dlb_workflows::report::{FigureReport, Row};
use std::hint::black_box;

const MAX_BATCH: u32 = 32;
const MAX_LINGER: SimTime = SimTime::from_millis(2);

fn req(id: u64, now: SimTime) -> ServeRequest {
    ServeRequest {
        id,
        tenant: (id % 5) as u32,
        arrival: now,
        deadline: now + SimTime::from_millis(50),
    }
}

/// Drives `n_requests` Poisson arrivals at `rate` through a fresh former
/// and returns (mean batch size, linger-closed fraction, mean close
/// latency in ms).
fn former_sweep_point(rate: f64, n_requests: u64, seed: u64) -> (f64, f64, f64) {
    let mut former = BatchFormer::new(MAX_BATCH, MAX_LINGER);
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut opened_at = SimTime::ZERO;
    let mut batches = 0u64;
    let mut items = 0u64;
    let mut lingered = 0u64;
    let mut close_latency = SimTime::ZERO;
    let mut close = |batch: dlb_serving::FormedBatch, closed_at: SimTime, opened: SimTime| {
        batches += 1;
        items += batch.len() as u64;
        if batch.reason != CloseReason::Full {
            lingered += 1;
        }
        close_latency += closed_at - opened;
    };
    for id in 0..n_requests {
        let step = SimTime::from_secs_f64(rng.exponential(1.0 / rate));
        let arrival = now + step;
        // Fire any due linger timer before the next arrival lands.
        if let Some(due) = former.linger_deadline() {
            if due <= arrival {
                let generation = former.generation();
                if let Some(b) = former.close_if_due(due, generation) {
                    close(b, due, opened_at);
                }
            }
        }
        now = arrival;
        if former.pending() == 0 {
            opened_at = now;
        }
        if let Some(b) = former.push(req(id, now), now) {
            close(b, now, opened_at);
        }
    }
    if let Some(b) = former.force_close() {
        let closed_at = now;
        close(b, closed_at, opened_at);
    }
    let mean_size = items as f64 / batches as f64;
    let linger_frac = lingered as f64 / batches as f64;
    let mean_close_ms = close_latency.as_secs_f64() * 1e3 / batches as f64;
    (mean_size, linger_frac, mean_close_ms)
}

fn batcher_close_report() -> FigureReport {
    let mut report = FigureReport::new(
        "Serving batcher: close behaviour vs arrival rate",
        "batch 32, 2 ms linger, Poisson arrivals (50k requests per point, seed 17)",
        &["rate req/s", "mean batch", "linger closes", "mean close ms"],
    );
    for rate in [500.0, 2_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0] {
        let (mean_size, linger_frac, close_ms) = former_sweep_point(rate, 50_000, 17);
        report.push_row(Row::new(&[
            format!("{rate:.0}"),
            format!("{mean_size:.1}"),
            format!("{:.0}%", linger_frac * 100.0),
            format!("{close_ms:.3}"),
        ]));
    }
    report.note("light load: batches close by linger at ~2 ms; heavy load: full batches of 32");
    report
}

fn bench(c: &mut Criterion) {
    let report = batcher_close_report();
    print_report(&report);
    match save_reports("serving_batcher", &[report]) {
        Ok(path) => println!("  archived to {}", path.display()),
        Err(err) => println!("  (archive skipped: {err})"),
    }

    let mut group = c.benchmark_group("serving");

    // Hot path: one push into a forming batch plus the close when full.
    group.throughput(Throughput::Elements(MAX_BATCH as u64));
    group.bench_function("batch_former_fill32_close", |b| {
        let mut former = BatchFormer::new(MAX_BATCH, MAX_LINGER);
        let now = SimTime::from_millis(1);
        b.iter(|| {
            let mut out = None;
            for id in 0..MAX_BATCH as u64 {
                out = former.push(black_box(req(id, now)), now);
            }
            out.expect("batch closed full")
        })
    });

    // WFQ push+pop cycle across 5 backlogged tenant classes.
    group.throughput(Throughput::Elements(1));
    group.bench_function("wfq_5tenant_push_pop", |b| {
        let mut q = WeightedFairQueue::new((0..5).map(|t| (t, 1)));
        for id in 0..64u64 {
            q.push((id % 5) as u32, req(id, SimTime::ZERO));
        }
        let mut id = 64u64;
        b.iter(|| {
            q.push((id % 5) as u32, req(id, SimTime::ZERO));
            id += 1;
            black_box(q.pop().expect("backlogged"))
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
