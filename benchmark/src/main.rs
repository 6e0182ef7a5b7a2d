//! The repo's pipeline benchmark. See `README.md` beside `Cargo.toml` for
//! what is measured and why; `/BENCHMARK.json` names the command.
//!
//! ```text
//! dlb-pipeline-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dlb-pipeline-benchmark [--quick] [--seed n] [--seconds s] [--trace 0|1]   # all five
//! dlb-pipeline-benchmark --selfcheck [runs per set] [--seconds s]
//! ```

mod alloc;
mod corpus;
mod engine;
mod host;
mod layers;
mod serve;
mod stats;
mod train;

use corpus::Corpus;
use dlbooster::telemetry::Json;
use dlbooster::trace::{stages, TraceSnapshot, Tracer, BATCH_ORDINAL_BASE};
use std::process::ExitCode;
use std::sync::Arc;
use train::TrainKind;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Why each was chosen is recorded in `/BENCHMARK.json` and `README.md`.
const WORKLOADS: [&str; 5] = [
    "train_fpga",
    "train_cpu",
    "train_warm",
    "train_churn",
    "serve_open",
];

/// `(name, unit, higher is better, bound)`: what a timed run prints.
const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("images_per_s", "img/s", true, 0.25),
    ("cpu_ms_per_image", "ms", false, 0.25),
    ("latency_p50_ms", "ms", false, 0.25),
    ("latency_p90_ms", "ms", false, 0.25),
    ("alloc_kb_per_image", "KiB", false, 0.08),
    ("peak_rss_mb", "MiB", false, 0.25),
    ("setup_s", "s", false, 0.25),
];

/// `(name, unit)`: what a traced run prints, in ledger order.
const PER_LAYER: [(&str, &str); 69] = [
    ("codec.decode_ms_per_image", "ms"),
    ("codec.huffman_ms_per_image", "ms"),
    ("codec.idct_ms_per_image", "ms"),
    ("codec.color_ms_per_image", "ms"),
    ("codec.resize_ms_per_image", "ms"),
    ("codec.stage_timing_overhead_frac", "frac"),
    ("codec.alloc_kb_per_image", "KiB"),
    ("codec.allocs_per_image", "count"),
    ("fpga.engine_images_per_s", "img/s"),
    ("fpga.batch_service_ms_p50", "ms"),
    ("fpga.lane_service_ms_mean", "ms"),
    ("fpga.alloc_kb_per_image", "KiB"),
    ("backends.next_batch_images_per_s", "img/s"),
    ("backends.cpu_busy_ms_per_image", "ms"),
    ("core.next_batch_images_per_s", "img/s"),
    ("core.next_metas_us_per_batch", "us"),
    ("core.fetch_us_per_image", "us"),
    ("core.fetch_alloc_kb_per_image", "KiB"),
    ("core.dispatcher_alone_batches_per_s", "1/s"),
    ("core.dispatcher_alloc_kb_per_batch", "KiB"),
    ("core.dispatcher_cpu_busy_us_per_batch", "us"),
    ("membridge.lease_recycle_ns", "ns"),
    ("membridge.queue_push_pop_ns", "ns"),
    ("membridge.queue_roundtrip_ns", "ns"),
    ("membridge.restore_us_per_batch", "us"),
    ("cache.lookup_hit_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.insert_evict_us", "us"),
    ("cache.insert_alloc_kb", "KiB"),
    ("gpu.h2d_us_per_batch", "us"),
    ("storage.read_us_per_image", "us"),
    ("graph.compile_us", "us"),
    ("net.deliver_us_per_frame", "us"),
    ("net.fetch_us_per_frame", "us"),
    ("serving.ingest_us_per_request", "us"),
    ("core.ready_to_trans_ms_p50", "ms"),
    ("core.dispatcher_copy_latency_ms_mean", "ms"),
    ("core.pipeline_lane_service_ms_mean", "ms"),
    ("cache.hit_frac", "frac"),
    ("cache.evictions_per_image", "count"),
    ("cache.resident_mb", "MiB"),
    ("net.frames_dropped", "count"),
    ("net.frames_bad", "count"),
    ("serving.batch_size_mean", "count"),
    ("serving.rejected", "count"),
    ("serving.shed", "count"),
    ("serving.slo_missed", "count"),
    ("attr.pool.lease_ms_per_batch", "ms"),
    ("attr.fpga.decode_ms_per_batch", "ms"),
    ("attr.cpu.decode_ms_per_batch", "ms"),
    ("attr.storage.fetch_ms_per_batch", "ms"),
    ("attr.cpu.resize_ms_per_batch", "ms"),
    ("attr.cache.bypass_ms_per_batch", "ms"),
    ("attr.queue.deliver_ms_per_batch", "ms"),
    ("attr.dispatch.h2d_ms_per_batch", "ms"),
    ("attr.unattributed_ms_per_batch", "ms"),
    ("attr.window_ms_per_batch", "ms"),
    ("trace.batches", "count"),
    ("trace.dropped", "count"),
    ("trace.overhead_frac", "frac"),
    ("telemetry.snapshot_violations", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.gen_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.steal_ms", "ms"),
    ("host.nproc", "count"),
    ("run.images_per_s", "img/s"),
];

/// The data-path stages of `dlb_trace::stages` that `attr.*` reports.
const ATTR_STAGES: [&str; 8] = [
    stages::POOL_LEASE,
    stages::FPGA_DECODE,
    stages::CPU_DECODE,
    stages::FETCH,
    stages::RESIZE,
    stages::CACHE_BYPASS,
    stages::QUEUE_DELIVER,
    stages::DISPATCH_H2D,
];

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A traced or reference section stops here even if its time is not up, so
/// the Perfetto file stays small and no span ring wraps.
const TRACED_MAX_BATCHES: usize = 2048;
/// Named values with units, in insertion order.
#[derive(Default)]
pub struct Ledger(Vec<(String, f64, &'static str)>);

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v =
                        Json::object(vec![("value", Json::Num(*value)), ("unit", (*unit).into())]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// What one invocation reports.
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Ledger,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        quick: false,
        selfcheck: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--selfcheck" => {
                let runs = it.next_if(|v| !v.starts_with("--"));
                args.selfcheck = Some(match runs {
                    Some(v) => v.parse().map_err(|e| format!("--selfcheck: {e}"))?,
                    None => 5,
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds = args.seconds.min(1.0);
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.selfcheck, &args.workload) {
        (Some(runs), _) => selfcheck(*runs, &args),
        (None, None) => all_workloads(&args),
        (None, Some(w)) => one_workload(w, &args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process and prints its result line.
fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name}"));
    }
    println!(
        "# {name}: seed {}, {} s, trace {}, nproc {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc()
    );
    let report = if args.trace {
        traced(name, args)?
    } else {
        timed(name, args)?
    };
    for e in &report.errors {
        println!("# FAILED CHECK: {e}");
    }
    let mut declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut printed: Vec<&str> = report.metrics.0.iter().map(|m| m.0.as_str()).collect();
    declared.sort_unstable();
    printed.sort_unstable();
    if printed != declared {
        return Err(format!("metrics differ from the declared set: {printed:?}"));
    }
    let correct = report.errors.is_empty() && report.failed == 0;
    let line = Json::object(vec![
        ("correct", correct.into()),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", report.metrics.to_json()),
    ]);
    println!("{}", line.to_string_compact());
    Ok(correct)
}

fn train_kind(name: &str) -> Option<TrainKind> {
    match name {
        "train_fpga" => Some(TrainKind::Fpga),
        "train_cpu" => Some(TrainKind::Cpu),
        "train_warm" => Some(TrainKind::Warm),
        "train_churn" => Some(TrainKind::Churn),
        _ => None,
    }
}

/// Requests in a serve section that should last `seconds`.
fn serve_requests(seconds: f64) -> usize {
    ((seconds * serve::RATE_PER_S) as usize).max(stats::WINDOWS)
}

/// `--trace 0`: set up `SETUP_REPEATS` times, measure once, print the
/// end-to-end metrics.
fn timed(name: &str, args: &Args) -> Result<Report, String> {
    let corpus = Corpus::build(args.seed)?;
    println!(
        "# corpus: {} JPEGs, mean {:.1} KB, generated in {:.2} s",
        corpus.records().len(),
        corpus.dataset.mean_bytes() / 1e3,
        corpus.gen_s
    );
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut metrics = Ledger::default();
    let (attempted, failed, errors, steady, images_per_s, alloc_kb);

    if let Some(kind) = train_kind(name) {
        for _ in 1..repeats {
            let rehearsal = train::Live::start(kind, &corpus, args.seed, None)?;
            setups.push(rehearsal.setup_s);
            if rehearsal.failed != 0 {
                return Err(format!(
                    "{} warm-up items failed their check",
                    rehearsal.failed
                ));
            }
            rehearsal.stop();
        }
        let mut live = train::Live::start(kind, &corpus, args.seed, None)?;
        setups.push(live.setup_s);
        let section = live.measure(args.seconds, usize::MAX)?;
        errors = live.validity_errors(&section);
        (attempted, failed) = (live.attempted, live.failed);
        live.stop();
        steady = section.record.steady();
        images_per_s = steady.images_per_s;
        alloc_kb = section.alloc.kib_per(section.images);
    } else {
        for _ in 1..repeats {
            let rehearsal = serve::Live::start(&corpus, args.seed, None)?;
            setups.push(rehearsal.setup_s);
            rehearsal.stop();
        }
        let mut live = serve::Live::start(&corpus, args.seed, None)?;
        setups.push(live.setup_s);
        let section = live.run(serve_requests(args.seconds))?;
        errors = live.validity_errors(&section);
        (attempted, failed) = (section.requests, section.failed());
        live.stop();
        println!(
            "# serve: {} completed, {} past the {} ms SLO, generator late p99 {:.3} ms / max {:.3} ms",
            section.completed,
            section.slo_missed,
            serve::SLO.as_millis(),
            stats::quantile(&section.late_ms, 0.99),
            stats::max(&section.late_ms),
        );
        steady = section.record.steady();
        images_per_s = section.record.whole_rate();
        alloc_kb = section.alloc.kib_per(section.completed);
    }

    println!(
        "# img/s per window: {}",
        steady
            .window_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# time-based metrics are over the {} windows with the least CPU time per image; latency percentiles over {} samples ({} beyond p90); setup_s is the median of {repeats}",
        steady.kept,
        steady.samples,
        steady.samples / 10
    );
    metrics.put("images_per_s", images_per_s, "img/s");
    metrics.put("cpu_ms_per_image", steady.cpu_ms_per_image, "ms");
    metrics.put("latency_p50_ms", steady.latency_p50_ms, "ms");
    metrics.put("latency_p90_ms", steady.latency_p90_ms, "ms");
    metrics.put("alloc_kb_per_image", alloc_kb, "KiB");
    metrics.put("peak_rss_mb", host::peak_rss_mib(), "MiB");
    metrics.put("setup_s", stats::median(&setups), "s");
    Ok(Report {
        attempted,
        failed,
        errors,
        metrics,
    })
}

/// `--trace 1`: a reference section with tracing off, the same section with
/// a tracer installed, then the layer drives; prints the per-layer ledger
/// and writes the spans to `out/<workload>.trace.json`. Metrics of layers the
/// workload does not run read 0.
fn traced(name: &str, args: &Args) -> Result<Report, String> {
    let calib_ms = host::calib_ms();
    let steal0 = host::steal_ms();
    let corpus = Corpus::build(args.seed)?;
    let tracer = Arc::new(Tracer::new());
    let seconds = args.seconds / 4.0;
    let mut m = Ledger::default();
    let (attempted, failed, mut errors);
    // Of the traced section: when it began, and its and the reference's rate.
    let (started, reference_rate, traced_rate, quiet, ready_to_trans_ms);

    if let Some(kind) = train_kind(name) {
        let mut reference = train::Live::start(kind, &corpus, args.seed, None)?;
        reference_rate = reference
            .measure(seconds, TRACED_MAX_BATCHES)?
            .record
            .steady()
            .images_per_s;
        reference.stop();

        let mut live = train::Live::start(kind, &corpus, args.seed, Some(Arc::clone(&tracer)))?;
        let section = live.measure(seconds, TRACED_MAX_BATCHES)?;
        errors = live.validity_errors(&section);
        (attempted, failed) = (live.attempted, live.failed);
        let fin = live.stop();
        (started, quiet) = (section.started, fin.quiet);
        traced_rate = section.record.steady().images_per_s;
        ready_to_trans_ms = section.ready_to_trans_ms;
        m.put(
            "cache.hit_frac",
            section.cache_hits as f64 / section.cache_lookups.max(1) as f64,
            "frac",
        );
        m.put(
            "cache.evictions_per_image",
            section.cache_evictions as f64 / section.images as f64,
            "count",
        );
        m.put("cache.resident_mb", fin.resident_mb, "MiB");
    } else {
        let n = serve_requests(seconds);
        let mut reference = serve::Live::start(&corpus, args.seed, None)?;
        reference_rate = reference.run(n)?.record.whole_rate();
        reference.stop();

        let mut live = serve::Live::start(&corpus, args.seed, Some(Arc::clone(&tracer)))?;
        let section = live.run(n)?;
        errors = live.validity_errors(&section);
        (attempted, failed) = (section.requests, section.failed());
        let fin = live.stop();
        (started, quiet) = (section.started, fin.quiet);
        traced_rate = section.record.whole_rate();
        ready_to_trans_ms = section.ready_to_trans_ms;
        let late_max = stats::max(&section.late_ms);
        m.put("net.frames_dropped", fin.frames_dropped as f64, "count");
        m.put("net.frames_bad", fin.frames_bad as f64, "count");
        m.put(
            "serving.batch_size_mean",
            section.ingest.admitted as f64 / section.ingest.batches.max(1) as f64,
            "count",
        );
        m.put("serving.rejected", section.ingest.rejected as f64, "count");
        m.put("serving.shed", section.ingest.shed as f64, "count");
        m.put("serving.slo_missed", section.slo_missed as f64, "count");
        m.put(
            "loadgen.late_p99_ms",
            stats::quantile(&section.late_ms, 0.99),
            "ms",
        );
        m.put("loadgen.late_max_ms", late_max, "ms");
        m.put(
            "loadgen.latency_p99_ms",
            stats::quantile(&section.record.latency_ms, 0.99),
            "ms",
        );
    }

    m.put(
        "core.ready_to_trans_ms_p50",
        stats::quantile(&ready_to_trans_ms, 0.5),
        "ms",
    );
    m.put(
        "core.dispatcher_copy_latency_ms_mean",
        quiet.copy_latency_ms_mean,
        "ms",
    );
    m.put(
        "core.pipeline_lane_service_ms_mean",
        quiet.lane_service_ms_mean,
        "ms",
    );
    m.put(
        "telemetry.snapshot_violations",
        quiet.snapshot_violations as f64,
        "count",
    );
    if quiet.snapshot_violations != 0 {
        errors.push(format!(
            "{} conservation laws violated in the quiet snapshot",
            quiet.snapshot_violations
        ));
    }
    if let Err(e) = attribution(&tracer.snapshot(), tracer.ns_of(started), &mut m) {
        errors.push(e);
    }
    m.put(
        "trace.overhead_frac",
        1.0 - traced_rate / reference_rate,
        "frac",
    );
    m.put("run.images_per_s", traced_rate, "img/s");

    layers::run_all(&corpus, &tracer, &mut m)?;

    m.put("trace.dropped", tracer.dropped() as f64, "count");
    m.put("loadgen.gen_s", corpus.gen_s, "s");
    m.put("host.calib_ms", calib_ms, "ms");
    m.put("host.steal_ms", host::steal_ms() - steal0, "ms");
    m.put("host.nproc", host::nproc() as f64, "count");
    for (name, unit) in PER_LAYER {
        if !m.0.iter().any(|(n, ..)| n == name) {
            m.put(name, 0.0, unit);
        }
    }

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("{name}.trace.json"));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, tracer.snapshot().to_perfetto()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(Report {
        attempted,
        failed,
        errors,
        metrics: m,
    })
}

/// `attr.*`: the window of each pipeline batch born in the measured section
/// (from `since_ns` on the tracer's clock), split over the data-path stages
/// and averaged over batches. The parts and the unattributed rest add up to the
/// window by construction; a stage outside the eight would break that, so it
/// is an error.
fn attribution(trace: &TraceSnapshot, since_ns: u64, m: &mut Ledger) -> Result<(), String> {
    let batches: Vec<_> = trace
        .attribution()
        .into_iter()
        .filter(|b| b.batch >= BATCH_ORDINAL_BASE && b.start_ns >= since_ns)
        .collect();
    let n = batches.len().max(1) as f64;
    let per_batch_ms = |ns: u64| ns as f64 / 1e6 / n;
    let mut named = 0u64;
    for stage in ATTR_STAGES {
        let ns: u64 = batches
            .iter()
            .flat_map(|b| &b.parts)
            .filter(|p| p.stage == stage)
            .map(|p| p.ns)
            .sum();
        named += ns;
        m.put(
            &format!("attr.{stage}_ms_per_batch"),
            per_batch_ms(ns),
            "ms",
        );
    }
    let unattributed: u64 = batches.iter().map(|b| b.unattributed_ns).sum();
    let window: u64 = batches.iter().map(|b| b.total_ns()).sum();
    m.put(
        "attr.unattributed_ms_per_batch",
        per_batch_ms(unattributed),
        "ms",
    );
    m.put("attr.window_ms_per_batch", per_batch_ms(window), "ms");
    m.put("trace.batches", batches.len() as f64, "count");
    if batches.is_empty() {
        return Err("the traced section recorded no pipeline batch".into());
    }
    let gap = (named + unattributed).abs_diff(window) as f64 / window.max(1) as f64;
    if gap > 0.01 {
        return Err(format!(
            "attr.* covers the batch window only to within {:.1}%",
            gap * 100.0
        ));
    }
    Ok(())
}

/// One child run of this binary; returns its result line.
fn child(workload: &str, seed: u64, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!(
            "{workload} (seed {seed}) failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

/// The value of metric `name` in a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// No `--workload`: every workload in turn, one child process each (so peak
/// RSS and allocator state are each workload's own), as one table.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        eprintln!("running {workload} ...");
        let line = child(workload, args.seed, args)?;
        println!("{workload} {line}");
        lines.push(line);
    }
    print!("\n{:<38}", format!("seed {}", args.seed));
    for workload in WORKLOADS {
        print!("{workload:>14}");
    }
    println!();
    for (name, unit) in names {
        print!("{:<38}", format!("{name} [{unit}]"));
        for line in &lines {
            let v = metric_in(line, name).ok_or(format!("{name} missing from a result line"))?;
            print!("{v:>14.4}");
        }
        println!();
    }
    Ok(true)
}

/// `--selfcheck N`: two interleaved sets of `N` timed runs of this build on
/// every workload, each run with its own seed. Prints both medians, their
/// difference and the spread of all `2N` values against each bound; fails if
/// a median moved, or the values spread, by more than the bound.
fn selfcheck(runs: usize, args: &Args) -> Result<bool, String> {
    if runs < 2 {
        return Err("--selfcheck needs at least 2 runs per set".into());
    }
    let mut ok = true;
    println!(
        "selfcheck: 2 x {runs} runs per workload, {} s each, seeds from {}",
        args.seconds, args.seed
    );
    println!(
        "{:<12}{:<20}{:>12}{:>12}{:>9}{:>9}{:>8}  verdict",
        "workload", "metric", "median A", "median B", "|dA-B|", "spread", "bound"
    );
    for workload in WORKLOADS {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * runs {
            eprintln!("selfcheck: {workload} run {} of {}", i + 1, 2 * runs);
            let timed = Args {
                trace: false,
                quick: false,
                workload: None,
                selfcheck: None,
                ..*args
            };
            sets[i % 2].push(child(workload, args.seed + i as u64, &timed)?);
        }
        for (name, _, higher_is_better, bound) in END_TO_END {
            let values = |set: &[String]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|l| metric_in(l, name).ok_or(format!("{name} missing")))
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = stats::spread(&all);
            // `setup_s` is gated on its medians only.
            let steady = name == "setup_s" || spread <= bound;
            let pass = worse.abs() <= bound && steady;
            ok &= pass;
            println!(
                "{workload:<12}{name:<20}{ma:>12.4}{mb:>12.4}{:>8.2}%{:>8.2}%{:>7.0}%  {}",
                worse.abs() * 100.0,
                spread * 100.0,
                bound * 100.0,
                if !pass {
                    "FAIL"
                } else if spread > bound / 3.0 {
                    "ok (spread above a third of the bound)"
                } else {
                    "ok"
                },
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/BENCHMARK.json` is written by hand; it must declare exactly what
    /// this binary prints.
    #[test]
    fn benchmark_json_declares_what_is_printed() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit) in PER_LAYER {
            assert!(
                declared(name, unit),
                "per_layer metric {name} [{unit}] not declared"
            );
        }
        for name in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\":")),
                "workload {name}"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn result_lines_parse_back() {
        let mut m = Ledger::default();
        m.put("images_per_s", 1057.25, "img/s");
        m.put("setup_s", 0.5, "s");
        let line = Json::object(vec![("correct", true.into()), ("metrics", m.to_json())])
            .to_string_compact();
        assert_eq!(metric_in(&line, "images_per_s"), Some(1057.25));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_in(&line, "absent"), None);
    }
}
