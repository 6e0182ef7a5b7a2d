//! Critical-path reporting: fold a [`CriticalPathReport`] from `dlb-trace`
//! into the repo's standard [`FigureReport`] plane, alongside the paper
//! figures. One row per stage (service-busy time, utilization, span
//! count), with the headline bottleneck sentence — "`cpu.decode` is the
//! binding stage at 83% utilization" — and the mean queue/service split
//! as notes.

use crate::report::{fmt_ratio, FigureReport, Row};
use dlb_trace::CriticalPathReport;

/// Renders `report` as the "Critical path" figure.
pub fn critical_path_figure(report: &CriticalPathReport) -> FigureReport {
    let mut rep = FigureReport::new(
        "Critical path",
        "Per-stage service load and pipeline bottleneck (from dlb-trace spans)",
        &["stage", "busy (ms)", "utilization", "spans"],
    );
    for s in &report.stages {
        rep.push_row(Row::new(&[
            s.stage.to_string(),
            format!("{:.3}", s.busy_ns as f64 / 1e6),
            fmt_ratio(s.utilization),
            s.spans.to_string(),
        ]));
    }
    match report.bottleneck() {
        Some(top) => rep.note(format!(
            "{} is the binding stage at {:.0}% utilization",
            top.stage,
            top.utilization * 100.0
        )),
        None => rep.note("no service spans recorded"),
    }
    let (queue, service, unattributed) = report.mean_split();
    rep.note(format!(
        "mean per-batch split: queue {:.3} ms / service {:.3} ms / unattributed {:.3} ms \
         over {} batches",
        queue / 1e6,
        service / 1e6,
        unattributed / 1e6,
        report.batches.len()
    ));
    if report.dropped > 0 {
        rep.note(format!(
            "{} spans dropped at the ring — attribution is best-effort",
            report.dropped
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_trace::{stages, SpanKind, Tracer};
    use std::time::Duration;

    #[test]
    fn figure_names_the_binding_stage() {
        let t = Tracer::new();
        let t0 = t.now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        for i in 0..5u64 {
            let b = t.next_batch_id();
            let (start, mid, end) = (i * 100, i * 100 + 15, i * 100 + 95);
            t.span(
                b,
                stages::QUEUE_DELIVER,
                SpanKind::Queue,
                at(start),
                at(mid),
            );
            t.span(b, stages::CPU_DECODE, SpanKind::Service, at(mid), at(end));
        }
        let rep = critical_path_figure(&t.snapshot().critical_path());
        assert_eq!(rep.rows.len(), 1, "one service stage: {:?}", rep.rows);
        assert_eq!(rep.rows[0].cells[0], stages::CPU_DECODE);
        assert!(
            rep.notes
                .iter()
                .any(|n| n.contains("cpu.decode is the binding stage at")),
            "{:?}",
            rep.notes
        );
        // Queue wait shows up in the split note, not the stage table.
        assert!(rep.notes.iter().any(|n| n.contains("queue")));
    }

    #[test]
    fn empty_trace_renders_without_stages() {
        let t = Tracer::new();
        let rep = critical_path_figure(&t.snapshot().critical_path());
        assert!(rep.rows.is_empty());
        assert!(rep.notes.iter().any(|n| n.contains("no service spans")));
    }
}
