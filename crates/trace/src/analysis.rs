//! Critical-path analysis: fold a [`TraceSnapshot`]
//! into per-batch latency attribution and a pipeline-level bottleneck report.
//!
//! ## Attribution model
//!
//! For one batch, its window is `[min start, max end]` over all of its
//! spans. The window is cut at every span boundary; each segment is charged
//! to exactly one covering span — service beats queue, and among equals the
//! latest-starting (innermost) span wins, so a decode nested inside a broad
//! queue wait is charged as decode. Segments no span covers go to an
//! explicit `unattributed` bucket. By construction
//! `sum(parts) + unattributed == end-to-end window` **exactly** — the
//! "sums to end-to-end within tolerance" acceptance criterion holds with
//! zero error.
//!
//! [`SpanKind::Link`] records re-key a duplicate
//! ordinal's spans onto the winning ordinal before attribution, so hedged
//! duplicates and re-decodes fold into the surviving copy's timeline.

use crate::{SpanKind, SpanRecord, TraceSnapshot};
use std::collections::{BTreeMap, HashMap};

/// Time charged to one `(stage, kind)` pair within a batch's window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributedPart {
    /// Canonical stage name.
    pub stage: &'static str,
    /// Whether this was queue wait or service time.
    pub kind: SpanKind,
    /// Nanoseconds charged.
    pub ns: u64,
}

/// Where one batch's end-to-end latency went.
#[derive(Clone, Debug)]
pub struct BatchAttribution {
    /// Batch ordinal (post link resolution: the winning copy's ordinal).
    pub batch: u64,
    /// Window start, nanoseconds since tracer epoch.
    pub start_ns: u64,
    /// Window end, nanoseconds since tracer epoch.
    pub end_ns: u64,
    /// Charged segments, largest first.
    pub parts: Vec<AttributedPart>,
    /// Window time no span covered.
    pub unattributed_ns: u64,
}

impl BatchAttribution {
    /// End-to-end window length.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of all charged parts (excludes `unattributed_ns`).
    pub fn attributed_ns(&self) -> u64 {
        self.parts.iter().map(|p| p.ns).sum()
    }

    /// Nanoseconds charged to `stage` with `kind`, 0 if absent.
    pub fn part_ns(&self, stage: &str, kind: SpanKind) -> u64 {
        self.parts
            .iter()
            .filter(|p| p.stage == stage && p.kind == kind)
            .map(|p| p.ns)
            .sum()
    }
}

/// Aggregate service load of one stage over the whole run.
#[derive(Clone, Debug)]
pub struct StageLoad {
    /// Canonical stage name.
    pub stage: &'static str,
    /// Union of this stage's service intervals (overlaps merged), ns.
    pub busy_ns: u64,
    /// `busy_ns / wall_ns` — fraction of the run this stage was working.
    pub utilization: f64,
    /// Number of service spans recorded for the stage.
    pub spans: u64,
}

/// Whole-run critical-path report.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Wall-clock span of the run: `[first span start, last span end]`, ns.
    pub wall_ns: u64,
    /// Per-batch latency attribution, ordered by batch ordinal.
    pub batches: Vec<BatchAttribution>,
    /// Per-stage service load, highest utilization first.
    pub stages: Vec<StageLoad>,
    /// Spans lost to ring overflow (attribution is best-effort when > 0).
    pub dropped: u64,
}

impl CriticalPathReport {
    /// The binding stage: highest service utilization, if any stage
    /// recorded service time.
    pub fn bottleneck(&self) -> Option<&StageLoad> {
        self.stages.first()
    }

    /// Mean queue-wait vs service split across batches, as
    /// `(queue_ns, service_ns, unattributed_ns)` means.
    pub fn mean_split(&self) -> (f64, f64, f64) {
        if self.batches.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = self.batches.len() as f64;
        let mut queue = 0.0;
        let mut service = 0.0;
        let mut other = 0.0;
        for b in &self.batches {
            for p in &b.parts {
                match p.kind {
                    SpanKind::Queue => queue += p.ns as f64,
                    SpanKind::Service => service += p.ns as f64,
                    _ => {}
                }
            }
            other += b.unattributed_ns as f64;
        }
        (queue / n, service / n, other / n)
    }
}

impl TraceSnapshot {
    /// Resolve [`SpanKind::Link`] aliases: map each duplicate ordinal to its
    /// final winner (following chains up to a small bound).
    fn link_map(&self) -> HashMap<u64, u64> {
        let mut direct: HashMap<u64, u64> = HashMap::new();
        for e in &self.events {
            if e.kind == SpanKind::Link {
                direct.insert(e.batch, e.link);
            }
        }
        let mut resolved = HashMap::new();
        for (&from, &mut mut to) in direct.clone().iter_mut() {
            for _ in 0..4 {
                match direct.get(&to) {
                    Some(&next) if next != to => to = next,
                    _ => break,
                }
            }
            resolved.insert(from, to);
        }
        resolved
    }

    /// Per-batch latency attribution (see module docs for the model).
    pub fn attribution(&self) -> Vec<BatchAttribution> {
        let links = self.link_map();
        let mut by_batch: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for e in &self.events {
            if !matches!(e.kind, SpanKind::Queue | SpanKind::Service) {
                continue;
            }
            let key = *links.get(&e.batch).unwrap_or(&e.batch);
            by_batch.entry(key).or_default().push(e);
        }
        by_batch
            .into_iter()
            .map(|(batch, spans)| attribute_one(batch, &spans))
            .collect()
    }

    /// Fold the whole snapshot into a [`CriticalPathReport`].
    pub fn critical_path(&self) -> CriticalPathReport {
        let batches = self.attribution();
        let timed: Vec<&SpanRecord> = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::Queue | SpanKind::Service))
            .collect();
        let wall_start = timed.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let wall_end = timed.iter().map(|e| e.end_ns).max().unwrap_or(0);
        let wall_ns = wall_end.saturating_sub(wall_start);

        let mut per_stage: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        let mut span_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &timed {
            if e.kind == SpanKind::Service && e.end_ns > e.start_ns {
                per_stage
                    .entry(e.stage)
                    .or_default()
                    .push((e.start_ns, e.end_ns));
                *span_counts.entry(e.stage).or_default() += 1;
            }
        }
        let mut stages: Vec<StageLoad> = per_stage
            .into_iter()
            .map(|(stage, mut ivals)| {
                ivals.sort_unstable();
                let busy_ns = union_len(&ivals);
                StageLoad {
                    stage,
                    busy_ns,
                    utilization: if wall_ns > 0 {
                        busy_ns as f64 / wall_ns as f64
                    } else {
                        0.0
                    },
                    spans: span_counts.get(stage).copied().unwrap_or(0),
                }
            })
            .collect();
        stages.sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then_with(|| a.stage.cmp(b.stage)));

        CriticalPathReport {
            wall_ns,
            batches,
            stages,
            dropped: self.dropped,
        }
    }
}

/// Total length of the union of sorted `(start, end)` intervals.
fn union_len(sorted: &[(u64, u64)]) -> u64 {
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in sorted {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

fn attribute_one(batch: u64, spans: &[&SpanRecord]) -> BatchAttribution {
    let start_ns = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end_ns = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);

    // Cut the window at every span boundary.
    let mut cuts: Vec<u64> = Vec::with_capacity(spans.len() * 2);
    for s in spans.iter() {
        cuts.push(s.start_ns);
        cuts.push(s.end_ns);
    }
    cuts.sort_unstable();
    cuts.dedup();

    let mut charged: BTreeMap<(&'static str, SpanKind), u64> = BTreeMap::new();
    let mut unattributed_ns = 0u64;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let len = b - a;
        if len == 0 {
            continue;
        }
        // Owner: any span covering [a, b); service beats queue, then the
        // latest-starting (innermost) span wins.
        let owner = spans
            .iter()
            .filter(|s| s.start_ns <= a && s.end_ns >= b && s.end_ns > s.start_ns)
            .max_by_key(|s| (s.kind == SpanKind::Service, s.start_ns, s.span));
        match owner {
            Some(s) => *charged.entry((s.stage, s.kind)).or_default() += len,
            None => unattributed_ns += len,
        }
    }

    let mut parts: Vec<AttributedPart> = charged
        .into_iter()
        .map(|((stage, kind), ns)| AttributedPart { stage, kind, ns })
        .collect();
    parts.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.stage.cmp(b.stage)));

    BatchAttribution {
        batch,
        start_ns,
        end_ns,
        parts,
        unattributed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stages, Tracer};

    #[test]
    fn attribution_sums_exactly_to_window() {
        let t = Tracer::new();
        let b = t.next_batch_id();
        // Queue 0..100, service 30..60 nested inside, gap 100..120, queue 120..150.
        t.span_ns(b, stages::QUEUE_DELIVER, SpanKind::Queue, 0, 100);
        t.span_ns(b, stages::CPU_DECODE, SpanKind::Service, 30, 60);
        t.span_ns(b, stages::POOL_LEASE, SpanKind::Queue, 120, 150);
        let attr = t.snapshot().attribution();
        assert_eq!(attr.len(), 1);
        let a = &attr[0];
        assert_eq!(a.total_ns(), 150);
        assert_eq!(a.attributed_ns() + a.unattributed_ns, a.total_ns());
        assert_eq!(a.unattributed_ns, 20);
        assert_eq!(a.part_ns(stages::CPU_DECODE, SpanKind::Service), 30);
        assert_eq!(a.part_ns(stages::QUEUE_DELIVER, SpanKind::Queue), 70);
        assert_eq!(a.part_ns(stages::POOL_LEASE, SpanKind::Queue), 30);
    }

    #[test]
    fn service_beats_queue_and_inner_beats_outer() {
        let t = Tracer::new();
        let b = t.next_batch_id();
        t.span_ns(b, stages::QUEUE_DELIVER, SpanKind::Queue, 0, 100);
        t.span_ns(b, stages::FPGA_DECODE, SpanKind::Service, 0, 100);
        t.span_ns(b, stages::AUGMENT, SpanKind::Service, 40, 50);
        let attr = t.snapshot().attribution();
        let a = &attr[0];
        assert_eq!(a.part_ns(stages::QUEUE_DELIVER, SpanKind::Queue), 0);
        assert_eq!(a.part_ns(stages::FPGA_DECODE, SpanKind::Service), 90);
        assert_eq!(a.part_ns(stages::AUGMENT, SpanKind::Service), 10);
    }

    #[test]
    fn links_fold_duplicates_into_winner() {
        let t = Tracer::new();
        let winner = t.next_batch_id();
        let dup = t.next_batch_id();
        t.span_ns(winner, stages::FPGA_DECODE, SpanKind::Service, 0, 50);
        t.span_ns(dup, stages::CPU_DECODE, SpanKind::Service, 60, 80);
        t.link(dup, winner);
        let attr = t.snapshot().attribution();
        assert_eq!(attr.len(), 1, "dup spans must fold into the winner");
        let a = &attr[0];
        assert_eq!(a.batch, winner);
        assert_eq!(a.part_ns(stages::CPU_DECODE, SpanKind::Service), 20);
        assert_eq!(a.part_ns(stages::FPGA_DECODE, SpanKind::Service), 50);
    }

    #[test]
    fn bottleneck_is_highest_busy_stage() {
        let t = Tracer::new();
        for i in 0..4u64 {
            let b = t.next_batch_id();
            t.span_ns(
                b,
                stages::CPU_DECODE,
                SpanKind::Service,
                i * 100,
                i * 100 + 80,
            );
            t.span_ns(
                b,
                stages::AUGMENT,
                SpanKind::Service,
                i * 100 + 80,
                i * 100 + 90,
            );
        }
        let report = t.snapshot().critical_path();
        let top = report.bottleneck().expect("has stages");
        assert_eq!(top.stage, stages::CPU_DECODE);
        assert_eq!(top.busy_ns, 320);
        assert!(
            top.utilization > 0.8,
            "decode should dominate: {}",
            top.utilization
        );
        assert_eq!(report.wall_ns, 390);
    }

    #[test]
    fn union_len_merges_overlaps() {
        assert_eq!(union_len(&[(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(3, 3)]), 0);
    }
}
