//! Prometheus text-exposition rendering of a [`RegistrySnapshot`], next to
//! the existing JSON export.
//!
//! [`render`] emits the [text-based exposition format] version 0.0.4:
//!
//! * metric names are sanitized to `[a-zA-Z_:][a-zA-Z0-9_:]*` (every other
//!   character becomes `_`, so `reader.batches_submitted` exports as
//!   `reader_batches_submitted`);
//! * counters emit `# TYPE <name> counter` and their total;
//! * gauges emit `# TYPE <name> gauge` plus a companion
//!   `<name>_high_water` gauge;
//! * histograms emit *cumulative* `<name>_bucket{le="..."}` series ending
//!   in `le="+Inf"`, plus `<name>_sum` and `<name>_count`.
//!
//! [text-based exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::registry::{MetricValue, RegistrySnapshot};
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format.
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::with_capacity(snapshot.metrics.len() * 96);
    for (name, value) in &snapshot.metrics {
        let name = sanitize(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge { value, high_water } => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {value}");
                let _ = writeln!(out, "# TYPE {name}_high_water gauge");
                let _ = writeln!(out, "{name}_high_water {high_water}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(h.buckets.iter()) {
                    cumulative += count;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Sanitize a metric name to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;
    use crate::registry::Registry;
    use std::collections::BTreeMap;

    /// Parse the exposition text back into `(name → (type, samples))` for
    /// the round-trip test.
    fn parse(text: &str) -> BTreeMap<String, (String, BTreeMap<String, f64>)> {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut out: BTreeMap<String, (String, BTreeMap<String, f64>)> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it.next().unwrap().to_string();
                let kind = it.next().unwrap().to_string();
                types.insert(name, kind);
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (sample, value) = line.rsplit_once(' ').expect("sample line");
            let value: f64 = value.parse().expect("numeric value");
            // Family = sample name with any {labels} and any recognized
            // histogram suffix stripped.
            let bare = sample.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| bare.strip_suffix(suf))
                .filter(|fam| types.contains_key(*fam))
                .unwrap_or(bare);
            let kind = types.get(family).cloned().unwrap_or_default();
            out.entry(family.to_string())
                .or_insert_with(|| (kind, BTreeMap::new()))
                .1
                .insert(sample.to_string(), value);
        }
        out
    }

    #[test]
    fn round_trip_counters_gauges_histograms() {
        let reg = Registry::new();
        reg.counter("reader.batches_submitted").add(42);
        reg.gauge("pool.free_units").set(3);
        reg.gauge("pool.free_units").set(1);
        let h = reg.histogram_with("reader.submit_latency_nanos", vec![10, 100, 1000]);
        h.record(5);
        h.record(50);
        h.record(50_000); // overflow bucket
        let snap = reg.snapshot();
        let text = render(&snap);
        let parsed = parse(&text);

        let (kind, samples) = &parsed["reader_batches_submitted"];
        assert_eq!(kind, "counter");
        assert_eq!(samples["reader_batches_submitted"], 42.0);

        let (kind, samples) = &parsed["pool_free_units"];
        assert_eq!(kind, "gauge");
        assert_eq!(samples["pool_free_units"], 1.0);
        let (_, hw) = &parsed["pool_free_units_high_water"];
        assert_eq!(hw["pool_free_units_high_water"], 3.0);

        let (kind, samples) = &parsed["reader_submit_latency_nanos"];
        assert_eq!(kind, "histogram");
        // Cumulative buckets: ≤10 → 1, ≤100 → 2, ≤1000 → 2, +Inf → 3.
        assert_eq!(
            samples["reader_submit_latency_nanos_bucket{le=\"10\"}"],
            1.0
        );
        assert_eq!(
            samples["reader_submit_latency_nanos_bucket{le=\"100\"}"],
            2.0
        );
        assert_eq!(
            samples["reader_submit_latency_nanos_bucket{le=\"1000\"}"],
            2.0
        );
        assert_eq!(
            samples["reader_submit_latency_nanos_bucket{le=\"+Inf\"}"],
            3.0
        );
        assert_eq!(samples["reader_submit_latency_nanos_sum"], 50_055.0);
        assert_eq!(samples["reader_submit_latency_nanos_count"], 3.0);

        // Round trip: every registry metric appears under its sanitized
        // name with its exact snapshot value.
        for (name, value) in &snap.metrics {
            let fam = sanitize(name);
            let (_, samples) = parsed.get(&fam).expect("family present");
            match value {
                MetricValue::Counter(v) => assert_eq!(samples[&fam], *v as f64),
                MetricValue::Gauge { value, .. } => assert_eq!(samples[&fam], *value as f64),
                MetricValue::Histogram(h) => {
                    assert_eq!(samples[&format!("{fam}_count")], h.count as f64);
                    assert_eq!(samples[&format!("{fam}_sum")], h.sum as f64);
                }
            }
        }
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let h = HistogramSnapshot {
            bounds: vec![1, 2, 4],
            buckets: vec![3, 0, 2, 1],
            count: 6,
            sum: 20,
            min: 1,
            max: 9,
        };
        let mut snap = RegistrySnapshot::default();
        snap.metrics.insert("lat".into(), MetricValue::Histogram(h));
        let text = render(&snap);
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: f64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {text}");
            last = v;
        }
        assert!(text.ends_with("lat_sum 20\nlat_count 6\n"));
    }

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize("queue.slot-0.depth"), "queue_slot_0_depth");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
    }
}
