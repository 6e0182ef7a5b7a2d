//! Table rendering and JSON export for figure reproductions, plus a
//! captioned wrapper emitting pipeline telemetry alongside the figures.

use dlb_telemetry::{Json, PipelineSnapshot};

/// One table row (pre-formatted cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Cell strings, aligned with the report's columns.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from anything displayable.
    pub(crate) fn new<S: ToString>(cells: &[S]) -> Self {
        Row {
            cells: cells.iter().map(|c| c.to_string()).collect(),
        }
    }
}

/// A reproduced table/figure: id, caption, columns, rows, commentary.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Paper identifier, e.g. "Figure 5(b)".
    pub id: String,
    /// What it shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form notes (expected-vs-measured commentary).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub(crate) fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; must match the column count.
    pub(crate) fn push_row(&mut self, row: Row) {
        assert_eq!(
            row.cells.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a commentary note.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, c) in row.cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let hr: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+\n";
        out.push_str(&hr);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!("| {:<width$} ", c, width = widths[i]));
            }
            line.push_str("|\n");
            line
        };
        out.push_str(&fmt_row(&self.columns));
        out.push_str(&hr);
        for row in &self.rows {
            out.push_str(&fmt_row(&row.cells));
        }
        out.push_str(&hr);
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// JSON export (for EXPERIMENTS.md regeneration and archival).
    pub fn to_json(&self) -> Json {
        let str_array =
            |items: &[String]| Json::Array(items.iter().map(|s| Json::from(s.as_str())).collect());
        Json::object(vec![
            ("id", Json::from(self.id.as_str())),
            ("title", Json::from(self.title.as_str())),
            ("columns", str_array(&self.columns)),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|r| Json::object(vec![("cells", str_array(&r.cells))]))
                        .collect(),
                ),
            ),
            ("notes", str_array(&self.notes)),
        ])
    }
}

/// A captioned telemetry section for experiment reports: wraps the
/// [`PipelineSnapshot`] captured at the end of a run and renders the same
/// text/JSON shapes as [`FigureReport`], including any conservation
/// violations so a broken run is visible in the archived output.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Which run this telemetry belongs to, e.g. "Figure 6(a) / DLBooster".
    pub id: String,
    /// What the run did.
    pub title: String,
    /// The end-of-run pipeline snapshot.
    pub snapshot: PipelineSnapshot,
}

impl TelemetryReport {
    /// Wraps a snapshot with its caption.
    pub fn new(id: &str, title: &str, snapshot: PipelineSnapshot) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            snapshot,
        }
    }

    /// Plain-text section: caption, per-stage lines, violations (if any).
    #[cfg(test)]
    fn render(&self) -> String {
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        out.push_str(&self.snapshot.to_text());
        for v in self.snapshot.invariant_violations() {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out
    }

    /// JSON export, with the violation list made explicit.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::from(self.id.as_str())),
            ("title", Json::from(self.title.as_str())),
            (
                "violations",
                Json::Array(
                    self.snapshot
                        .invariant_violations()
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect(),
                ),
            ),
            ("pipeline", self.snapshot.to_json()),
        ])
    }
}

/// Builds the goodput-vs-offered-load table from an overload sweep
/// (`title` names the swept configuration, e.g. backend and policy).
///
/// One row per offered-load multiplier: the admission ledger, the goodput
/// rate, the SLO-attainment fraction, and the admitted-request p99. Under
/// a working shedding policy the goodput column plateaus at the measured
/// capacity while the p99 column stays inside the SLO; with shedding
/// disabled the queue-depth high-water column grows with offered load and
/// p99 leaves the SLO behind.
pub fn goodput_vs_offered_load(
    title: &str,
    points: &[crate::inference::OverloadPoint],
) -> FigureReport {
    let mut rep = FigureReport::new(
        "Overload sweep",
        title,
        &[
            "offered",
            "req/s",
            "admitted",
            "rejected",
            "shed",
            "goodput/s",
            "slo-met",
            "p99 ms",
            "queue hw",
        ],
    );
    for p in points {
        let s = p
            .outcome
            .serving
            .as_ref()
            .expect("overload sweep points always carry a serving outcome");
        rep.push_row(Row::new(&[
            format!("{:.2}x", p.multiplier),
            fmt_rate(p.offered_rate),
            s.admitted.to_string(),
            s.rejected.to_string(),
            s.shed.to_string(),
            fmt_rate(s.goodput),
            format!("{:.1}%", s.slo_attainment() * 100.0),
            format!("{:.2}", p.outcome.p99_latency.as_secs_f64() * 1e3),
            s.snapshot.serving.queue_depth_high_water.to_string(),
        ]));
    }
    if let Some(p) = points.first() {
        rep.note(format!(
            "capacity (saturated) = {} img/s; goodput counts in-SLO completions only",
            fmt_rate(p.capacity)
        ));
    }
    rep
}

/// Formats a throughput value compactly.
pub(crate) fn fmt_rate(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a core count.
pub(crate) fn fmt_cores(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio like "1.35x".
pub(crate) fn fmt_ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut r = FigureReport::new("Figure X", "demo", &["backend", "value"]);
        r.push_row(Row::new(&["DLBooster", "123"]));
        r.push_row(Row::new(&["CPU-based", "45"]));
        r.note("expected ~120");
        let s = r.render();
        assert!(s.contains("Figure X"));
        assert!(s.contains("DLBooster"));
        assert!(s.contains("123"));
        assert!(s.contains("expected ~120"));
        // Header separator lines present.
        assert!(s.matches('+').count() >= 9);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = FigureReport::new("F", "t", &["a", "b"]);
        r.push_row(Row::new(&["only-one"]));
    }

    #[test]
    fn json_roundtrip_fields() {
        let mut r = FigureReport::new("Fig 1", "t", &["c"]);
        r.push_row(Row::new(&["v"]));
        let j = r.to_json();
        assert_eq!(j["id"], "Fig 1");
        assert_eq!(j["rows"][0]["cells"][0], "v");
    }

    #[test]
    fn telemetry_report_renders_snapshot_and_violations() {
        use dlb_telemetry::{names, Telemetry};
        let t = Telemetry::with_defaults();
        t.registry.counter(names::READER_BATCHES_SUBMITTED).add(3);
        t.registry.counter(names::READER_BATCHES_COMPLETED).add(2);
        let r = TelemetryReport::new("Run 1", "training", t.pipeline_snapshot());
        let s = r.render();
        assert!(s.contains("Run 1"));
        assert!(s.contains("batches_submitted=3 batches_completed=2"));
        assert!(s.contains("VIOLATION: batch conservation"));
        let j = r.to_json();
        assert_eq!(j["id"], "Run 1");
        assert_eq!(j["pipeline"]["reader"]["batches_submitted"], 3u64);
        assert!(matches!(&j["violations"], Json::Array(v) if v.len() == 1));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_rate(123_456.0), "123.5k");
        assert_eq!(fmt_rate(2345.0), "2345");
        assert_eq!(fmt_cores(1.234), "1.23");
        assert_eq!(fmt_ratio(2.4), "2.40x");
    }
}
