//! The metric registry: named counters/gauges/histograms behind one
//! handle, with point-in-time mergeable snapshots.

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Get-or-create by name; handles are
/// cheap `Arc`s recorded to lock-free, so the registry lock is only taken
/// at registration and snapshot time.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter named `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with another kind"),
        }
    }

    /// Gauge named `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with another kind"),
        }
    }

    /// Latency histogram named `name` (default buckets; created on first
    /// use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, crate::metrics::default_latency_bounds())
    }

    /// Histogram named `name` with explicit bucket bounds (bounds only
    /// apply on first registration).
    pub fn histogram_with(&self, name: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with another kind"),
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        RegistrySnapshot {
            metrics: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("Registry")
            .field("metrics", &m.len())
            .finish()
    }
}

/// One metric's snapshotted value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level and high-water mark.
    Gauge {
        /// Level at snapshot time.
        value: i64,
        /// Highest level observed.
        high_water: i64,
    },
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// A mergeable point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Metric name → snapshotted value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// Folds `other` into `self`: counters and histograms accumulate,
    /// gauges sum levels and take the max high-water. Metrics present on
    /// one side only carry over — merge is associative and commutative.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (
                        MetricValue::Gauge {
                            value: a,
                            high_water: ah,
                        },
                        MetricValue::Gauge {
                            value: b,
                            high_water: bh,
                        },
                    ) => {
                        *a += b;
                        *ah = (*ah).max(*bh);
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, theirs) => {
                        panic!("metric {name} kind mismatch on merge: {mine:?} vs {theirs:?}")
                    }
                },
            }
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge level (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge { value, .. }) => *value,
            _ => 0,
        }
    }

    /// Gauge high-water mark (0 when absent).
    pub fn gauge_high_water(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge { high_water, .. }) => *high_water,
            _ => 0,
        }
    }

    /// Histogram snapshot, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// JSON rendering: `{name: value}` with histograms expanded.
    pub(crate) fn to_json(&self) -> Json {
        Json::Object(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(c) => Json::from(*c),
                        MetricValue::Gauge { value, high_water } => Json::object(vec![
                            ("value", Json::from(*value)),
                            ("high_water", Json::from(*high_water)),
                        ]),
                        MetricValue::Histogram(h) => Json::object(vec![
                            ("count", Json::from(h.count)),
                            ("sum", Json::from(h.sum)),
                            ("mean", Json::from(h.mean())),
                            ("min", Json::from(if h.count == 0 { 0 } else { h.min })),
                            ("max", Json::from(h.max)),
                            ("p50", Json::from(h.quantile(0.5))),
                            ("p99", Json::from(h.quantile(0.99))),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x"), 2);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.gauge("g").set(3);
        a.histogram_with("h", vec![10, 100]).record(5);
        let b = Registry::new();
        b.counter("c").add(5);
        b.counter("only_b").inc();
        b.gauge("g").set(4);
        b.histogram_with("h", vec![10, 100]).record(50);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.counter("only_b"), 1);
        assert_eq!(s.gauge("g"), 7);
        assert_eq!(s.gauge_high_water("g"), 4);
        assert_eq!(s.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn json_exposes_all_kinds() {
        let reg = Registry::new();
        reg.counter("events").add(3);
        reg.gauge("depth").set(2);
        reg.histogram_with("lat", vec![10]).record(7);
        let j = reg.snapshot().to_json();
        assert_eq!(j["events"], 3u64);
        assert_eq!(j["depth"]["value"], 2u64);
        assert_eq!(j["lat"]["count"], 1u64);
        assert_eq!(j["lat"]["p50"], 10u64);
    }
}
