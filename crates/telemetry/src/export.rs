//! Snapshot exporters: an aligned text table for terminals and a JSON tree
//! (built on the vendored `serde_json`) for `results/*.json` blobs and
//! chaos-failure dumps.
//!
//! A [`Snapshot`] is an ordered, immutable copy of a registry: entries are
//! sorted by canonical key, so any two snapshots of identical values render
//! byte-identical output in both formats.

use crate::metrics::HistogramSnapshot;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's buckets and aggregates.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Whether this value carries any signal: a nonzero counter, a nonzero
    /// gauge, or a histogram with at least one observation.
    pub(crate) fn is_nonzero(&self) -> bool {
        match self {
            MetricValue::Counter(v) => *v != 0,
            MetricValue::Gauge(v) => *v != 0,
            MetricValue::Histogram(h) => h.count != 0,
        }
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Canonical key: `name` or `name{k="v",…}`.
    pub key: String,
    /// The metric name without labels.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// An ordered, immutable copy of a registry's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by canonical key.
    pub entries: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// True when no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by canonical key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }

    /// The set of subsystems (the `<crate>` segment of the
    /// `<crate>.<subsystem>.<name>` naming scheme) that have at least one
    /// nonzero metric, in sorted order.
    pub fn subsystems(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for entry in &self.entries {
            if !entry.value.is_nonzero() {
                continue;
            }
            let prefix = entry.name.split('.').next().unwrap_or("").to_string();
            if !prefix.is_empty() && !out.contains(&prefix) {
                out.push(prefix);
            }
        }
        out.sort();
        out
    }

    /// Renders an aligned text table:
    ///
    /// ```text
    /// metric                         type       value
    /// chain.mempool.admitted         counter    12
    /// vm.exec.gas                    histogram  count=12 sum=40170 mean=3347.5 p50=5000 p99=21000 max=9170
    /// ```
    pub fn render_table(&self) -> String {
        let key_width = self
            .entries
            .iter()
            .map(|e| e.key.len())
            .chain(["metric".len()])
            .max()
            .unwrap_or(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:key_width$}  {:9}  value", "metric", "type");
        for entry in &self.entries {
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{:key_width$}  {:9}  {v}", entry.key, "counter");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{:key_width$}  {:9}  {v}", entry.key, "gauge");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{:key_width$}  {:9}  count={} sum={} mean={:.1} p50={} p99={} max={}",
                        entry.key,
                        "histogram",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99),
                        h.max.unwrap_or(0),
                    );
                }
            }
        }
        out
    }

    /// Serializes the snapshot as a JSON tree (`{"metrics": [...]}`),
    /// suitable for embedding in `results/*.json` or chaos-failure dumps.
    pub fn to_json(&self) -> Value {
        let metrics: Vec<Value> = self
            .entries
            .iter()
            .map(|entry| {
                let labels: Vec<Value> = entry
                    .labels
                    .iter()
                    .map(|(k, v)| json!([k.as_str(), v.as_str()]))
                    .collect();
                match &entry.value {
                    MetricValue::Counter(v) => json!({
                        "key": entry.key.as_str(),
                        "name": entry.name.as_str(),
                        "labels": labels,
                        "type": "counter",
                        "value": *v,
                    }),
                    MetricValue::Gauge(v) => json!({
                        "key": entry.key.as_str(),
                        "name": entry.name.as_str(),
                        "labels": labels,
                        "type": "gauge",
                        "value": *v,
                    }),
                    MetricValue::Histogram(h) => json!({
                        "key": entry.key.as_str(),
                        "name": entry.name.as_str(),
                        "labels": labels,
                        "type": "histogram",
                        "bounds": h.bounds.clone(),
                        "counts": h.counts.clone(),
                        "sum": h.sum,
                        "count": h.count,
                        "min": h.min,
                        "max": h.max,
                    }),
                }
            })
            .collect();
        json!({ "metrics": metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("chain.mempool.admitted", &[]).add(12);
        r.counter("net.gossip.sent", &[("type", "block")]).add(5);
        r.gauge("net.sync.orphans", &[]).set(3);
        let h = r.histogram("vm.exec.gas", &[], &[1_000, 21_000]);
        h.observe(500);
        h.observe(20_000);
        h.observe(1_000_000);
        r.snapshot()
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let table = sample().render_table();
        assert!(table.contains("chain.mempool.admitted"));
        assert!(table.contains("net.gossip.sent{type=\"block\"}"));
        assert!(table.contains("count=3"));
        let type_col = table.lines().next().unwrap().find("type").unwrap();
        for line in table.lines().skip(1) {
            let found = ["counter", "gauge", "histogram"]
                .iter()
                .filter_map(|t| line.find(t))
                .min();
            assert_eq!(found, Some(type_col), "misaligned: {line}");
        }
    }

    #[test]
    fn subsystems_reports_nonzero_prefixes() {
        let snap = sample();
        assert_eq!(snap.subsystems(), vec!["chain", "net", "vm"]);
    }
}
