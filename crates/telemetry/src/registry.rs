//! The metric [`Registry`]: a process-wide, lazily-populated index from
//! canonical metric keys (`name{label="value",…}`) to `&'static` metric
//! handles.
//!
//! Registration (the *cold* path) takes a mutex once per distinct metric;
//! the macros in the crate root cache the returned handle in a per-call-site
//! `OnceLock`, so steady-state updates are pure relaxed atomics with no
//! locking. Handles are leaked intentionally — the set of metrics is small
//! and fixed by the instrumentation sites — which is what lets
//! [`Registry::reset`] zero values *in place* without invalidating caches.

use crate::export::{MetricSnapshot, MetricValue, Snapshot};
use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A registered metric of any kind.
#[derive(Debug, Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A named collection of counters, gauges and histograms.
///
/// Most code uses the process-global registry via [`global`] and the
/// `counter!` / `gauge!` / `histogram!` / `span!` macros; a private
/// `Registry` is useful in tests that must not observe each other.
#[derive(Debug)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

/// Renders the canonical key for `name` + `labels`:
/// `name` alone, or `name{k="v",k2="v2"}` in the given label order.
pub(crate) fn canonical_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

impl Registry {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Registry {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Entry>> {
        // A poisoned registry mutex only means a panic elsewhere while
        // registering; the map itself is always in a valid state.
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = canonical_key(name, labels);
        let mut map = self.lock();
        if let Some(entry) = map.get(&key) {
            return entry.metric;
        }
        let metric = make();
        map.insert(
            key,
            Entry {
                name: name.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                metric,
            },
        );
        metric
    }

    /// Returns (registering on first use) the counter `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the same key is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> &'static Counter {
        let metric = self.register(name, labels, || {
            Metric::Counter(Box::leak(Box::new(Counter::new())))
        });
        match metric {
            Metric::Counter(c) => c,
            _ => panic!("telemetry: `{name}` already registered as a non-counter"),
        }
    }

    /// Returns (registering on first use) the gauge `name` with `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the same key is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> &'static Gauge {
        let metric = self.register(name, labels, || {
            Metric::Gauge(Box::leak(Box::new(Gauge::new())))
        });
        match metric {
            Metric::Gauge(g) => g,
            _ => panic!("telemetry: `{name}` already registered as a non-gauge"),
        }
    }

    /// Returns (registering on first use) the histogram `name` with
    /// `labels` and the given bucket `bounds` (ignored if already
    /// registered).
    ///
    /// # Panics
    ///
    /// Panics if the same key is already registered as a different kind.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> &'static Histogram {
        let metric = self.register(name, labels, || {
            Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds))))
        });
        match metric {
            Metric::Histogram(h) => h,
            _ => panic!("telemetry: `{name}` already registered as a non-histogram"),
        }
    }

    /// A point-in-time, deterministic snapshot: entries are ordered by
    /// canonical key (the registry map is a `BTreeMap`), so two runs that
    /// record the same values render byte-identical exports.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let entries = map
            .iter()
            .map(|(key, entry)| MetricSnapshot {
                key: key.clone(),
                name: entry.name.clone(),
                labels: entry.labels.clone(),
                value: match entry.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// Zeroes every registered metric **in place**. Call-site-cached
    /// handles remain valid; the set of registered keys is unchanged.
    pub fn reset(&self) {
        let map = self.lock();
        for entry in map.values() {
            match entry.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry used by the `counter!`/`gauge!`/
/// `histogram!`/`span!` macros.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.y", &[]) as *const _;
        let b = r.counter("x.y", &[]) as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn labels_distinguish_metrics() {
        let r = Registry::new();
        let a = r.counter("m", &[("type", "block")]);
        let b = r.counter("m", &[("type", "record")]);
        a.inc();
        a.inc();
        b.inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.get("m{type=\"block\"}"),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            snap.get("m{type=\"record\"}"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("a", &[]);
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.counter("a", &[]).get(), 1);
    }

    #[test]
    fn snapshot_is_key_ordered() {
        let r = Registry::new();
        r.counter("z.last", &[]);
        r.counter("a.first", &[]);
        let snap = r.snapshot();
        let keys: Vec<_> = snap.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["a.first", "z.last"]);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("k", &[]);
        r.counter("k", &[]);
    }
}
