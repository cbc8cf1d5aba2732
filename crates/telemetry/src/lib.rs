//! # smartcrowd-telemetry — the measurement backbone of the workspace
//!
//! A zero-external-dependency metrics and tracing substrate for every
//! other SmartCrowd crate. Three primitives — [`Counter`], [`Gauge`] and
//! fixed-bucket [`Histogram`] — live in a process-global [`Registry`] and
//! are updated with single relaxed atomic operations: the hot paths of the
//! chain, VM, network and platform layers pay a handful of uncontended
//! atomic adds per event, never a lock or an allocation.
//!
//! ## Naming scheme
//!
//! Every metric is `<crate>.<subsystem>.<name>` (`chain.mempool.admitted`,
//! `vm.exec.gas`, `net.gossip.sent{type="block"}`). Labels are static
//! string pairs with tiny, enum-derived cardinality. The full inventory,
//! with units and bucket boundaries, lives in the repository-level
//! `OBSERVABILITY.md`.
//!
//! ## Hot path vs cold path
//!
//! The `counter!`/`gauge!`/`histogram!`/`span!` macros resolve their
//! handle through the registry **once per call site** (cached in a
//! `OnceLock`); after that an update is 1 atomic op for counters/gauges
//! and 5 for histograms. [`Registry::reset`] zeroes metrics *in place* so
//! those cached handles survive resets — essential for back-to-back
//! seeded runs in one process.
//!
//! ## Determinism
//!
//! By default no wall-clock is ever read ([`TimeSource::Off`]): spans
//! record call counts and nesting only, and all durations that appear in
//! snapshots are *simulated-clock* values converted to integer
//! microseconds by the instrumented code. A seeded run therefore produces
//! a byte-identical snapshot every time, which the chaos harness and the
//! determinism integration tests rely on. Bench binaries that want real
//! latencies opt in with [`set_time_source`]`(`[`TimeSource::Wall`]`)`.
//!
//! ## Exporters
//!
//! [`Registry::snapshot`] returns an ordered [`Snapshot`] renderable as an
//! aligned text table ([`Snapshot::render_table`]) and a JSON tree
//! ([`Snapshot::to_json`]).
//!
//! ```
//! use smartcrowd_telemetry::{counter, histogram, span, buckets, global};
//!
//! counter!("chain.mempool.admitted").inc();
//! histogram!("vm.exec.gas", buckets::GAS).observe(21_000);
//! {
//!     let _span = span!("chain.validate_block");
//!     // ... validated here ...
//! }
//! let snapshot = global().snapshot();
//! assert!(snapshot.get("chain.mempool.admitted").is_some());
//! println!("{}", snapshot.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;

pub use export::{MetricSnapshot, MetricValue, Snapshot};
pub use metrics::{buckets, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{global, Registry};
pub use span::{set_time_source, time_source, SpanGuard, TimeSource};

/// Returns the `&'static Counter` for a name (and optional static label
/// pairs), registering it on first use and caching the handle per call
/// site.
///
/// ```
/// use smartcrowd_telemetry::counter;
/// counter!("doc.example.hits").inc();
/// counter!("doc.example.msgs", "type" => "block").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal $(, $k:literal => $v:literal)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().counter($name, &[$(($k, $v)),*]))
    }};
}

/// Returns the `&'static Gauge` for a name (and optional static label
/// pairs), registering it on first use and caching the handle per call
/// site.
///
/// ```
/// use smartcrowd_telemetry::gauge;
/// gauge!("doc.example.occupancy").set(7);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:literal $(, $k:literal => $v:literal)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().gauge($name, &[$(($k, $v)),*]))
    }};
}

/// Returns the `&'static Histogram` for a name, bucket bounds (see
/// [`buckets`]) and optional static label pairs, registering it on first
/// use and caching the handle per call site.
///
/// ```
/// use smartcrowd_telemetry::{histogram, buckets};
/// histogram!("doc.example.gas", buckets::GAS).observe(21_000);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:literal, $bounds:expr $(, $k:literal => $v:literal)* $(,)?) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::global().histogram($name, &[$(($k, $v)),*], $bounds))
    }};
}

/// Opens a span: returns a [`SpanGuard`] that increments `<name>.calls`
/// now and, when [`TimeSource::Wall`] is enabled, records the elapsed
/// wall time into the `<name>.time_us` histogram when dropped. Nesting
/// depth is tracked per thread and recorded into `telemetry.span.depth`.
///
/// ```
/// use smartcrowd_telemetry::span;
/// let _span = span!("doc.example.work");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static CALLS: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        static TIME: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        let calls = *CALLS.get_or_init(|| $crate::global().counter(concat!($name, ".calls"), &[]));
        let time = *TIME.get_or_init(|| {
            $crate::global().histogram(concat!($name, ".time_us"), &[], $crate::buckets::TIME_US)
        });
        $crate::SpanGuard::enter(calls, time)
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_register_in_the_global_registry() {
        counter!("libtest.macro.counter").add(3);
        gauge!("libtest.macro.gauge").set(-2);
        histogram!("libtest.macro.hist", crate::buckets::SMALL_COUNT).observe(4);
        {
            let _s = crate::span!("libtest.macro.span");
        }
        let snap = crate::global().snapshot();
        assert_eq!(
            snap.get("libtest.macro.counter"),
            Some(&crate::MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get("libtest.macro.gauge"),
            Some(&crate::MetricValue::Gauge(-2))
        );
        assert!(snap.get("libtest.macro.span.calls").is_some());
        assert!(snap.get("libtest.macro.span.time_us").is_some());
    }
}
