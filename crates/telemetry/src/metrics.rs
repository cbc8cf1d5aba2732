//! Metric primitives: [`Counter`], [`Gauge`] and fixed-bucket
//! [`Histogram`], all updated with single relaxed atomic operations so the
//! hot path never takes a lock. Handles are `&'static` and live for the
//! process lifetime; [`reset`](Counter::reset) zeroes a metric **in place**
//! so call-site-cached handles stay valid across registry resets.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Preset bucket boundaries (inclusive upper bounds, ascending).
///
/// Every histogram in the workspace uses one of these sets so the
/// snapshot inventory documented in `OBSERVABILITY.md` stays small and the
/// Prometheus export stays comparable across runs.
pub mod buckets {
    /// Gas per contract execution (units: gas).
    pub const GAS: &[u64] = &[
        1_000, 5_000, 21_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000,
    ];
    /// Durations in microseconds, wall or simulated (units: µs).
    /// Spans 10 µs — 10 min; block intervals (mean 15.35 s) land mid-range.
    pub const TIME_US: &[u64] = &[
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        5_000_000,
        15_000_000,
        30_000_000,
        60_000_000,
        600_000_000,
    ];
    /// Chain-reorg depth in blocks (units: blocks).
    pub const REORG_DEPTH: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32];
    /// Small cardinalities: span nesting depth, records per block (units: 1).
    pub const SMALL_COUNT: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];
}

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter in place (handles stay valid).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a signed value that can move both ways (occupancy, height).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge in place.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over `u64` observations.
///
/// `bounds` are inclusive upper bounds in ascending order; one extra
/// overflow bucket catches everything above the last bound. Each
/// observation is five relaxed atomic ops (bucket, sum, count, min, max) —
/// no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last one is the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count,
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
        }
    }

    /// Zeroes all buckets and aggregates in place.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of a [`Histogram`]'s state, with derived aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive bucket upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation, if any.
    pub min: Option<u64>,
    /// Largest observation, if any.
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimated from the buckets: returns the upper
    /// bound of the bucket containing the rank (the exact `max` for ranks
    /// that land in the overflow bucket). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.max.unwrap_or(0),
                };
            }
        }
        self.max.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[10, 100]);
        h.observe(10); // first bucket (<= 10)
        h.observe(11); // second bucket
        h.observe(1_000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 1]);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1_021);
        assert_eq!(s.min, Some(10));
        assert_eq!(s.max, Some(1_000));
    }

    #[test]
    fn quantiles_report_bucket_bounds() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for v in [1, 2, 3, 50, 60, 70, 80, 500, 900, 5_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 100); // rank 5 of 10 → second bucket
        assert_eq!(s.quantile(0.9), 1_000);
        assert_eq!(s.quantile(1.0), 5_000); // overflow → exact max
        assert!((s.mean() - 666.6).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new(buckets::GAS);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.min, None);
    }
}
