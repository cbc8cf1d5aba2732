//! Order statistics used by every metric: median, quartiles, and the
//! highest percentile that still has enough samples beyond it to mean
//! something.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance driver computes spreads from.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The value a run reports for a quantity it measured once per
/// repetition: the 10th percentile when lower is better, the 90th when
/// higher is. On a shared machine interference only ever slows a
/// repetition down, so the better end of the repetitions tracks the code
/// while their median tracks the neighbours (see benchmark/README.md for
/// the measured spreads of both).
pub fn best_decile(values: &[f64], lower_is_better: bool) -> f64 {
    percentile(values, if lower_is_better { 0.10 } else { 0.90 })
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    len - ((p * len as f64).ceil() as usize).min(len)
}

/// The highest of 99.9 / 99 / 95 / 90 / 75 that leaves at least
/// [`MIN_BEYOND`] samples beyond it, with its value; falls back to the
/// median when the sample is too small for any of them.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.iter().filter(|x| x.is_finite()).count();
    for p in [0.999, 0.99, 0.95, 0.90, 0.75] {
        if beyond(n, p) >= MIN_BEYOND {
            return (p, percentile(values, p));
        }
    }
    (0.5, median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(2000, 0.99), 20);
    }

    #[test]
    fn best_decile_takes_the_better_end() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_decile(&v, true), 2.0);
        assert_eq!(best_decile(&v, false), 18.0);
        // Few repetitions: the best one.
        assert_eq!(best_decile(&v[..5], true), 1.0);
        assert_eq!(best_decile(&v[..5], false), 5.0);
        assert_eq!(best_decile(&[], true), 0.0);
    }

    #[test]
    fn tail_respects_the_samples_beyond_rule() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        // 999 samples: p99 leaves 9, so the tail drops to p95.
        assert_eq!(tail(&v[..999]).0, 0.95);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&v[..100]), (0.90, 90.0));
        // Too few for any tail percentile: the median.
        assert_eq!(tail(&v[..12]), (0.5, 6.5));
    }
}
