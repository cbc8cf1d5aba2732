//! `compare A B`: two run sets of the same benchmark, judged by the
//! benchmark's own bounds. This is what "two run sets agree" and every
//! later before/after uses.

use crate::metrics::{self, Better, EndToEnd};
use crate::report::RunResult;
use crate::stats;
use std::collections::BTreeSet;

/// Counts that depend only on the seed and the code, never on timing;
/// they must be identical between two run sets.
const EXACT_COUNTS: &[&str] = &[
    "records_committed",
    "blocks_committed",
    "disk_bytes",
    "payload_bytes",
    "net.gossip.deliveries",
    "net.gossip.rounds",
    "core.platform.payouts",
];

/// Metrics that are pure functions of seed and code.
const EXACT_METRICS: &[&str] = &[
    "chain.storage.disk_bytes_per_payload_byte",
    "net.gossip.deliveries_per_record",
    "vm.gas_per_payout",
];

/// How one metric of one workload moved from the base set to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound allows, and the spread lets us say so.
    Ok,
    /// Median worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: more runs needed.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `other` against `base` for one metric.
///
/// The median decides: worse by more than `bound` (as a share of the base
/// median) is a regression. Where either side's interquartile range is
/// wider than the bound the medians cannot be trusted to that precision,
/// so the verdict is `Unresolved` — unless the runs do not overlap at
/// all (every run of one side beats every run of the other), which is a
/// clear answer in either direction.
pub fn judge(metric: &EndToEnd, base: &[f64], other: &[f64]) -> Verdict {
    let (a, b) = (stats::median(base), stats::median(other));
    if base.is_empty() || other.is_empty() || a == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x <= y,
        Better::Higher => x >= y,
    };
    let all = |winners: &[f64], losers: &[f64]| {
        winners.iter().all(|w| losers.iter().all(|l| beats(*w, *l)))
    };
    let wide = stats::spread(base) > metric.bound || stats::spread(other) > metric.bound;
    if worse_by > metric.bound {
        if !wide || all(base, other) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if !wide || all(other, base) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Distinct values of something across the runs of one workload.
fn distinct<T: Ord>(
    runs: &[RunResult],
    workload: &str,
    get: impl Fn(&RunResult) -> Option<T>,
) -> BTreeSet<T> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(get)
        .collect()
}

/// Prints the comparison; returns (ok, regressed, unresolved, exact
/// mismatches).
pub fn compare(base: &[RunResult], other: &[RunResult]) -> (usize, usize, usize, usize) {
    let (mut ok, mut regressed, mut unresolved, mut mismatches) = (0, 0, 0, 0);
    println!(
        "{:<15} {:<42} {:>14} {:>14} {:>10}  {:<10} verdict",
        "workload", "metric", "base median", "other median", "other/base", "bound"
    );
    for workload in crate::workloads::names() {
        let present = |runs: &[RunResult]| runs.iter().any(|r| r.workload == workload && !r.trace);
        if !present(base) || !present(other) {
            continue;
        }
        for metric in metrics::gated(workload) {
            let (a, b) = (
                values(base, workload, metric.name),
                values(other, workload, metric.name),
            );
            let verdict = judge(&metric, &a, &b);
            match verdict {
                Verdict::Ok => ok += 1,
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            println!(
                "{:<15} {:<42} {:>14.4} {:>14.4} {:>10.4}  {:<10} {} (n={}/{}, spread {:.3}/{:.3})",
                workload,
                metric.name,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { mb / ma },
                format!("{:.0}% {}", metric.bound * 100.0, metric.better.word()),
                verdict.word(),
                a.len(),
                b.len(),
                stats::spread(&a),
                stats::spread(&b),
            );
        }
        // Counts only compare between runs on the same inputs.
        let seeds = |runs: &[RunResult]| distinct(runs, workload, |r| Some(r.seed));
        if seeds(base) != seeds(other) || seeds(base).len() != 1 {
            println!("{workload:<15} exact counts skipped: the run sets do not share one seed");
            continue;
        }
        let mut exact = |what: &str, a: BTreeSet<String>, b: BTreeSet<String>| {
            // Absent, or 0 on both sides: the workload does not reach it.
            let unreached = |set: &BTreeSet<String>| set.iter().all(|v| v == "0");
            if unreached(&a) && unreached(&b) {
                return;
            }
            if a != b || a.len() != 1 {
                mismatches += 1;
                println!("{workload:<15} {what:<42} DIFFERS: {a:?} vs {b:?}");
            } else {
                println!(
                    "{workload:<15} {what:<42} identical ({})",
                    a.iter().next().map_or("", String::as_str)
                );
            }
        };
        exact(
            "inputs_digest",
            distinct(base, workload, |r| Some(r.inputs_digest.clone())),
            distinct(other, workload, |r| Some(r.inputs_digest.clone())),
        );
        for name in EXACT_COUNTS {
            let of = |runs: &[RunResult]| {
                distinct(runs, workload, |r| r.counts.get(*name).map(u64::to_string))
            };
            exact(name, of(base), of(other));
        }
        for name in EXACT_METRICS {
            let of = |runs: &[RunResult]| {
                distinct(runs, workload, |r| r.metrics.get(*name).map(f64::to_string))
            };
            exact(name, of(base), of(other));
        }
    }
    println!(
        "compare: {ok} ok, {regressed} regressed, {unresolved} unresolved, {mismatches} exact-count mismatches"
    );
    (ok, regressed, unresolved, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "latency",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn within_bound_and_tight_is_ok() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&LOWER, &base, &[104.0, 105.0, 103.0, 104.5, 103.5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&HIGHER, &base, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Ok
        );
        // An improvement is never a regression, however large.
        assert_eq!(
            judge(&LOWER, &base, &[50.0, 51.0, 49.0, 50.0, 50.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_and_tight_is_regressed() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&LOWER, &base, &[112.0, 113.0, 111.0, 112.5, 111.5]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&HIGHER, &base, &[88.0, 89.0, 87.0, 88.5, 87.5]),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        // Medians equal, but the spread (IQR 30 %) exceeds the bound.
        assert_eq!(judge(&LOWER, &noisy, &noisy), Verdict::Unresolved);
        // Median worse by 15 % with overlapping noisy runs: cannot say.
        assert_eq!(
            judge(&LOWER, &noisy, &[95.0, 115.0, 135.0, 105.0, 125.0]),
            Verdict::Unresolved
        );
        // Every run worse than every base run: a regression despite noise.
        assert_eq!(
            judge(&LOWER, &noisy, &[180.0, 200.0, 220.0, 190.0, 210.0]),
            Verdict::Regressed
        );
        // Every run better than every base run: ok despite noise.
        assert_eq!(
            judge(&LOWER, &noisy, &[40.0, 50.0, 60.0, 45.0, 55.0]),
            Verdict::Ok
        );
        // Nothing to compare.
        assert_eq!(judge(&LOWER, &[], &noisy), Verdict::Unresolved);
    }
}
