//! Regression guard for the [`smartcrowd_bench::stats::Summary`] dedupe:
//! the experiment binaries used to compute their aggregates inline with
//! ad-hoc `stats::mean`/`stats::quantile` calls; `Summary::of` must
//! reproduce those numbers bit-for-bit so the EXPERIMENTS.md tables do not
//! move.

use smartcrowd_bench::stats;
use smartcrowd_chain::simminer::SimMiner;

/// The exact sample the fig3 binary aggregates: 2000 simulated block
/// intervals at the paper setup and seed.
fn fig3_intervals() -> Vec<f64> {
    let mut sim = SimMiner::paper_setup(2019);
    (0..2000).map(|_| sim.next_event().interval).collect()
}

#[test]
fn summary_reproduces_the_inline_fig3_aggregates_bit_for_bit() {
    let intervals = fig3_intervals();
    // The pre-dedupe computation, verbatim.
    let old_mean = stats::mean(&intervals);
    let old_sd = stats::stddev(&intervals);
    let old_p50 = stats::quantile(&intervals, 0.5);
    let old_p90 = stats::quantile(&intervals, 0.9);
    let old_p99 = stats::quantile(&intervals, 0.99);

    let s = stats::Summary::of(&intervals);
    assert_eq!(s.mean.to_bits(), old_mean.to_bits());
    assert_eq!(s.stddev.to_bits(), old_sd.to_bits());
    assert_eq!(s.p50.to_bits(), old_p50.to_bits());
    assert_eq!(s.p90.to_bits(), old_p90.to_bits());
    assert_eq!(s.p99.to_bits(), old_p99.to_bits());

    // And the printed representations — what EXPERIMENTS.md records.
    assert_eq!(format!("{old_mean:.2}"), format!("{:.2}", s.mean));
    assert_eq!(format!("{old_sd:.2}"), format!("{:.2}", s.stddev));
    assert_eq!(
        format!("{old_p50:.1} / {old_p90:.1} / {old_p99:.1}"),
        format!("{:.1} / {:.1} / {:.1}", s.p50, s.p90, s.p99)
    );
}

#[test]
fn summary_json_round_trips_through_the_results_format() {
    // Non-integral samples: the JSON shim renders whole floats as
    // integers, which is fine for results files but not an exact Value
    // round-trip.
    let s = stats::Summary::of(&[1.5, 2.25, 4.75]);
    let json = serde_json::to_string_pretty(&s.to_json()).unwrap();
    let back = serde_json::from_str(&json).unwrap();
    assert_eq!(back, s.to_json());
}
