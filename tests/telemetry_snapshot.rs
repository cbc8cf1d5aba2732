//! Telemetry determinism: under the default [`TimeSource::Off`] every
//! metric is driven by seeded simulation state, so two identical runs must
//! produce byte-identical snapshots — table and JSON renderings alike.
//! This is what makes snapshots attachable to chaos failures as
//! reproducible evidence (see OBSERVABILITY.md).
//!
//! The test owns the whole process-global registry, so it lives in its own
//! integration-test binary: unit tests of other crates run in separate
//! processes and cannot interleave writes.

mod common;

use common::seeded_run;
use smartcrowd::telemetry;

#[test]
fn same_seed_runs_yield_identical_snapshots() {
    assert_eq!(
        telemetry::time_source(),
        telemetry::TimeSource::Off,
        "determinism holds only under the simulated clock"
    );

    // The verified-signature cache is process-global state feeding the
    // `chain.sigcache.*` counters; clear it alongside the registry so each
    // run starts from the same blank slate.
    telemetry::global().reset();
    smartcrowd::chain::sigcache::reset();
    seeded_run();
    let first = telemetry::global().snapshot();

    telemetry::global().reset();
    smartcrowd::chain::sigcache::reset();
    seeded_run();
    let second = telemetry::global().snapshot();

    assert_eq!(
        first.render_table(),
        second.render_table(),
        "text table must be byte-identical across same-seed runs"
    );
    assert_eq!(
        serde_json::to_string_pretty(&first.to_json()).unwrap(),
        serde_json::to_string_pretty(&second.to_json()).unwrap(),
        "JSON export must be byte-identical across same-seed runs"
    );

    // The run touched several layers, and the snapshot is not trivially
    // empty-equals-empty.
    let subsystems = first.subsystems();
    for required in ["chain", "core", "net"] {
        assert!(
            subsystems.iter().any(|s| s == required),
            "expected nonzero {required} metrics, got {subsystems:?}"
        );
    }
}
