//! OBSERVABILITY.md documents every metric the registry holds: after the
//! seeded fleet run of `telemetry_snapshot.rs` and a one-block `Platform`
//! round, each registered metric name (labels stripped) must appear as a
//! key in one of the document's metric tables.
//!
//! The test reads the process-global registry, so it lives in its own
//! integration-test binary.

mod common;

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::Ether;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use smartcrowd::telemetry;
use std::collections::BTreeSet;

/// The metric names OBSERVABILITY.md's tables document: every backticked
/// token in the first cell of a table row, with any `{…}` label part cut.
fn documented_names() -> BTreeSet<String> {
    let doc = include_str!("../OBSERVABILITY.md");
    let mut names = BTreeSet::new();
    for row in doc.lines().filter(|l| l.starts_with('|')) {
        let first_cell = row.split('|').nth(1).unwrap_or("");
        for (i, token) in first_cell.split('`').enumerate() {
            if i % 2 == 1 {
                names.insert(token.split('{').next().unwrap_or(token).to_string());
            }
        }
    }
    names
}

#[test]
fn every_registered_metric_is_documented() {
    common::seeded_run();

    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(3);
    let system =
        IoTSystem::build("fw", "1.0", platform.library(), vec![VulnId(3)], &mut rng).unwrap();
    platform
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    platform.mine_blocks(1);

    let documented = documented_names();
    let snapshot = telemetry::global().snapshot();
    assert!(!snapshot.is_empty(), "the runs registered no metric");
    let missing: BTreeSet<&str> = snapshot
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .filter(|name| !documented.contains(*name))
        .collect();
    assert!(
        missing.is_empty(),
        "registered but not in an OBSERVABILITY.md table: {missing:?}"
    );
}
