//! Telemetry determinism: under the default [`TimeSource::Off`] every
//! metric is driven by seeded simulation state, so two identical runs must
//! produce byte-identical snapshots — table and JSON renderings alike.
//! This is what makes snapshots attachable to chaos failures as
//! reproducible evidence (see OBSERVABILITY.md).
//!
//! The test owns the whole process-global registry, so it lives in its own
//! integration-test binary: unit tests of other crates run in separate
//! processes and cannot interleave writes.

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{Block, ChainBackend, ChainStore, Ether};
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use smartcrowd::detect::VulnLibrary;
use smartcrowd::net::LinkConfig;
use smartcrowd::sim::fleet::Fleet;
use smartcrowd::telemetry;
use std::convert::Infallible;

/// One seeded distributed run exercising chain, net and core metrics.
fn seeded_run() {
    let memory = |_, genesis: &Block| {
        Ok::<_, Infallible>(Box::new(ChainStore::new(genesis.clone())) as Box<dyn ChainBackend>)
    };
    let Ok(mut fleet) = Fleet::boot(5, 7, LinkConfig::default(), "dist-node", |_| true, memory);
    let library = VulnLibrary::synthetic(100, 7 ^ 0x11b);
    let mut rng = SimRng::seed_from_u64(40);
    let system = IoTSystem::build("fw", "1.0", &library, vec![VulnId(3)], &mut rng).unwrap();
    fleet
        .release(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .expect("gossip quiesces");
    for round in 0..8 {
        if round == 4 {
            fleet.partition(&[4]);
        }
        fleet.mine_round(|_| true).expect("gossip quiesces");
    }
    fleet.heal_partition();
    fleet.anti_entropy(|_| true).expect("gossip quiesces");
    assert!(fleet.converged(|_| true));
}

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
