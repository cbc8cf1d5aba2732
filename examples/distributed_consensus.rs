//! Distributed consensus demo: five independent provider nodes — each with
//! its own chain store, mempool and verification state — gossip SRAs,
//! reports and blocks, diverge under a partition, and converge back to the
//! majority chain after healing (the paper's Phase #3 fault tolerance).
//!
//! Run: `cargo run --release --example distributed_consensus`

use smartcrowd::chain::record::{Record, RecordKind};
use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{Block, ChainBackend, ChainStore, Ether};
use smartcrowd::core::economics::{INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, Findings};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use smartcrowd::detect::VulnLibrary;
use smartcrowd::net::{LinkConfig, Message};
use smartcrowd::sim::fleet::Fleet;
use std::collections::BTreeSet;
use std::convert::Infallible;

fn mine_rounds(fleet: &mut Fleet, k: usize) {
    for _ in 0..k {
        fleet.mine_round(|_| true).expect("gossip quiesces");
    }
}

fn height(fleet: &Fleet) -> u64 {
    fleet.node(0).expect("node 0 runs").store().best_height()
}

fn distinct_tips(fleet: &Fleet) -> usize {
    let tips = fleet.running().map(|(_, node)| node.store().best_tip());
    tips.collect::<BTreeSet<_>>().len()
}

fn main() {
    println!("== distributed consensus: 5 independent provider nodes ==\n");
    let memory = |_, genesis: &Block| {
        Ok::<_, Infallible>(Box::new(ChainStore::new(genesis.clone())) as Box<dyn ChainBackend>)
    };
    let Ok(mut fleet) = Fleet::boot(5, 7, LinkConfig::default(), "dist-node", |_| true, memory);
    println!("nodes booted from a shared genesis; mining race begins\n");

    // A release enters through node 0 and replicates everywhere.
    let library = VulnLibrary::synthetic(200, 7 ^ 0x11b);
    let mut rng = SimRng::seed_from_u64(40);
    let system =
        IoTSystem::build("gateway-fw", "5.1", &library, vec![VulnId(8)], &mut rng).unwrap();
    let sra_id = fleet
        .release(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .expect("gossip quiesces");
    println!("node 0 released gateway-fw v5.1; SRA + image gossiped to all peers");

    // A detector reports through node 3.
    let detector = KeyPair::from_seed(b"dist-demo-detector");
    let (initial, detailed) =
        create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(8)], "found"));
    let reports = [
        (RecordKind::InitialReport, initial.encode(), 0),
        (RecordKind::DetailedReport, detailed.encode(), 1),
    ];
    for (kind, payload, nonce) in reports {
        let record = Record::signed(kind, payload, REPORT_FEE, nonce, &detector);
        fleet
            .inject(3, Message::Record(record))
            .expect("gossip quiesces");
    }
    println!("detector submitted R† and R* through node 3 (AutoVerif ran on every node)\n");

    mine_rounds(&mut fleet, 5);
    println!(
        "after 5 mined rounds: converged = {}, height = {}",
        fleet.converged(|_| true),
        height(&fleet)
    );
    for (i, node) in fleet.running() {
        let detaileds = node
            .store()
            .records_of_kind(RecordKind::DetailedReport)
            .len();
        println!(
            "  node {i}: tip {} | detailed reports on chain: {detaileds}",
            node.store().best_tip()
        );
    }

    // Partition node 4 and keep mining.
    println!("\n-- partitioning node 4; mining 6 more rounds --");
    fleet.partition(&[4]);
    mine_rounds(&mut fleet, 6);
    println!("distinct tips during partition: {}", distinct_tips(&fleet));

    println!("-- healing the partition --");
    fleet.heal_partition();
    fleet.anti_entropy(|_| true).expect("gossip quiesces");
    println!(
        "after heal: converged = {}, height = {}, distinct tips = {}",
        fleet.converged(|_| true),
        height(&fleet),
        distinct_tips(&fleet)
    );
    assert!(fleet.converged(|_| true));
    println!(
        "\nthe majority chain won; every node holds identical detection \
         history — the 'authoritative, complete and consistent reference' \
         of §I, with no coordinator anywhere."
    );

    // The same escrow payout, walked through the single-view platform:
    // release, `R†` to finality, `R*`, payout.
    println!("\n-- escrow payout (contract execution on the platform) --");
    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(41);
    let system = IoTSystem::build(
        "gateway-fw",
        "5.2",
        platform.library(),
        vec![VulnId(8)],
        &mut rng,
    )
    .unwrap();
    let sra_id = platform
        .release_system(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .expect("release verifies");
    platform.fund(detector.address(), Ether::from_ether(10));
    let (initial, detailed) =
        create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(8)], "found"));
    platform
        .submit_initial(&detector, initial)
        .expect("R† admits");
    platform.mine_blocks(8); // R† reaches 6-block finality
    platform
        .submit_detailed(&detector, detailed)
        .expect("R* verifies");
    let payouts = platform.mine_blocks(8); // R* finalizes → escrow pays
    println!(
        "escrow paid {} ether to the detector with no provider involvement",
        payouts[0].amount.as_f64()
    );

    // Telemetry: the run above exercised every layer; the snapshot is
    // seed-deterministic (see OBSERVABILITY.md).
    let snapshot = smartcrowd::telemetry::global().snapshot();
    println!("\n== telemetry snapshot ==\n");
    println!("{}", snapshot.render_table());
    let subsystems = snapshot.subsystems();
    println!("active subsystems: {}", subsystems.join(", "));
    for required in ["chain", "core", "net", "vm"] {
        assert!(
            subsystems.iter().any(|s| s == required),
            "expected nonzero {required} metrics, got {subsystems:?}"
        );
    }

    // Gossip delivers each record to all 5 nodes and every mined block is
    // re-validated everywhere, so the verified-signature cache must have
    // deduplicated most recoveries: one miss per unique record, hits for
    // every re-encounter.
    let counter = |key: &str| match snapshot.get(key) {
        Some(smartcrowd::telemetry::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let hits = counter("chain.sigcache.hit");
    let misses = counter("chain.sigcache.miss");
    println!(
        "\nsigcache: {hits} hits / {misses} misses — each record's ECDSA \
         recovery ran once, not once per node per phase"
    );
    assert!(hits > 0, "expected sigcache hits across 5 gossiping nodes");
}
