//! Golden pins for the two protocol drivers.
//!
//! `Platform` and `ProviderNode` drive one shared protocol core
//! (`smartcrowd::core::protocol`). Every value below was recorded at the
//! commit *before* that collapse, when each driver still carried its own
//! copy of admission, sealing and replay — so these tests fail if the
//! shared core (or the `Fleet` driver) ever shifts a
//! record byte, a nonce, a block timestamp or the order of a gossip
//! message.

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{Block, ChainBackend, ChainQuery, ChainStore, Ether, CONFIRMATION_DEPTH};
use smartcrowd::core::detector::DetectorFleet;
use smartcrowd::core::economics::BLOCK_REWARD;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use smartcrowd::detect::VulnLibrary;
use smartcrowd::net::LinkConfig;
use smartcrowd::sim::fleet::Fleet;
use std::convert::Infallible;

/// The `tests/end_to_end.rs` fleet-audit scenario on the paper
/// configuration (seed 2019): best tip, payout list and supply audit.
#[test]
fn platform_lifecycle_matches_pre_collapse_recording() {
    let mut p = Platform::new(PlatformConfig::paper());
    let library = p.library().clone();
    let fleet = DetectorFleet::paper_fleet(&library, 0.95, 5);
    for d in fleet.detectors() {
        p.fund(d.address(), Ether::from_ether(20));
    }
    let mut rng = SimRng::seed_from_u64(1);
    let vulns: Vec<VulnId> = (1..=12).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    let sra = p.sra(&sra_id).unwrap().clone();
    let image = p.download_image(&sra_id).unwrap().clone();
    let mut reveals = Vec::new();
    for d in fleet.detectors() {
        if let Some((initial, detailed)) = d.detect(&sra, &image, &library, &mut rng) {
            p.submit_initial(d.keypair(), initial).unwrap();
            reveals.push((*d.keypair(), detailed));
        }
    }
    p.mine_blocks(8);
    for (kp, detailed) in reveals {
        p.submit_detailed(&kp, detailed).unwrap();
    }
    p.mine_blocks(10);

    assert_eq!(
        format!("{:?}", p.store().best_tip()),
        "BlockId(0xa947b89114ce9728169a95f6317dba3b614a102a164c73743731f36ee6d8be55)"
    );
    let payouts: Vec<String> = p
        .payouts()
        .iter()
        .map(|pay| format!("{} {} {}", pay.wallet, pay.vulnerabilities, pay.amount))
        .collect();
    assert_eq!(
        payouts,
        [
            "0x1fc1ace0377b34d4cb3ebff17b75163b1f950152 2 50 ETH",
            "0xd5fd52924f510a1441a32c11b9261bcf2df7fe02 9 225 ETH",
            "0x197cdbbb6af5771582562c6f884596128fb7112b 1 25 ETH",
        ]
    );
    let (supply, accounted) = p.audit_supply();
    // Block rewards are paid when a block confirms: the last
    // CONFIRMATION_DEPTH blocks' rewards are not minted yet.
    // The seven detectors that report hold the 20 ETH each was funded
    // above: a funded detector gets no top-up on its first report.
    let unconfirmed = BLOCK_REWARD * CONFIRMATION_DEPTH;
    assert_eq!((supply + unconfirmed).wei(), 26_250_000_000_000_000_000_000);
    assert_eq!(accounted, supply);
}

fn tips(fleet: &Fleet) -> Vec<String> {
    fleet
        .running()
        .map(|(_, n)| format!("{:?}", n.store().best_tip()))
        .collect()
}

fn mine_rounds(fleet: &mut Fleet, k: usize) {
    for _ in 0..k {
        fleet.mine_round(|_| true).expect("gossip quiesces");
    }
}

/// The `tests/telemetry_snapshot.rs` scenario on five in-memory `Fleet`
/// nodes (seed 7): every node's tip before the partition, during it, and
/// after the heal.
#[test]
fn distributed_sim_tips_match_pre_collapse_recording() {
    const BEFORE: &str =
        "BlockId(0x49a0575372160823abf955eab37703d51e16ca26c156c3f35379b54f557b1087)";
    const AFTER: &str =
        "BlockId(0xb70f19bd03c53a3a36203baaa5ade6a408abb68301e3e3d9a6474ca71b820cf4)";
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
    mine_rounds(&mut fleet, 4);
    assert_eq!(tips(&fleet), [BEFORE; 5]);
    fleet.partition(&[4]);
    mine_rounds(&mut fleet, 4);
    // The cut-off node won no round and stayed where it was.
    assert_eq!(tips(&fleet), [AFTER, AFTER, AFTER, AFTER, BEFORE]);
    fleet.heal_partition();
    fleet.anti_entropy(|_| true).expect("gossip quiesces");
    assert_eq!(tips(&fleet), [AFTER; 5]);
}
