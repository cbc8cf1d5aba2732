//! The seeded five-node fleet run whose telemetry the snapshot tests
//! read: it exercises chain, net and core metrics.

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{Block, ChainBackend, ChainStore, Ether};
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;
use smartcrowd::detect::VulnLibrary;
use smartcrowd::net::LinkConfig;
use smartcrowd::sim::fleet::Fleet;
use std::convert::Infallible;

/// One seeded distributed run exercising chain, net and core metrics.
pub fn seeded_run() {
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
