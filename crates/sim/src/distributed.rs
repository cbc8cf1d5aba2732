//! Multi-node distributed simulation.
//!
//! Where [`crate::run`] drives the single-view [`Platform`] for economics,
//! this module runs **N independent [`ProviderNode`]s over the gossip
//! network** — each with its own chain store, mempool and verification
//! state — and demonstrates the paper's Phase #3 property end to end:
//! "SmartCrowd is fault-tolerant for verifying and storing detection
//! results that is determined by the majority of IoT providers."
//!
//! The mechanics (boot, message pump, mining round, anti-entropy) are the
//! shared [`Fleet`] driver; this type is the fault-free scenario API over
//! it.
//!
//! [`Platform`]: smartcrowd_core::platform::Platform
//! [`ProviderNode`]: smartcrowd_core::node::ProviderNode

use crate::error::SimError;
use crate::fleet::Fleet;
use smartcrowd_chain::{ChainStore, Ether};
use smartcrowd_core::node::ProviderNode;
use smartcrowd_core::sra::SraId;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_net::{LinkConfig, Message};
use std::convert::Infallible;

/// A network of independent provider nodes.
#[derive(Debug)]
pub struct DistributedSim {
    fleet: Fleet,
}

impl DistributedSim {
    /// Boots `n` provider nodes with the paper's hash-power profile
    /// (cycled if `n > 5`), a shared genesis and a shared library.
    pub fn new(n: usize, seed: u64) -> DistributedSim {
        Self::new_with_link(n, seed, LinkConfig::default())
    }

    /// Like [`DistributedSim::new`] with explicit link behaviour (latency,
    /// jitter, message loss) for fault-injection experiments.
    pub fn new_with_link(n: usize, seed: u64, link: LinkConfig) -> DistributedSim {
        let fleet = Fleet::boot(
            n,
            seed,
            link,
            "dist-node",
            |_| true,
            |_, genesis| Ok::<_, Infallible>(Box::new(ChainStore::new(genesis.clone())) as _),
        )
        .unwrap_or_else(|e| match e {});
        DistributedSim { fleet }
    }

    /// The nodes (read-only).
    pub fn nodes(&self) -> Vec<&ProviderNode> {
        self.fleet.running().map(|(_, node)| node).collect()
    }

    /// Releases a system from node `idx` and gossips the SRA.
    /// Fails with [`SimError::PumpDiverged`] when the gossip pump does not
    /// quiesce.
    pub fn release_from(
        &mut self,
        idx: usize,
        system: IoTSystem,
        insurance: Ether,
        mu: Ether,
    ) -> Result<SraId, SimError> {
        self.fleet.release(idx, system, insurance, mu)
    }

    /// Injects a detector-signed record at node `idx` and gossips it.
    /// Fails with [`SimError::PumpDiverged`] when the gossip pump does not
    /// quiesce.
    pub fn inject_record(&mut self, idx: usize, message: Message) -> Result<(), SimError> {
        self.fleet.inject(idx, message)
    }

    /// Runs one mining round: the race picks a winner, the winner mines
    /// from its own mempool, and the block gossips to everyone.
    /// Fails with [`SimError::PumpDiverged`] when the gossip pump does not
    /// quiesce.
    pub fn mine_round(&mut self) -> Result<usize, SimError> {
        self.fleet.mine_round(|_| true)
    }

    /// Mines `k` rounds.
    /// Fails with [`SimError::PumpDiverged`] when the gossip pump does not
    /// quiesce.
    pub fn mine_rounds(&mut self, k: usize) -> Result<(), SimError> {
        for _ in 0..k {
            self.mine_round()?;
        }
        Ok(())
    }

    /// Splits the network: the given node indices lose contact with the
    /// rest until [`DistributedSim::heal`].
    pub fn partition(&mut self, minority: &[usize]) {
        self.fleet.partition(minority);
    }

    /// Heals the partition and resynchronizes: every node re-broadcasts
    /// its canonical chain so laggards catch up (a minimal sync protocol).
    /// Fails with [`SimError::PumpDiverged`] when the gossip pump does not
    /// quiesce.
    pub fn heal(&mut self) -> Result<(), SimError> {
        self.fleet.heal_partition();
        self.fleet.anti_entropy(|_| true)
    }

    /// Whether every node holds the same best tip.
    pub fn converged(&self) -> bool {
        self.fleet.converged(|_| true)
    }

    /// The set of distinct best tips (diagnostics).
    pub fn tips(&self) -> Vec<String> {
        let mut tips: Vec<String> = self
            .fleet
            .running()
            .map(|(_, n)| n.store().best_tip().to_string())
            .collect();
        tips.sort();
        tips.dedup();
        tips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::record::{Record, RecordKind};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_core::report::{create_report_pair, Findings};
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::library::VulnLibrary;
    use smartcrowd_detect::vulnerability::VulnId;

    #[test]
    fn five_nodes_converge_over_gossip() {
        let mut sim = DistributedSim::new(5, 1);
        sim.mine_rounds(12).unwrap();
        assert!(sim.converged(), "tips: {:?}", sim.tips());
        assert_eq!(sim.nodes()[0].store().best_height(), 12);
    }

    #[test]
    fn release_and_report_replicate_to_every_store() {
        let mut sim = DistributedSim::new(4, 2);
        let library = VulnLibrary::synthetic(200, 2 ^ 0x11b);
        let mut rng = SimRng::seed_from_u64(9);
        let system = IoTSystem::build("fw", "1", &library, vec![VulnId(3)], &mut rng).unwrap();
        let sra_id = sim
            .release_from(0, system, Ether::from_ether(1000), Ether::from_ether(25))
            .unwrap();
        // A detector submits through node 2.
        let detector = KeyPair::from_seed(b"dist-detector");
        let (initial, detailed) =
            create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(3)], "x"));
        sim.inject_record(
            2,
            Message::Record(Record::signed(
                RecordKind::InitialReport,
                initial.encode(),
                Ether::from_milliether(11),
                0,
                &detector,
            )),
        )
        .unwrap();
        sim.inject_record(
            2,
            Message::Record(Record::signed(
                RecordKind::DetailedReport,
                detailed.encode(),
                Ether::from_milliether(11),
                1,
                &detector,
            )),
        )
        .unwrap();
        sim.mine_rounds(3).unwrap();
        assert!(sim.converged());
        // Every node's canonical chain holds the SRA and both reports.
        for (i, node) in sim.nodes().iter().enumerate() {
            let sras = node.store().records_of_kind(RecordKind::Sra).len();
            let initials = node
                .store()
                .records_of_kind(RecordKind::InitialReport)
                .len();
            let detaileds = node
                .store()
                .records_of_kind(RecordKind::DetailedReport)
                .len();
            assert_eq!((sras, initials, detaileds), (1, 1, 1), "node {i}");
        }
    }

    #[test]
    fn partition_diverges_then_heals_to_majority_chain() {
        let mut sim = DistributedSim::new(5, 3);
        sim.mine_rounds(3).unwrap();
        assert!(sim.converged());
        // Cut node 4 off; mine while it is isolated.
        sim.partition(&[4]);
        sim.mine_rounds(8).unwrap();
        // With hash power flowing to whoever wins, the partitions very
        // likely diverged (node 4 only advanced when it won rounds).
        sim.heal().unwrap();
        assert!(sim.converged(), "after heal: {:?}", sim.tips());
        // The common chain is the longest one that was mined.
        let height = sim.nodes()[0].store().best_height();
        assert!(height >= 8, "majority progress retained: {height}");
    }

    #[test]
    fn lossy_network_converges_with_block_requests_and_anti_entropy() {
        // 15% message loss: dropped blocks leave gaps that the sync
        // buffer's BlockRequest path and the heal() anti-entropy repair.
        let mut sim = DistributedSim::new_with_link(
            4,
            11,
            LinkConfig {
                base_latency: 0.05,
                jitter: 0.05,
                drop_rate: 0.15,
                ..LinkConfig::default()
            },
        );
        sim.mine_rounds(20).unwrap();
        // Convergence is not guaranteed round-by-round under loss; one
        // anti-entropy pass must repair any residual divergence.
        sim.heal().unwrap();
        assert!(sim.converged(), "tips after anti-entropy: {:?}", sim.tips());
        assert!(
            sim.nodes()[0].store().best_height() >= 15,
            "most rounds survive 15% loss: height {}",
            sim.nodes()[0].store().best_height()
        );
    }

    #[test]
    fn forged_record_never_reaches_any_canonical_chain() {
        let mut sim = DistributedSim::new(3, 4);
        let library = VulnLibrary::synthetic(200, 4 ^ 0x11b);
        let mut rng = SimRng::seed_from_u64(10);
        let system = IoTSystem::build("fw", "1", &library, vec![VulnId(5)], &mut rng).unwrap();
        let sra_id = sim
            .release_from(1, system, Ether::from_ether(1000), Ether::from_ether(25))
            .unwrap();
        let cheat = KeyPair::from_seed(b"dist-cheat");
        let (initial, forged) = create_report_pair(
            &cheat,
            sra_id,
            Findings::new(vec![VulnId(150)], "fabricated"),
        );
        sim.inject_record(
            0,
            Message::Record(Record::signed(
                RecordKind::InitialReport,
                initial.encode(),
                Ether::from_milliether(11),
                0,
                &cheat,
            )),
        )
        .unwrap();
        sim.inject_record(
            0,
            Message::Record(Record::signed(
                RecordKind::DetailedReport,
                forged.encode(),
                Ether::from_milliether(11),
                1,
                &cheat,
            )),
        )
        .unwrap();
        sim.mine_rounds(4).unwrap();
        for node in sim.nodes() {
            assert_eq!(
                node.store()
                    .records_of_kind(RecordKind::DetailedReport)
                    .len(),
                0,
                "no forged detailed report on any chain"
            );
        }
    }
}
