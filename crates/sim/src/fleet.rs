//! Multi-node distributed simulation.
//!
//! Where [`crate::run`] drives the single-view [`Platform`] for economics,
//! a [`Fleet`] runs **N independent [`ProviderNode`]s over the gossip
//! network** — each with its own chain store, mempool, verification state
//! and settlement — and demonstrates the paper's Phase #3 property end to
//! end: "SmartCrowd is fault-tolerant for verifying and storing detection
//! results that is determined by the majority of IoT providers."
//!
//! The fleet is N node slots (running, or vacated by a crash) over one
//! seeded [`GossipNet`] and one hash-power-weighted mining race. It owns
//! the mechanics every multi-node harness needs — boot (and reboot) with
//! the shared genesis allocation, the in-order message pump, an
//! honest mining round, anti-entropy. Fault-free scenarios (the
//! `distributed_consensus` example, the protocol goldens) call it
//! directly; the chaos harness adds only its faults.
//!
//! Messages a node's *handlers* emit pass the fleet's relay filter before
//! reaching the wire (the chaos harness plants its reconciliation bug
//! there); a miner's own block and injected workload records never do.
//!
//! [`Platform`]: smartcrowd_core::platform::Platform

use crate::error::SimError;
use smartcrowd_chain::simminer::{SimMiner, SimParticipant, PAPER_HASH_POWERS};
use smartcrowd_chain::{Block, ChainBackend, Difficulty, Ether};
use smartcrowd_core::economics::{BLOCK_CAPACITY, PROVIDER_FUNDING};
use smartcrowd_core::node::{Outbox, ProviderNode};
use smartcrowd_core::sra::SraId;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_net::{GossipNet, LinkConfig, Message, NodeId};

/// Safety bound on message-pump iterations per pump call.
const PUMP_LIMIT: usize = 10_000;

/// N provider-node slots over a gossip fabric and a mining race. Slot `i`
/// is gossip node `NodeId(i)`.
#[derive(Debug)]
pub struct Fleet {
    /// `None` while the node is crashed.
    slots: Vec<Option<ProviderNode>>,
    keypairs: Vec<KeyPair>,
    /// The genesis allocation every node settles over: each node's
    /// provider account, funded alike.
    allocation: Vec<(Address, Ether)>,
    net: GossipNet,
    race: SimMiner,
    genesis: Block,
    library: VulnLibrary,
    relay: fn(&Message) -> bool,
    seed: u64,
}

impl Fleet {
    /// Boots `n > 0` nodes keyed `"{key_label}-{i}"` with the paper's
    /// hash-power profile (cycled if `n > 5`), a shared genesis and a
    /// shared library; `backend` opens node `i`'s chain store (its error
    /// aborts the boot), over which [`Fleet::restart`] opens the node.
    /// Handler outboxes reach the wire only where `relay` says so.
    pub fn boot<E>(
        n: usize,
        seed: u64,
        link: LinkConfig,
        key_label: &str,
        relay: fn(&Message) -> bool,
        mut backend: impl FnMut(usize, &Block) -> Result<Box<dyn ChainBackend>, E>,
    ) -> Result<Fleet, E> {
        assert!(n > 0, "need at least one node");
        let keypairs: Vec<KeyPair> = (0..n)
            .map(|i| KeyPair::from_seed(format!("{key_label}-{i}").as_bytes()))
            .collect();
        let accounts = keypairs.iter().map(KeyPair::address);
        let allocation: Vec<_> = accounts.map(|a| (a, PROVIDER_FUNDING)).collect();
        let hash_powers = PAPER_HASH_POWERS.iter().cycle();
        let participants = allocation.iter().zip(hash_powers);
        let participants: Vec<_> = participants
            .map(|(&(address, _), &hash_power)| SimParticipant {
                address,
                hash_power,
            })
            .collect();
        let mut fleet = Fleet {
            slots: (0..n).map(|_| None).collect(),
            keypairs,
            allocation,
            net: GossipNet::new(link, seed),
            race: SimMiner::new(participants, seed ^ 0xace),
            genesis: Block::genesis(Difficulty::from_u64(1)),
            library: VulnLibrary::synthetic(200, seed ^ 0x11b),
            relay,
            seed,
        };
        for i in 0..n {
            let id = fleet.net.register();
            assert_eq!(id, NodeId(i), "gossip ids follow slot order");
            let backend = backend(i, &fleet.genesis)?;
            fleet.restart(i, backend);
        }
        Ok(fleet)
    }

    /// Node `idx`, unless crashed.
    pub fn node(&self, idx: usize) -> Option<&ProviderNode> {
        self.slots[idx].as_ref()
    }

    /// Slot `idx`: take the node out to crash it.
    pub fn slot(&mut self, idx: usize) -> &mut Option<ProviderNode> {
        &mut self.slots[idx]
    }

    /// (Re)boots node `idx` over its chain `backend` through
    /// [`ProviderNode::open`], with the fleet's genesis allocation.
    pub fn restart(&mut self, idx: usize, backend: Box<dyn ChainBackend>) {
        let (keypair, library) = (self.keypairs[idx], self.library.clone());
        let node = ProviderNode::open(keypair, backend, library, &self.allocation);
        self.slots[idx] = Some(node);
    }

    /// Every running node with its index.
    pub fn running(&self) -> impl Iterator<Item = (usize, &ProviderNode)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, slot)| Some((i, slot.as_ref()?)))
    }

    /// The signing keys of node `idx`.
    pub fn keypair(&self, idx: usize) -> &KeyPair {
        &self.keypairs[idx]
    }

    /// The shared genesis block.
    pub fn genesis(&self) -> &Block {
        &self.genesis
    }

    /// The shared vulnerability library.
    pub fn library(&self) -> &VulnLibrary {
        &self.library
    }

    /// Whether every running node selected by `among` holds the same tip.
    pub fn converged(&self, among: impl Fn(usize) -> bool) -> bool {
        let mut tips = self
            .running()
            .filter(|(i, _)| among(*i))
            .map(|(_, node)| node.store().best_tip());
        let first = tips.next();
        tips.all(|tip| Some(tip) == first)
    }

    /// Splits the network: `minority` (out-of-range indices ignored) loses
    /// contact with the rest until [`Fleet::heal_partition`].
    pub fn partition(&mut self, minority: &[usize]) {
        let in_range = minority.iter().filter(|&&i| i < self.slots.len());
        let ids: Vec<NodeId> = in_range.map(|&i| NodeId(i)).collect();
        self.net.partition(&ids);
    }

    /// Reconnects the network.
    pub fn heal_partition(&mut self) {
        self.net.heal_partition();
    }

    /// Messages the link layer duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.net.duplicated()
    }

    /// Queues `message` from node `from` to every peer.
    pub fn broadcast(&mut self, from: usize, message: Message) {
        let sent = self.net.broadcast(NodeId(from), message);
        sent.expect("registered node");
    }

    /// Queues `message` from node `from` to node `to` only.
    pub fn send(&mut self, from: usize, to: usize, message: Message) {
        let sent = self.net.send(NodeId(from), NodeId(to), message);
        sent.expect("registered node");
    }

    /// What the relay filter lets through of a handler's outbox.
    fn relayed(&self, mut out: Outbox) -> Outbox {
        out.broadcast.retain(|m| (self.relay)(m));
        out
    }

    fn broadcast_outbox(&mut self, from: usize, out: Outbox) {
        for m in out.broadcast {
            self.broadcast(from, m);
        }
    }

    /// Delivers queued messages (and the messages those deliveries
    /// generate) until the network is quiet. Deliveries to crashed nodes
    /// are dropped on the floor.
    ///
    /// # Errors
    ///
    /// [`SimError::PumpDiverged`] — carrying the seed, so the schedule can
    /// be replayed — when the nodes keep generating traffic past the
    /// iteration budget instead of quiescing. Every method below that
    /// pumps fails the same way.
    pub fn pump(&mut self) -> Result<(), SimError> {
        let mut iterations = 0;
        while self.net.has_pending() {
            let deliveries = self.net.drain();
            iterations += 1;
            if iterations >= PUMP_LIMIT {
                return Err(SimError::PumpDiverged {
                    seed: self.seed,
                    iterations,
                    pending: deliveries.len(),
                });
            }
            for d in deliveries {
                let idx = d.to.0;
                if let Some(node) = &mut self.slots[idx] {
                    let out = node.handle(d.message);
                    self.broadcast_outbox(idx, self.relayed(out));
                }
            }
        }
        Ok(())
    }

    /// Releases a system from node `idx` (which must be running) and
    /// gossips the SRA until the network is quiet.
    pub fn release(
        &mut self,
        idx: usize,
        system: IoTSystem,
        insurance: Ether,
        mu: Ether,
    ) -> Result<SraId, SimError> {
        let node = self.slots[idx].as_mut().expect("releasing node is running");
        let (sra_id, out) = node.release(system, insurance, mu);
        self.broadcast_outbox(idx, out);
        self.pump()?;
        Ok(sra_id)
    }

    /// Hands a client's `message` to node `idx` (which must be running)
    /// and gossips it until the network is quiet.
    pub fn inject(&mut self, idx: usize, message: Message) -> Result<(), SimError> {
        let node = self.slots[idx].as_mut().expect("entry node is running");
        let out = node.handle(message.clone());
        self.broadcast(idx, message);
        self.broadcast_outbox(idx, self.relayed(out));
        self.pump()
    }

    /// Samples the race: this round's winner and its block timestamp.
    pub fn next_round(&mut self) -> (usize, u64) {
        let event = self.race.next_event();
        let timestamp = self.genesis.header().timestamp + self.race.clock().ceil() as u64;
        (event.winner, timestamp)
    }

    /// Node `winner` mines from its own mempool and broadcasts the block
    /// (a crashed winner loses the round).
    pub fn mine_and_broadcast(&mut self, winner: usize, timestamp: u64) {
        if let Some(node) = &mut self.slots[winner] {
            let out = node.mine(timestamp, BLOCK_CAPACITY).1;
            self.broadcast_outbox(winner, out);
        }
    }

    /// One honest mining round: the race picks a winner, who mines if
    /// `eligible` (and running), and the block gossips to everyone.
    /// Returns the winner.
    pub fn mine_round(&mut self, eligible: impl Fn(usize) -> bool) -> Result<usize, SimError> {
        let (winner, timestamp) = self.next_round();
        if eligible(winner) {
            self.mine_and_broadcast(winner, timestamp);
        }
        self.pump()?;
        Ok(winner)
    }

    /// Anti-entropy: every running node selected by `among` rebroadcasts
    /// its canonical chain so laggards catch up (a minimal sync protocol).
    /// It is reconciliation traffic, so it passes the relay filter.
    pub fn anti_entropy(&mut self, among: impl Fn(usize) -> bool) -> Result<(), SimError> {
        for i in (0..self.slots.len()).filter(|&i| among(i)) {
            let Some(node) = &self.slots[i] else { continue };
            let chain = node.store().canonical_blocks().into_iter();
            let blocks = chain.filter(|b| b.header().height > 0);
            let broadcast = blocks.map(|b| Message::Block(Box::new(b))).collect();
            self.broadcast_outbox(i, self.relayed(Outbox { broadcast }));
        }
        self.pump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::record::{Record, RecordKind};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_chain::storage::{export_chain, import_chain};
    use smartcrowd_chain::{ChainStore, CONFIRMATION_DEPTH};
    use smartcrowd_core::economics::{BLOCK_REWARD, INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
    use smartcrowd_core::report::{create_report_pair, Findings};
    use smartcrowd_detect::vulnerability::VulnId;
    use std::collections::{BTreeMap, BTreeSet};
    use std::convert::Infallible;

    fn memory(_: usize, genesis: &Block) -> Result<Box<dyn ChainBackend>, Infallible> {
        Ok(Box::new(ChainStore::new(genesis.clone())))
    }

    /// `n` in-memory nodes over `link` that relay everything.
    fn fleet_with_link(n: usize, seed: u64, link: LinkConfig) -> Fleet {
        let Ok(fleet) = Fleet::boot(n, seed, link, "dist-node", |_| true, memory);
        fleet
    }

    fn fleet(n: usize, seed: u64) -> Fleet {
        fleet_with_link(n, seed, LinkConfig::default())
    }

    fn mine_rounds(fleet: &mut Fleet, k: usize) {
        for _ in 0..k {
            fleet.mine_round(|_| true).unwrap();
        }
    }

    /// Reconnects the network and lets every node rebroadcast its chain.
    fn heal(fleet: &mut Fleet) {
        fleet.heal_partition();
        fleet.anti_entropy(|_| true).unwrap();
    }

    fn tips(fleet: &Fleet) -> BTreeSet<String> {
        let tips = fleet.running().map(|(_, n)| n.store().best_tip());
        tips.map(|tip| tip.to_string()).collect()
    }

    /// Submits `detector`'s `R†` and `R*` on `findings` through node `idx`.
    fn report(
        fleet: &mut Fleet,
        idx: usize,
        sra_id: SraId,
        detector: &KeyPair,
        findings: Findings,
    ) {
        let (initial, detailed) = create_report_pair(detector, sra_id, findings);
        let records = [
            (RecordKind::InitialReport, initial.encode(), 0),
            (RecordKind::DetailedReport, detailed.encode(), 1),
        ];
        for (kind, payload, nonce) in records {
            let record = Record::signed(kind, payload, REPORT_FEE, nonce, detector);
            fleet.inject(idx, Message::Record(record)).unwrap();
        }
    }

    #[test]
    fn restarted_node_folds_its_confirmed_prefix_once() {
        let Ok(mut fleet) = Fleet::boot(3, 7, LinkConfig::default(), "fleet", |_| true, memory);
        mine_rounds(&mut fleet, 10);
        let crashed = fleet.slot(1).take().unwrap();
        let recovered = import_chain(&export_chain(crashed.store())).unwrap();
        fleet.restart(1, Box::new(recovered));
        let settlement = fleet.node(1).unwrap().settlement();
        assert!(settlement.cursor().0 > 0);
        assert_eq!(settlement.folded(), settlement.cursor().0);
        assert_eq!(
            settlement.genesis_supply(),
            crashed.settlement().genesis_supply()
        );
    }

    #[test]
    fn every_replica_pays_the_miners_of_its_confirmed_blocks() {
        let mut fleet = fleet(5, 5);
        for round in 0..14u64 {
            // Two providers a round pay a fee to whoever mines it.
            for idx in [round as usize % 5, (round as usize + 2) % 5] {
                let payload = round.to_be_bytes().to_vec();
                let (kind, nonce) = (RecordKind::Transfer, 1000 + round);
                let record = Record::signed(kind, payload, REPORT_FEE, nonce, fleet.keypair(idx));
                fleet.inject(idx, Message::Record(record)).unwrap();
            }
            fleet.mine_round(|_| true).unwrap();
        }
        assert!(fleet.converged(|_| true), "tips: {:?}", tips(&fleet));
        // The balances the confirmed chain implies, read off one replica's
        // blocks: genesis funding, plus each block's reward and fees to its
        // miner, less each record's fee from its sender.
        let chain = fleet.node(0).unwrap().store();
        let horizon = chain.best_height() - CONFIRMATION_DEPTH;
        assert!(horizon >= 8, "confirmed {horizon} blocks");
        let accounts = (0..5).map(|i| fleet.keypair(i).address());
        let mut balances: BTreeMap<Address, Ether> =
            accounts.map(|a| (a, PROVIDER_FUNDING)).collect();
        let mut income: BTreeMap<Address, Ether> = BTreeMap::new();
        let mut fees = 0;
        for height in 1..=horizon {
            let block = chain.canonical_block_at(height).unwrap();
            let miner = block.header().miner;
            let earned = BLOCK_REWARD + REPORT_FEE * block.records().len() as u64;
            *balances.get_mut(&miner).unwrap() += earned;
            *income.entry(miner).or_default() += earned;
            for record in block.records() {
                *balances.get_mut(&record.sender()).unwrap() -= REPORT_FEE;
                fees += 1;
            }
        }
        assert!(income.len() > 1 && fees > 0, "several miners, paid fees");
        for (i, node) in fleet.running() {
            let settlement = node.settlement();
            assert_eq!(settlement.cursor().0, horizon, "node {i}");
            for (account, balance) in &balances {
                let earned = income.get(account).copied().unwrap_or_default();
                assert_eq!(settlement.state().balance(account), *balance, "node {i}");
                assert_eq!(settlement.tally(account).income, earned, "node {i}");
            }
            let (supply, accounted) = settlement.audit_supply();
            assert_eq!(supply, accounted, "node {i}");
            let rewards = BLOCK_REWARD * horizon;
            assert_eq!(accounted, settlement.genesis_supply() + rewards, "node {i}");
        }
    }

    #[test]
    fn five_nodes_converge_over_gossip() {
        let mut fleet = fleet(5, 1);
        mine_rounds(&mut fleet, 12);
        assert!(fleet.converged(|_| true), "tips: {:?}", tips(&fleet));
        assert_eq!(fleet.node(0).unwrap().store().best_height(), 12);
    }

    #[test]
    fn release_and_report_replicate_to_every_store() {
        let mut fleet = fleet(4, 2);
        let mut rng = SimRng::seed_from_u64(9);
        let system = IoTSystem::build("fw", "1", fleet.library(), vec![VulnId(3)], &mut rng);
        let sra_id = fleet
            .release(0, system.unwrap(), INSURANCE, INCENTIVE_PER_VULN)
            .unwrap();
        // A detector submits through node 2.
        let detector = KeyPair::from_seed(b"dist-detector");
        report(
            &mut fleet,
            2,
            sra_id,
            &detector,
            Findings::new(vec![VulnId(3)], "x"),
        );
        mine_rounds(&mut fleet, 3);
        assert!(fleet.converged(|_| true));
        // Every node's canonical chain holds the SRA and both reports.
        for (i, node) in fleet.running() {
            let count = |kind| node.store().records_of_kind(kind).len();
            let sras = count(RecordKind::Sra);
            let initials = count(RecordKind::InitialReport);
            let detaileds = count(RecordKind::DetailedReport);
            assert_eq!((sras, initials, detaileds), (1, 1, 1), "node {i}");
        }
    }

    #[test]
    fn partition_diverges_then_heals_to_majority_chain() {
        let mut fleet = fleet(5, 3);
        mine_rounds(&mut fleet, 3);
        assert!(fleet.converged(|_| true));
        // Cut node 4 off; mine while it is isolated.
        fleet.partition(&[4]);
        mine_rounds(&mut fleet, 8);
        // With hash power flowing to whoever wins, the partitions very
        // likely diverged (node 4 only advanced when it won rounds).
        heal(&mut fleet);
        assert!(fleet.converged(|_| true), "after heal: {:?}", tips(&fleet));
        // The common chain is the longest one that was mined.
        let height = fleet.node(0).unwrap().store().best_height();
        assert!(height >= 8, "majority progress retained: {height}");
    }

    #[test]
    fn lossy_network_converges_with_block_requests_and_anti_entropy() {
        // 15% message loss: dropped blocks leave gaps that the sync
        // buffer's BlockRequest path and the heal's anti-entropy repair.
        let link = LinkConfig {
            base_latency: 0.05,
            jitter: 0.05,
            drop_rate: 0.15,
            ..LinkConfig::default()
        };
        let mut fleet = fleet_with_link(4, 11, link);
        mine_rounds(&mut fleet, 20);
        // Convergence is not guaranteed round-by-round under loss; one
        // anti-entropy pass must repair any residual divergence.
        heal(&mut fleet);
        let tips = tips(&fleet);
        assert!(
            fleet.converged(|_| true),
            "tips after anti-entropy: {tips:?}"
        );
        let height = fleet.node(0).unwrap().store().best_height();
        assert!(
            height >= 15,
            "most rounds survive 15% loss: height {height}"
        );
    }

    #[test]
    fn forged_record_never_reaches_any_canonical_chain() {
        let mut fleet = fleet(3, 4);
        let mut rng = SimRng::seed_from_u64(10);
        let system = IoTSystem::build("fw", "1", fleet.library(), vec![VulnId(5)], &mut rng);
        let sra_id = fleet
            .release(1, system.unwrap(), INSURANCE, INCENTIVE_PER_VULN)
            .unwrap();
        let cheat = KeyPair::from_seed(b"dist-cheat");
        let forged = Findings::new(vec![VulnId(150)], "fabricated");
        report(&mut fleet, 0, sra_id, &cheat, forged);
        mine_rounds(&mut fleet, 4);
        for (_, node) in fleet.running() {
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
