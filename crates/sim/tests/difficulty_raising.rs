//! A provider cannot reverse a confirmed payout by raising its declared
//! difficulty.
//!
//! Proof-of-work targets are self-certified by each header, so if a
//! block's declared difficulty counted toward fork choice, one block mined
//! at 64× the genesis difficulty (≈ 64 hash attempts here) would outweigh
//! a dozen honest blocks, orphan a confirmed `R*` and refold its payout
//! away (Bahack's difficulty-raising attack). Every node refuses a block
//! whose difficulty is not the genesis difficulty, through the same header
//! check its store runs on replay, so the attack changes nothing and a
//! durable node reopens cleanly afterwards.

use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{Block, ChainBackend, ChainStore, Difficulty, DurableStore, StorageError};
use smartcrowd_core::economics::{INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use smartcrowd_core::report::{create_report_pair, Findings};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::{LinkConfig, Message};
use smartcrowd_sim::fleet::Fleet;
use std::path::PathBuf;

const NODES: usize = 5;
const DURABLE: usize = 4;
const ATTACKER: usize = 1;

#[test]
fn a_difficulty_raised_block_cannot_reverse_a_confirmed_payout() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("difficulty-raising");
    let _ = std::fs::remove_dir_all(&dir);
    let backend = |i: usize, genesis: &Block| -> Result<Box<dyn ChainBackend>, StorageError> {
        Ok(if i == DURABLE {
            Box::new(DurableStore::open(&dir, genesis)?)
        } else {
            Box::new(ChainStore::new(genesis.clone()))
        })
    };
    let mut fleet = Fleet::boot(NODES, 5, LinkConfig::default(), "pin", |_| true, backend).unwrap();

    // A released SRA, a detector's R† and R* through node 2, and enough
    // rounds for the R* to pay out and confirm on every node.
    let mut rng = SimRng::seed_from_u64(3);
    let system = IoTSystem::build("fw", "1", fleet.library(), vec![VulnId(3)], &mut rng).unwrap();
    let sra_id = fleet
        .release(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .unwrap();
    let detector = KeyPair::from_seed(b"pin-detector");
    let findings = Findings::new(vec![VulnId(3)], "x");
    let (initial, detailed) = create_report_pair(&detector, sra_id, findings);
    let reports = [
        (RecordKind::InitialReport, initial.encode(), 0),
        (RecordKind::DetailedReport, detailed.encode(), 1),
    ];
    for (kind, payload, nonce) in reports {
        let record = Record::signed(kind, payload, REPORT_FEE, nonce, &detector);
        fleet.inject(2, Message::Record(record)).unwrap();
    }
    for _ in 0..10 {
        fleet.mine_round(|_| true).unwrap();
    }
    assert!(fleet.converged(|_| true));
    let honest = |i: usize| i != ATTACKER;
    let views = |fleet: &Fleet| {
        let nodes = fleet.running().filter(|(i, _)| honest(*i));
        nodes
            .map(|(i, node)| {
                let settlement = node.settlement();
                let payouts = settlement.payouts().to_vec();
                (i, node.store().best_tip(), settlement.cursor(), payouts)
            })
            .collect::<Vec<_>>()
    };
    let before = views(&fleet);
    assert_eq!(before.len(), NODES - 1);
    for (i, _, _, payouts) in &before {
        let height = fleet.node(*i).unwrap().store().best_height();
        assert!(height < 64, "node {i}: the raised block would outweigh it");
        assert_eq!(payouts.len(), 1, "node {i}: the confirmed R* was paid");
    }

    // One block on genesis at 64× the genesis difficulty.
    let attacker = fleet.keypair(ATTACKER).address();
    let genesis = fleet.genesis().clone();
    let raised = Block::assemble(
        &genesis,
        vec![],
        genesis.header().timestamp + 15,
        Difficulty::from_u64(64),
        attacker,
    );
    let raised = Miner::new(attacker).seal(raised, 0).unwrap();
    fleet.broadcast(ATTACKER, Message::Block(Box::new(raised.clone())));
    fleet.pump().unwrap();

    assert_eq!(views(&fleet), before, "an honest node reorged");
    for (i, node) in fleet.running() {
        assert!(!node.store().contains_block(&raised.id()), "node {i}");
    }

    // The durable node reopens cleanly, at the tip and payouts it had.
    let crashed = fleet.slot(DURABLE).take().unwrap();
    drop(crashed);
    let reopened = DurableStore::open(&dir, &genesis).unwrap();
    assert!(reopened.last_recovery().clean());
    fleet.restart(DURABLE, Box::new(reopened));
    assert_eq!(views(&fleet), before, "the restarted node lost its view");
    let _ = std::fs::remove_dir_all(&dir);
}
