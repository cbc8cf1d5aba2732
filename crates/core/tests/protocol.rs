//! The protocol core and its two drivers: deferred-report handling on
//! the node, replay ≡ live for the core, verdict parity between
//! `ProviderNode::handle` and `Platform::submit_*`, and one settlement —
//! the same contract state from the same confirmed history, whichever
//! driver folded it, exactly once per block, and again after a reorg.

use proptest::prelude::*;
use smartcrowd_chain::mempool::DEFAULT_CAPACITY;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{
    Block, ChainError, ChainQuery, ChainStore, Difficulty, Ether, CONFIRMATION_DEPTH,
};
use smartcrowd_core::economics::{DETECTION_WINDOW, INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use smartcrowd_core::node::ProviderNode;
use smartcrowd_core::platform::{Platform, PlatformConfig};
use smartcrowd_core::protocol::Protocol;
use smartcrowd_core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd_core::settlement::{Payout, Settlement};
use smartcrowd_core::sra::{Sra, SraId};
use smartcrowd_core::CoreError;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::Message;
use std::collections::{BTreeMap, BTreeSet};

const FEE: Ether = Ether::from_milliether(11);

fn record(kind: RecordKind, payload: Vec<u8>, nonce: u64, signer: &KeyPair) -> Message {
    Message::Record(Record::signed(kind, payload, FEE, nonce, signer))
}

fn genesis() -> Block {
    Block::genesis(Difficulty::from_u64(1))
}

/// Node `a` releases a system planted with `VulnId(1)`; node `b` learns
/// the SRA and asks for the image. Returns the SRA id and the image
/// response `b` is still waiting for.
fn release_without_delivering_image(
    a: &mut ProviderNode,
    b: &mut ProviderNode,
    library: &VulnLibrary,
    image_seed: u64,
) -> (SraId, Message) {
    let mut rng = SimRng::seed_from_u64(image_seed);
    let system = IoTSystem::build("fw", "1", library, vec![VulnId(1)], &mut rng).unwrap();
    let (sra_id, out) = a.release(system, Ether::from_ether(1000), Ether::from_ether(25));
    let mut requests = Vec::new();
    for m in out.broadcast {
        requests.extend(b.handle(m).broadcast);
    }
    let mut responses: Vec<Message> = requests
        .into_iter()
        .flat_map(|m| a.handle(m).broadcast)
        .collect();
    assert_eq!(responses.len(), 1, "one image request, one response");
    (sra_id, responses.remove(0))
}

/// Hands `b` a detector's `R†` and `R*` claiming `claim` on `sra_id`.
fn report_both_phases(b: &mut ProviderNode, detector: &KeyPair, sra_id: SraId, claim: u64) {
    let (initial, detailed) = create_report_pair(
        detector,
        sra_id,
        Findings::new(vec![VulnId(claim)], "claim"),
    );
    b.handle(record(
        RecordKind::InitialReport,
        initial.encode(),
        0,
        detector,
    ));
    b.handle(record(
        RecordKind::DetailedReport,
        detailed.encode(),
        1,
        detector,
    ));
}

fn two_nodes() -> (ProviderNode, ProviderNode, VulnLibrary) {
    let library = VulnLibrary::synthetic(50, 1);
    let a = ProviderNode::new(KeyPair::from_seed(b"node-a"), genesis(), library.clone());
    let b = ProviderNode::new(KeyPair::from_seed(b"node-b"), genesis(), library.clone());
    (a, b, library)
}

fn mined_detailed_reports(node: &mut ProviderNode) -> usize {
    let (block, _) = node.mine(genesis().header().timestamp + 15, 16);
    block
        .records()
        .iter()
        .filter(|r| r.kind() == RecordKind::DetailedReport)
        .count()
}

#[test]
fn forged_report_deferred_before_its_artifact_is_evicted_on_arrival() {
    let (mut a, mut b, library) = two_nodes();
    let (sra_id, image) = release_without_delivering_image(&mut a, &mut b, &library, 5);
    let cheat = KeyPair::from_seed(b"cheat");
    report_both_phases(&mut b, &cheat, sra_id, 40); // VulnId(40) is not planted
    assert_eq!(
        b.mempool_len(),
        2,
        "SRA and R†; the unjudged R* waits outside"
    );
    b.handle(image);
    assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 1);
    assert_eq!(b.mempool_len(), 2, "the forged R* never reached the pool");
    assert_eq!(mined_detailed_reports(&mut b), 0);
}

#[test]
fn honest_report_deferred_before_its_artifact_survives_arrival() {
    let (mut a, mut b, library) = two_nodes();
    let (sra_id, image) = release_without_delivering_image(&mut a, &mut b, &library, 5);
    let detector = KeyPair::from_seed(b"detector");
    report_both_phases(&mut b, &detector, sra_id, 1);
    b.handle(image);
    assert_eq!(b.scoreboard().score(&detector.address()).confirmed, 1);
    assert_eq!(b.mempool_len(), 3);
    assert_eq!(mined_detailed_reports(&mut b), 1);
}

#[test]
fn report_waiting_on_another_artifact_stays_deferred() {
    let (mut a, mut b, library) = two_nodes();
    let (_, first_image) = release_without_delivering_image(&mut a, &mut b, &library, 5);
    let (second, second_image) = release_without_delivering_image(&mut a, &mut b, &library, 6);
    let cheat = KeyPair::from_seed(b"cheat");
    report_both_phases(&mut b, &cheat, second, 40);
    assert_eq!(b.mempool_len(), 3);
    // The other release's artifact arrives: nothing to judge yet.
    b.handle(first_image);
    assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 0);
    assert_eq!(b.mempool_len(), 3);
    // Its own artifact arrives: judged, struck, dropped.
    b.handle(second_image);
    assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 1);
    assert_eq!(b.mempool_len(), 3);
}

/// A record the full pool turns away is turned away before the switch
/// indexes it: an SRA indexed without being pooled would never have its
/// image requested, and every `R*` for it would wait forever.
#[test]
fn record_the_pool_refuses_leaves_no_knowledge() {
    let library = VulnLibrary::synthetic(50, 1);
    let mut core = Protocol::new(Box::new(ChainStore::new(genesis())), library, &[]);
    let payer = KeyPair::from_seed(b"payer");
    let better = Ether::from_milliether(12);
    assert!(better > REPORT_FEE);
    for nonce in 0..DEFAULT_CAPACITY as u64 {
        let transfer = Record::signed(RecordKind::Transfer, vec![], better, nonce, &payer);
        core.admit(transfer).expect("the pool has room");
    }
    let provider = KeyPair::from_seed(b"provider");
    let sra = Sra::create(
        &provider,
        "fw",
        "1",
        [7; 32],
        "sim://fw/1",
        INSURANCE,
        INCENTIVE_PER_VULN,
    );
    let announcement = Record::signed(RecordKind::Sra, sra.encode(), REPORT_FEE, 0, &provider);
    assert!(matches!(
        core.admit(announcement),
        Err(CoreError::Chain(ChainError::MempoolFull))
    ));
    assert!(core.sra(sra.id()).is_none());
    assert_eq!(core.mempool_len(), DEFAULT_CAPACITY);
}

/// A platform and a node that know the same release: the node learned the
/// SRA from the platform's chain record and downloaded the same image.
fn platform_and_node() -> (Platform, ProviderNode, SraId) {
    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(9);
    let system =
        IoTSystem::build("fw", "1", platform.library(), vec![VulnId(1)], &mut rng).unwrap();
    let image = system.image().to_vec();
    let sra_id = platform
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    platform.mine_block();
    let announcement = platform.store().records_of_kind(RecordKind::Sra)[0]
        .0
        .clone();
    let mut node = ProviderNode::new(
        KeyPair::from_seed(b"peer"),
        genesis(),
        platform.library().clone(),
    );
    let requests = node.handle(Message::Record(announcement)).broadcast;
    let [Message::ImageRequest { image_hash }] = requests[..] else {
        panic!("expected one image request, got {requests:?}");
    };
    node.handle(Message::ImageResponse { image_hash, image });
    (platform, node, sra_id)
}

/// Whether the node queued the record.
fn node_admits(node: &mut ProviderNode, message: Message) -> bool {
    let before = node.mempool_len();
    node.handle(message);
    node.mempool_len() > before
}

#[test]
fn node_and_platform_reach_the_same_verdict() {
    let (mut platform, mut node, sra_id) = platform_and_node();
    let honest = KeyPair::from_seed(b"honest");
    let cheat = KeyPair::from_seed(b"cheat");
    for kp in [&honest, &cheat] {
        platform.fund(kp.address(), Ether::from_ether(10));
    }
    let (honest_initial, honest_detailed) =
        create_report_pair(&honest, sra_id, Findings::new(vec![VulnId(1)], "real"));
    let (cheat_initial, forged_detailed) =
        create_report_pair(&cheat, sra_id, Findings::new(vec![VulnId(40)], "made up"));
    let (_, stray_detailed) =
        create_report_pair(&honest, [9u8; 32], Findings::new(vec![VulnId(1)], "stray"));

    // Honest R†: both queue it.
    for (kp, initial) in [(&honest, &honest_initial), (&cheat, &cheat_initial)] {
        assert!(platform.submit_initial(kp, initial.clone()).is_ok());
        assert!(node_admits(
            &mut node,
            record(RecordKind::InitialReport, initial.encode(), 0, kp)
        ));
    }
    // Duplicate R† (resubmitted under a fresh nonce): both refuse it.
    assert_eq!(
        platform.submit_initial(&honest, honest_initial.clone()),
        Err(CoreError::DuplicateReport)
    );
    assert!(!node_admits(
        &mut node,
        record(
            RecordKind::InitialReport,
            honest_initial.encode(),
            7,
            &honest
        )
    ));
    // R* on an SRA nobody announced: both refuse it.
    assert_eq!(
        platform.submit_detailed(&honest, stray_detailed.clone()),
        Err(CoreError::UnknownSra)
    );
    assert!(!node_admits(
        &mut node,
        record(
            RecordKind::DetailedReport,
            stray_detailed.encode(),
            2,
            &honest
        )
    ));

    platform.mine_blocks(8); // the platform also wants R† confirmed
                             // Forged R*: both refuse it and strike the detector.
    assert!(matches!(
        platform.submit_detailed(&cheat, forged_detailed.clone()),
        Err(CoreError::AutoVerifFailed { .. })
    ));
    assert!(!node_admits(
        &mut node,
        record(
            RecordKind::DetailedReport,
            forged_detailed.encode(),
            1,
            &cheat
        )
    ));
    assert_eq!(platform.scoreboard().score(&cheat.address()).strikes, 1);
    assert_eq!(node.scoreboard().score(&cheat.address()).strikes, 1);
    // Honest R*: both queue it and credit the detector.
    assert!(platform
        .submit_detailed(&honest, honest_detailed.clone())
        .is_ok());
    assert!(node_admits(
        &mut node,
        record(
            RecordKind::DetailedReport,
            honest_detailed.encode(),
            1,
            &honest
        )
    ));
    assert_eq!(platform.scoreboard().score(&honest.address()).confirmed, 1);
    assert_eq!(node.scoreboard().score(&honest.address()).confirmed, 1);
}

/// What two replicas of one confirmed history must agree on: per SRA the
/// escrow contract's balance, its refund and the claimed vulnerabilities,
/// and the payout list.
type Ledger = (
    BTreeMap<SraId, (Ether, Option<Ether>, BTreeSet<VulnId>)>,
    Vec<Payout>,
);

fn ledger(settlement: &Settlement) -> Ledger {
    let escrows = settlement.escrows().iter().map(|(id, entry)| {
        let balance = entry.escrow.balance(settlement.state());
        let claimed = entry.paid_vulns.iter().copied().collect();
        (*id, (balance, entry.refunded, claimed))
    });
    (escrows.collect(), settlement.payouts().to_vec())
}

#[test]
fn platform_and_node_settle_the_same_stream_identically() {
    // Two detectors with overlapping findings, so first-confirmer-wins
    // decides who is paid for VulnId(2).
    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(9);
    let planted = vec![VulnId(1), VulnId(2), VulnId(3)];
    let system = IoTSystem::build("fw", "1", platform.library(), planted, &mut rng).unwrap();
    let image = system.image().to_vec();
    let sra_id = platform
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    let detectors = [KeyPair::from_seed(b"first"), KeyPair::from_seed(b"second")];
    let claims = [vec![VulnId(1), VulnId(2)], vec![VulnId(2), VulnId(3)]];
    let mut reveals = Vec::new();
    for (kp, claim) in detectors.iter().zip(claims) {
        platform.fund(kp.address(), Ether::from_ether(10));
        let (initial, detailed) = create_report_pair(kp, sra_id, Findings::new(claim, "x"));
        platform.submit_initial(kp, initial).unwrap();
        reveals.push((kp, detailed));
    }
    platform.mine_blocks(8);
    for (kp, detailed) in reveals {
        platform.submit_detailed(kp, detailed).unwrap();
    }
    platform.mine_blocks(8);
    assert_eq!(platform.payouts().len(), 2);

    // The node is handed the platform's signed records, block by block,
    // and mines them itself.
    let provider = platform.providers()[0].address;
    let mut node = ProviderNode::open(
        KeyPair::from_seed(b"peer"),
        Box::new(ChainStore::new(genesis())),
        platform.library().clone(),
        &[(provider, PlatformConfig::paper().provider_funding)],
    );
    for block in platform.store().canonical_blocks().skip(1) {
        for record in block.records() {
            for request in node.handle(Message::Record(record.clone())).broadcast {
                let Message::ImageRequest { image_hash } = request else {
                    panic!("unexpected {request:?}");
                };
                let image = image.clone();
                node.handle(Message::ImageResponse { image_hash, image });
            }
        }
        node.mine(block.header().timestamp, 64);
        assert_eq!(node.mempool_len(), 0, "every record was admitted and mined");
    }
    assert_eq!(node.store().best_height(), platform.store().best_height());
    assert_eq!(ledger(node.settlement()), ledger(platform.settlement()));
    assert_eq!(
        node.settlement().cursor().0,
        platform.settlement().cursor().0
    );
}

#[test]
fn each_confirmed_block_is_applied_exactly_once() {
    let mut platform = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(3);
    for round in 0..200u64 {
        if round % 40 == 0 {
            let version = round.to_string();
            let system =
                IoTSystem::build("fw", &version, platform.library(), vec![], &mut rng).unwrap();
            platform
                .release_system(1, system, Ether::from_ether(100), Ether::from_ether(1))
                .unwrap();
        }
        platform.mine_block();
        let settlement = platform.settlement();
        let horizon = platform
            .store()
            .best_height()
            .saturating_sub(CONFIRMATION_DEPTH);
        assert_eq!(settlement.cursor().0, horizon, "round {round}");
        assert_eq!(settlement.folded(), horizon, "round {round}");
    }
    assert_eq!(platform.store().best_height(), 200);
    assert_eq!(platform.settlement().escrows().len(), 5);
}

/// `n` blocks on top of `parent`, the first carrying `records`.
fn branch(parent: &Block, records: Vec<Record>, n: u64, skew: u64) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut records = Some(records);
    for _ in 0..n {
        let parent = blocks.last().unwrap_or(parent);
        blocks.push(Block::assemble(
            parent,
            records.take().unwrap_or_default(),
            parent.header().timestamp + skew,
            Difficulty::from_u64(1),
            KeyPair::from_seed(b"miner").address(),
        ));
    }
    blocks
}

/// The deep-reorg cast: a funded provider and an unfunded detector over a
/// small library.
struct Reorg {
    library: VulnLibrary,
    provider: KeyPair,
    detector: KeyPair,
    funding: [(Address, Ether); 1],
}

impl Reorg {
    fn new() -> Reorg {
        let provider = KeyPair::from_seed(b"prov-0");
        Reorg {
            library: VulnLibrary::synthetic(20, 3),
            funding: [(provider.address(), Ether::from_ether(5000))],
            provider,
            detector: KeyPair::from_seed(b"det-0"),
        }
    }

    /// An SRA of `version` (1000 ETH insured, μ = 25 ETH) and the
    /// detector's `R*` claiming `VulnId(1)` on it, as one block's records.
    fn release(&self, version: &str) -> (SraId, Vec<Record>) {
        let sra = Sra::create(
            &self.provider,
            "fw",
            version,
            [7; 32],
            "sim://fw",
            Ether::from_ether(1000),
            Ether::from_ether(25),
        );
        let findings = Findings::new(vec![VulnId(1)], "x");
        let (_, detailed) = create_report_pair(&self.detector, *sra.id(), findings);
        let records = vec![
            Record::signed(RecordKind::Sra, sra.encode(), FEE, 0, &self.provider),
            Record::signed(
                RecordKind::DetailedReport,
                detailed.encode(),
                FEE,
                1,
                &self.detector,
            ),
        ];
        (*sra.id(), records)
    }

    /// A replica at genesis.
    fn replica(&self) -> Protocol<ChainStore> {
        let store = Box::new(ChainStore::new(genesis()));
        Protocol::new(store, self.library.clone(), &self.funding)
    }
}

/// Stores and connects `blocks` on `core`, one by one.
fn extend(core: &mut Protocol<ChainStore>, blocks: &[Block]) {
    for block in blocks {
        core.backend_mut().insert(block.clone()).unwrap();
        core.connected(block);
    }
}

#[test]
fn refold_after_a_deep_reorg_equals_a_replica_that_never_saw_the_losing_branch() {
    let cast = Reorg::new();
    let (losing_sra, losing_records) = cast.release("losing");
    let (winning_sra, winning_records) = cast.release("winning");
    let replica = || cast.replica();

    // The losing branch settles its release well past finality …
    let mut forked = replica();
    extend(&mut forked, &branch(&genesis(), losing_records, 9, 15));
    assert_eq!(forked.settlement().cursor().0, 9 - CONFIRMATION_DEPTH);
    assert_eq!(forked.settlement().payouts().len(), 1);
    assert!(forked.settlement().escrows().contains_key(&losing_sra));
    // … then a heavier branch replaces it from genesis.
    let winning = branch(&genesis(), winning_records, 12, 20);
    extend(&mut forked, &winning);
    assert_eq!(forked.store().best_tip(), winning[11].id());

    let mut never_forked = replica();
    extend(&mut never_forked, &winning);
    assert!(!forked.settlement().escrows().contains_key(&losing_sra));
    assert!(forked.settlement().escrows().contains_key(&winning_sra));
    assert_eq!(
        ledger(forked.settlement()),
        ledger(never_forked.settlement())
    );
    assert_eq!(
        forked.settlement().cursor(),
        never_forked.settlement().cursor()
    );
    let supply = |core: &Protocol<ChainStore>| core.settlement().state().total_supply();
    assert_eq!(supply(&forked), supply(&never_forked));
    assert!(
        forked.settlement().folded() > never_forked.settlement().folded(),
        "the refold redid the prefix"
    );
}

#[test]
fn a_refold_and_a_restart_refund_once_like_a_fresh_fold() {
    let cast = Reorg::new();
    let (losing_sra, losing_records) = cast.release("losing");
    let (winning_sra, winning_records) = cast.release("winning");
    // Each branch seals its SRA in block 1; the window closes when that
    // block has DETECTION_WINDOW confirmations.
    let remainder = Ether::from_ether(1000 - 25);
    let winning = branch(&genesis(), winning_records, DETECTION_WINDOW + 4, 20);
    let mut fresh = cast.replica();
    extend(&mut fresh, &winning);
    let fresh = fresh.settlement();
    let provider = cast.provider.address();
    let release_cost = fresh.escrows()[&winning_sra].escrow.release_cost;
    let funds = Ether::from_ether(5000) - FEE - release_cost;
    assert_eq!(
        fresh.state().balance(&provider),
        funds - Ether::from_ether(1000) + remainder
    );
    let matches_fresh = |settlement: &Settlement, who: &str| {
        let refunded = settlement.escrows()[&winning_sra].refunded;
        assert_eq!(refunded, Some(remainder), "{who}");
        assert_eq!(ledger(settlement), ledger(fresh), "{who}");
        assert_eq!(settlement.cursor(), fresh.cursor(), "{who}");
        let balance = settlement.state().balance(&provider);
        assert_eq!(balance, fresh.state().balance(&provider), "{who}");
        assert_eq!(settlement.audit_supply(), fresh.audit_supply(), "{who}");
    };

    // The losing branch stops one block short of its window (its refund
    // still queued at the reorg) or closes it (its refund applied).
    for length in [DETECTION_WINDOW - 1, DETECTION_WINDOW] {
        let losing = branch(&genesis(), losing_records.clone(), length, 15);
        let mut forked = cast.replica();
        extend(&mut forked, &losing);
        let closed = length == DETECTION_WINDOW;
        let refunded = forked.settlement().escrows()[&losing_sra].refunded;
        assert_eq!(refunded, closed.then_some(remainder));
        // The heavier branch moves the cursor's block off the canonical chain.
        extend(&mut forked, &winning);
        assert!(!forked.settlement().escrows().contains_key(&losing_sra));
        matches_fresh(forked.settlement(), "refold");
        assert!(forked.settlement().folded() > fresh.folded(), "refolded");
        // A node restarted over the forked store, both branches in it.
        let restarted = ProviderNode::open(
            KeyPair::from_seed(b"restarted"),
            Box::new(forked.store().clone()),
            cast.library.clone(),
            &cast.funding,
        );
        let restarted = restarted.settlement();
        matches_fresh(restarted, "restart");
        assert_eq!(restarted.folded(), restarted.cursor().0, "folded once");
    }
}

/// One step of a random admit/seal schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Provider `provider` announces version `version` of its system.
    Release { provider: usize, version: u8 },
    /// Detector `detector` files `R†` (then `R*`) on the `sra`-th release.
    Report { detector: usize, sra: usize },
    /// A well-signed record of kind `kind` with an undecodable payload.
    Garbage { kind: usize },
    /// Seal up to `capacity` pending records into a block.
    Seal { capacity: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..3, 0u8..3).prop_map(|(op, a, b)| match op {
        0 => Op::Release {
            provider: a % 2,
            version: b,
        },
        1 => Op::Report {
            detector: a,
            sra: b as usize,
        },
        2 => Op::Garbage { kind: a },
        _ => Op::Seal {
            capacity: 1 + b as usize,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any admitted-then-sealed sequence, replaying the chain yields
    /// the live instance's SRA / initial-report knowledge for every
    /// canonical record — and nothing the chain does not carry.
    #[test]
    fn replay_rebuilds_the_live_knowledge(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let library = VulnLibrary::synthetic(20, 3);
        let providers = [KeyPair::from_seed(b"prov-0"), KeyPair::from_seed(b"prov-1")];
        let detectors: Vec<KeyPair> =
            (0..3u8).map(|i| KeyPair::from_seed(&[b'd', i])).collect();
        let mut live = Protocol::new(Box::new(ChainStore::new(genesis())), library.clone(), &[]);
        let mut released: Vec<SraId> = Vec::new();
        let mut timestamp = genesis().header().timestamp;
        for (nonce, op) in ops.into_iter().enumerate() {
            let nonce = nonce as u64;
            match op {
                Op::Release { provider, version } => {
                    let kp = &providers[provider];
                    let sra = Sra::create(
                        kp,
                        "fw",
                        &version.to_string(),
                        [version; 32],
                        "sim://fw",
                        Ether::from_ether(1000),
                        Ether::from_ether(25),
                    );
                    let admitted = live
                        .admit(Record::signed(RecordKind::Sra, sra.encode(), FEE, nonce, kp))
                        .is_ok();
                    // Only a repeat of a known SRA is refused.
                    prop_assert_eq!(admitted, !released.contains(sra.id()));
                    if admitted {
                        released.push(*sra.id());
                    }
                }
                Op::Report { detector, sra } => {
                    let kp = &detectors[detector];
                    let sra_id = released.get(sra).copied().unwrap_or([0xee; 32]);
                    let (initial, detailed) =
                        create_report_pair(kp, sra_id, Findings::new(vec![VulnId(1)], "x"));
                    let _ = live.admit(Record::signed(
                        RecordKind::InitialReport, initial.encode(), FEE, nonce, kp,
                    ));
                    // No artifact is held, so the R* is handed back unjudged.
                    let _ = live.admit(Record::signed(
                        RecordKind::DetailedReport, detailed.encode(), FEE, nonce, kp,
                    ));
                }
                Op::Garbage { kind } => {
                    let kind = [RecordKind::Sra, RecordKind::InitialReport, RecordKind::Transfer][kind];
                    let outcome = live.admit(Record::signed(
                        kind, vec![0xab; 7], FEE, nonce, &providers[0],
                    ));
                    prop_assert_eq!(outcome.is_ok(), kind == RecordKind::Transfer);
                }
                Op::Seal { capacity } => {
                    timestamp += 15;
                    live.seal(providers[0].address(), timestamp, capacity);
                }
            }
        }

        let replayed = Protocol::replay(Box::new(live.store().clone()), library, &[], |_| {});
        let mut sras_on_chain = 0;
        for block in live.store().canonical_blocks() {
            for r in block.records() {
                match r.kind() {
                    RecordKind::Sra => {
                        sras_on_chain += 1;
                        let sra = Sra::decode(r.payload()).unwrap();
                        prop_assert_eq!(live.sra(sra.id()), Some(&sra));
                        prop_assert_eq!(replayed.sra(sra.id()), Some(&sra));
                    }
                    RecordKind::InitialReport => {
                        let report = InitialReport::decode(r.payload()).unwrap();
                        let (sra_id, detector) = (report.sra_id(), report.detector());
                        prop_assert_eq!(live.initial(sra_id, &detector), Some(&report));
                        prop_assert_eq!(replayed.initial(sra_id, &detector), Some(&report));
                    }
                    RecordKind::DetailedReport => {
                        // Replay holds no artifact either: still unjudged.
                        let report = DetailedReport::decode(r.payload()).unwrap();
                        prop_assert_eq!(
                            replayed.scoreboard().score(&report.detector()).confirmed,
                            0
                        );
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(replayed.sras().count(), sras_on_chain);
        prop_assert_eq!(replayed.mempool_len(), 0);
    }
}

/// Ways to build the record of one differential case from an honest
/// payload signed by `signer`: `nonce` keeps the record the block carries
/// distinct from the one admitted, so neither hits the other's cache
/// entry.
#[derive(Clone, Copy, Debug)]
enum Tamper {
    Honest,
    InnerByAnotherKey,
    InnerRecoveryIdFlipped,
    InnerOverAnotherId,
    RecordSignatureForged,
    RecordSenderIsNotInnerSigner,
    IsolatedSigner,
}

const TAMPERS: [Tamper; 7] = [
    Tamper::Honest,
    Tamper::InnerByAnotherKey,
    Tamper::InnerRecoveryIdFlipped,
    Tamper::InnerOverAnotherId,
    Tamper::RecordSignatureForged,
    Tamper::RecordSenderIsNotInnerSigner,
    Tamper::IsolatedSigner,
];

/// `payload` (whose last 65 bytes are its own signature over `id`, made
/// by `signer`) tampered as `how` says, in a record from the right
/// sender.
fn tampered_record(
    kind: RecordKind,
    payload: &[u8],
    id: &[u8; 32],
    signer: &KeyPair,
    how: Tamper,
    nonce: u64,
) -> Record {
    let other = KeyPair::from_seed(b"another key");
    let mut payload = payload.to_vec();
    let at = payload.len() - 65;
    match how {
        Tamper::InnerByAnotherKey => {
            payload[at..].copy_from_slice(&other.sign(id).to_bytes());
        }
        Tamper::InnerRecoveryIdFlipped => payload[at + 64] ^= 1,
        Tamper::InnerOverAnotherId => {
            let elsewhere = smartcrowd_crypto::keccak::keccak256(b"another id");
            payload[at..].copy_from_slice(&signer.sign(&elsewhere).to_bytes());
        }
        _ => {}
    }
    match how {
        Tamper::RecordSignatureForged => {
            let mut encoded = Record::signed(kind, payload, FEE, nonce, &other).encode();
            encoded[1..21].copy_from_slice(signer.address().as_bytes());
            Record::decode(&encoded).unwrap()
        }
        Tamper::RecordSenderIsNotInnerSigner => Record::signed(kind, payload, FEE, nonce, &other),
        _ => Record::signed(kind, payload, FEE, nonce, signer),
    }
}

/// What every judge said of one case: the admission verdict, whether the
/// node pooled the record, a fresh replica's verdict on a block carrying
/// it, and whether the node took such a block. Each judge gets the record
/// under its own nonce, so no record's id is in the signature cache when
/// it is judged.
fn judged(
    admitted: Result<(), CoreError>,
    node: &mut ProviderNode,
    library: &VulnLibrary,
    make: impl Fn(u64) -> Record,
) -> String {
    let pooled = node_admits(node, Message::Record(make(11)));
    let carrier = Block::assemble(
        &genesis(),
        vec![make(12)],
        1,
        Difficulty::from_u64(1),
        Address::ZERO,
    );
    let bare = Protocol::new(Box::new(ChainStore::new(genesis())), library.clone(), &[])
        .check_block(&carrier);
    let height = node.store().best_height();
    let tip = node.store().best_block();
    let block = Block::assemble(
        &tip,
        vec![make(13)],
        tip.header().timestamp + 1,
        Difficulty::from_u64(1),
        Address::ZERO,
    );
    node.handle(Message::Block(Box::new(block)));
    let took = node.store().best_height() > height;
    let text = |r: Result<(), CoreError>| match r {
        Ok(()) => "ok".to_string(),
        Err(e) => e.to_string(),
    };
    format!(
        "{} | pooled {pooled} | block {} | node block {took}",
        text(admitted),
        text(bare)
    )
}

/// A payload signature by the record's own sender is checked in that
/// sender's signature pass; every judge must still say exactly what it
/// said when each signature had its own recovery. Each kind × tamper is
/// judged by the admission path (the platform's where it can build the
/// record, else the protocol core it runs), by a node fed the record,
/// and by a fresh replica and the node on a block that carries it.
#[test]
fn payload_signatures_checked_with_their_record_keep_every_verdict() {
    use Tamper::{IsolatedSigner, RecordSenderIsNotInnerSigner, RecordSignatureForged};
    let (mut platform, mut node, sra_id) = platform_and_node();
    let library = platform.library().clone();
    let other = KeyPair::from_seed(b"another key");
    let bare = || Protocol::new(Box::new(ChainStore::new(genesis())), library.clone(), &[]);
    let detector =
        |kind: &str, how: Tamper| KeyPair::from_seed(format!("{kind} {how:?}").as_bytes());
    // The isolated detector: an `R†` committing to a made-up finding,
    // confirmed, then its `R*` three times, on the platform and the node.
    let cheat = KeyPair::from_seed(b"isolated cheat");
    let (cheat_initial, cheat_detailed) =
        create_report_pair(&cheat, sra_id, Findings::new(vec![VulnId(40)], "made up"));
    platform
        .submit_initial(&cheat, cheat_initial.clone())
        .unwrap();
    assert!(node_admits(
        &mut node,
        record(RecordKind::InitialReport, cheat_initial.encode(), 0, &cheat)
    ));
    // Every `R*` case's detector has its honest `R†` confirmed.
    let detailed: Vec<(Tamper, KeyPair, DetailedReport)> = TAMPERS
        .into_iter()
        .filter(|how| !matches!(how, IsolatedSigner))
        .map(|how| {
            let kp = detector("detailed", how);
            let (initial, detailed) =
                create_report_pair(&kp, sra_id, Findings::new(vec![VulnId(1)], "real"));
            platform.submit_initial(&kp, initial.clone()).unwrap();
            assert!(node_admits(
                &mut node,
                record(RecordKind::InitialReport, initial.encode(), 0, &kp)
            ));
            (how, kp, detailed)
        })
        .collect();
    platform.mine_blocks(8);
    for strike in 0..3 {
        assert!(matches!(
            platform.submit_detailed(&cheat, cheat_detailed.clone()),
            Err(CoreError::AutoVerifFailed { .. })
        ));
        let forged = record(
            RecordKind::DetailedReport,
            cheat_detailed.encode(),
            1 + strike,
            &cheat,
        );
        assert!(!node_admits(&mut node, forged));
    }
    assert!(!platform.scoreboard().admits(&cheat.address()));
    assert!(!node.scoreboard().admits(&cheat.address()));

    let mut verdicts = Vec::new();
    // The platform signs its own announcements, so every crafted SRA goes
    // to a replica of the protocol core the platform runs.
    for how in TAMPERS {
        let owned = detector("sra", how);
        let provider = if matches!(how, IsolatedSigner) {
            &cheat
        } else {
            &owned
        };
        let sra = Sra::create(
            provider,
            "fw",
            &format!("{how:?}"),
            [7; 32],
            "sim://fw",
            INSURANCE,
            INCENTIVE_PER_VULN,
        );
        let make = |nonce| {
            tampered_record(
                RecordKind::Sra,
                &sra.encode(),
                sra.id(),
                provider,
                how,
                nonce,
            )
        };
        let admitted = bare().admit(make(10)).map(|_| ());
        verdicts.push(format!(
            "sra {how:?}: {}",
            judged(admitted, &mut node, &library, make)
        ));
    }
    for how in TAMPERS {
        let owned = detector("initial", how);
        let signer = if matches!(how, IsolatedSigner) {
            &cheat
        } else {
            &owned
        };
        let (initial, _) =
            create_report_pair(signer, sra_id, Findings::new(vec![VulnId(1)], "again"));
        let make = |nonce| {
            tampered_record(
                RecordKind::InitialReport,
                &initial.encode(),
                initial.id(),
                signer,
                how,
                nonce,
            )
        };
        let admitted = match how {
            RecordSignatureForged => bare().admit(make(10)).map(|_| ()),
            _ => {
                let by = if matches!(how, RecordSenderIsNotInnerSigner) {
                    &other
                } else {
                    signer
                };
                let report = InitialReport::decode(make(10).payload()).unwrap();
                platform.submit_initial(by, report).map(|_| ())
            }
        };
        verdicts.push(format!(
            "initial {how:?}: {}",
            judged(admitted, &mut node, &library, make)
        ));
    }
    let isolated = (IsolatedSigner, cheat, cheat_detailed);
    for (how, signer, report) in detailed.iter().chain([&isolated]) {
        let make = |nonce| {
            tampered_record(
                RecordKind::DetailedReport,
                &report.encode(),
                report.id(),
                signer,
                *how,
                nonce,
            )
        };
        let admitted = match how {
            RecordSignatureForged => bare().admit(make(10)).map(|_| ()),
            _ => {
                let by = if matches!(how, RecordSenderIsNotInnerSigner) {
                    &other
                } else {
                    signer
                };
                let report = DetailedReport::decode(make(10).payload()).unwrap();
                platform.submit_detailed(by, report).map(|_| ())
            }
        };
        verdicts.push(format!(
            "detailed {how:?}: {}",
            judged(admitted, &mut node, &library, make)
        ));
    }
    // A transfer carries no payload signature: its record signature is all
    // the gate checks, and nothing behind the gate checks it again. Neither
    // tamper used here touches the opaque payload.
    let bad_sigs = || {
        smartcrowd_telemetry::global()
            .counter("core.node.records_bad_sig", &[])
            .get()
    };
    for how in [Tamper::Honest, RecordSignatureForged] {
        let payer = detector("transfer", how);
        let make =
            |nonce| tampered_record(RecordKind::Transfer, &[0; 65], &[0; 32], &payer, how, nonce);
        let mut gate = bare();
        let admitted = gate.admit(make(10)).map(|_| ());
        assert_eq!(gate.mempool_len(), usize::from(admitted.is_ok()));
        if matches!(how, RecordSignatureForged) {
            // The counter is process-global: look for one quiet refusal.
            let counted = (0..64).any(|attempt| {
                let before = bad_sigs();
                assert!(!node_admits(&mut node, Message::Record(make(20 + attempt))));
                bad_sigs() - before == 1
            });
            assert!(counted, "the node counted no refused record signature");
        }
        verdicts.push(format!(
            "transfer {how:?}: {}",
            judged(admitted, &mut node, &library, make)
        ));
    }
    // What the same cases give when every payload signature has its own
    // recovery.
    let before = [
        "sra Honest: ok | pooled true | block ok | node block true",
        "sra InnerByAnotherKey: SRA signature does not recover to the claimed provider | pooled false | block SRA signature does not recover to the claimed provider | node block false",
        "sra InnerRecoveryIdFlipped: SRA signature does not recover to the claimed provider | pooled false | block SRA signature does not recover to the claimed provider | node block false",
        "sra InnerOverAnotherId: SRA signature does not recover to the claimed provider | pooled false | block SRA signature does not recover to the claimed provider | node block false",
        "sra RecordSignatureForged: chain error: record rejected: signature recovers to 0xfef4bc448f56a0056f7fe986592bf45b053793dd but record claims sender 0xe3538f7fdbd446af44757d863f587d420483770c | pooled false | block chain error: record rejected: signature recovers to 0x14dc45aae1fe9befc4e4c5bf638125445f6b4deb but record claims sender 0xe3538f7fdbd446af44757d863f587d420483770c | node block false",
        "sra RecordSenderIsNotInnerSigner: ok | pooled true | block ok | node block true",
        "sra IsolatedSigner: ok | pooled true | block ok | node block true",
        "initial Honest: ok | pooled true | block ok | node block true",
        "initial InnerByAnotherKey: initial report signature invalid | pooled false | block initial report signature invalid | node block false",
        "initial InnerRecoveryIdFlipped: initial report signature invalid | pooled false | block initial report signature invalid | node block false",
        "initial InnerOverAnotherId: initial report signature invalid | pooled false | block initial report signature invalid | node block false",
        "initial RecordSignatureForged: chain error: record rejected: signature recovers to 0xf500541fb52fc9a5b45b7bb2c7ad20ba048814c7 but record claims sender 0xaf0f59c48f654ce7bf1ca38931c446b8d3f45f20 | pooled false | block chain error: record rejected: signature recovers to 0xa9a81448fe1f2754bfab1c47e780f132eb922898 but record claims sender 0xaf0f59c48f654ce7bf1ca38931c446b8d3f45f20 | node block false",
        "initial RecordSenderIsNotInnerSigner: ok | pooled true | block ok | node block true",
        "initial IsolatedSigner: detector is isolated by the scoreboard | pooled false | block ok | node block true",
        "detailed Honest: ok | pooled true | block ok | node block true",
        "detailed InnerByAnotherKey: detailed report signature invalid | pooled false | block ok | node block false",
        "detailed InnerRecoveryIdFlipped: detailed report signature invalid | pooled false | block ok | node block false",
        "detailed InnerOverAnotherId: detailed report signature invalid | pooled false | block ok | node block false",
        "detailed RecordSignatureForged: chain error: record rejected: signature recovers to 0x5db544c246bd4d588bf6e357caecaadf00a2c326 but record claims sender 0xe6bf66553c2b11faea4c72964e397ced5bec6f55 | pooled false | block chain error: record rejected: signature recovers to 0xe9c1334457823b17333cdeb2500a030b7d11ff08 but record claims sender 0xe6bf66553c2b11faea4c72964e397ced5bec6f55 | node block false",
        "detailed RecordSenderIsNotInnerSigner: ok | pooled true | block ok | node block true",
        "detailed IsolatedSigner: AutoVerif returned FALSE for claims [40] | pooled false | block ok | node block false",
        "transfer Honest: ok | pooled true | block ok | node block true",
        "transfer RecordSignatureForged: chain error: record rejected: signature recovers to 0x8706ce53ed604194af9bb5ea1d522b49597648ec but record claims sender 0xcae88de7b53e5a34b88d91fbe2900ba7b4fd4cb6 | pooled false | block chain error: record rejected: signature recovers to 0x0ee9ac6e646b07592dcafcfef630493d89bdba7b but record claims sender 0xcae88de7b53e5a34b88d91fbe2900ba7b4fd4cb6 | node block false",
    ];
    assert_eq!(verdicts, before);
}
