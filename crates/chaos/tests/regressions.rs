//! The committed regression corpus: hand-written fault schedules that
//! exercise each fault class (and their combinations) deterministically.
//!
//! This is the file minimized failures from `chaos_explore` land in —
//! each test is a `(plan, seed)` pair in exactly the shape the shrinker
//! prints. CI runs the corpus on every push.
//!
//! Every plan is also a golden: its full [`ChaosOutcome`] on the
//! in-memory backend and on durable stores is pinned to the value
//! recorded before `Platform` and `ProviderNode` were collapsed onto one
//! protocol core, so a refactor of the node path or the fleet driver that
//! shifts a single message shows up here. The durable goldens of the two
//! plans that crash a node moved once since, when the store dropped its
//! write-ahead log: the commit a crash tears is now truncated away on
//! restart instead of replayed, so that one extra block (and its
//! re-gossip) is gone.
//!
//! The last test pins the settlement rule itself on both drivers: the
//! cases where the arithmetic replay this harness used to carry disagreed
//! with the escrow contract.

use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{Block, ChainBackend, ChainStore, Ether, CONFIRMATION_DEPTH};
use smartcrowd_chaos::plan::{ByzantineBehavior, FaultEvent, FaultKind, FaultPlan};
use smartcrowd_chaos::settle::audit;
use smartcrowd_chaos::sim::{ChaosOutcome, ChaosSim};
use smartcrowd_core::economics::{DETECTION_WINDOW, PROVIDER_FUNDING};
use smartcrowd_core::platform::{Platform, PlatformConfig};
use smartcrowd_core::report::{create_report_pair, DetailedReport, Findings};
use smartcrowd_core::settlement::Settlement;
use smartcrowd_core::sra::SraId;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::{LinkConfig, Message};
use smartcrowd_sim::fleet::Fleet;
use std::convert::Infallible;
use std::path::PathBuf;

/// `(rounds, best_height, deposits ETH, payouts ETH, pending_reports, duplicated)`.
type Golden = (usize, u64, u64, u64, usize, u64);

fn golden(
    (rounds, best_height, deposits, payouts, pending_reports, duplicated): Golden,
) -> ChaosOutcome {
    ChaosOutcome {
        rounds,
        best_height,
        deposits: Ether::from_ether(deposits),
        payouts: Ether::from_ether(payouts),
        pending_reports,
        duplicated,
    }
}

/// Runs the plan on both backends, checks each outcome against its
/// golden, and hands back the in-memory outcome.
fn run_plan(plan: &FaultPlan, seed: u64, memory: Golden, durable: Golden) -> ChaosOutcome {
    let outcome = smartcrowd_chaos::sim::run_plan(plan, seed, None).unwrap();
    assert_eq!(outcome, golden(memory), "in-memory outcome drifted");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("chaos-golden-{seed}"));
    let _ = std::fs::remove_dir_all(&root);
    let mut on_disk = ChaosSim::new_durable(plan, seed, None, &root).unwrap();
    let on_disk = on_disk.run().unwrap();
    assert_eq!(on_disk, golden(durable), "durable outcome drifted");
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

fn quiet(nodes: usize, rounds: usize) -> FaultPlan {
    FaultPlan {
        nodes,
        rounds,
        link: LinkConfig::default(),
        events: vec![],
    }
}

#[test]
fn partition_and_heal_below_finality() {
    let mut plan = quiet(5, 20);
    plan.events = vec![
        FaultEvent {
            round: 3,
            kind: FaultKind::Partition {
                minority: vec![3, 4],
            },
        },
        FaultEvent {
            round: 7,
            kind: FaultKind::Heal,
        },
    ];
    let outcome = run_plan(
        &plan,
        101,
        (20, 19, 2000, 75, 0, 0),
        (20, 19, 2000, 75, 0, 0),
    );
    assert!(outcome.best_height >= 12);
    // Round-0 workload confirms despite the cut: 1000 ETH insured, one
    // finding paid at 25 ETH/vuln, plus the mid-run release.
    assert_eq!(outcome.deposits, Ether::from_ether(2000));
    assert_eq!(outcome.payouts, Ether::from_ether(75));
}

#[test]
fn crash_restart_recovers_from_disk() {
    let mut plan = quiet(4, 20);
    plan.events = vec![
        FaultEvent {
            round: 4,
            kind: FaultKind::Crash { node: 1 },
        },
        FaultEvent {
            round: 6,
            kind: FaultKind::Restart { node: 1 },
        },
        FaultEvent {
            round: 9,
            kind: FaultKind::Crash { node: 0 },
        },
        FaultEvent {
            round: 11,
            kind: FaultKind::Restart { node: 0 },
        },
    ];
    let outcome = run_plan(
        &plan,
        102,
        (20, 16, 1000, 25, 0, 0),
        (20, 17, 1000, 25, 0, 0),
    );
    assert!(outcome.best_height >= 12);
}

#[test]
fn equivocation_is_resolved_by_reconciliation() {
    let mut plan = quiet(5, 22);
    plan.events = vec![FaultEvent {
        round: 2,
        kind: FaultKind::Byzantine {
            node: 2,
            behavior: ByzantineBehavior::Equivocate,
        },
    }];
    run_plan(
        &plan,
        103,
        (22, 22, 2000, 75, 0, 0),
        (22, 22, 2000, 75, 0, 0),
    );
}

#[test]
fn withheld_fork_release_stays_below_finality() {
    let mut plan = quiet(5, 22);
    plan.events = vec![FaultEvent {
        round: 2,
        kind: FaultKind::Byzantine {
            node: 0,
            behavior: ByzantineBehavior::Withhold { rounds: 3 },
        },
    }];
    run_plan(
        &plan,
        104,
        (22, 18, 2000, 75, 0, 0),
        (22, 18, 2000, 75, 0, 0),
    );
}

#[test]
fn flooding_does_not_bend_any_invariant() {
    let mut plan = quiet(5, 18);
    plan.events = vec![
        FaultEvent {
            round: 1,
            kind: FaultKind::Byzantine {
                node: 3,
                behavior: ByzantineBehavior::GarbageFlood { per_round: 4 },
            },
        },
        FaultEvent {
            round: 2,
            kind: FaultKind::Byzantine {
                node: 4,
                behavior: ByzantineBehavior::StaleFlood { per_round: 4 },
            },
        },
    ];
    let outcome = run_plan(
        &plan,
        105,
        (18, 18, 2000, 75, 0, 0),
        (18, 18, 2000, 75, 0, 0),
    );
    // Garbage records never reach a canonical chain, so the workload
    // settles exactly as in a quiet run.
    assert_eq!(outcome.payouts, Ether::from_ether(75));
}

#[test]
fn lossy_duplicating_reordering_links_converge() {
    let mut plan = quiet(4, 20);
    plan.link = LinkConfig {
        base_latency: 0.05,
        jitter: 0.05,
        drop_rate: 0.10,
        duplicate_rate: 0.20,
        reorder_rate: 0.20,
    };
    let outcome = run_plan(
        &plan,
        106,
        (20, 20, 2000, 75, 0, 52),
        (20, 20, 2000, 75, 0, 52),
    );
    assert!(outcome.duplicated > 0, "duplication was exercised");
}

#[test]
fn kitchen_sink_every_fault_class_in_one_run() {
    let mut plan = quiet(6, 26);
    plan.link = LinkConfig {
        base_latency: 0.05,
        jitter: 0.05,
        drop_rate: 0.05,
        duplicate_rate: 0.10,
        reorder_rate: 0.10,
    };
    plan.events = vec![
        FaultEvent {
            round: 1,
            kind: FaultKind::Byzantine {
                node: 5,
                behavior: ByzantineBehavior::StaleFlood { per_round: 2 },
            },
        },
        FaultEvent {
            round: 2,
            kind: FaultKind::Partition { minority: vec![4] },
        },
        FaultEvent {
            round: 5,
            kind: FaultKind::Heal,
        },
        FaultEvent {
            round: 6,
            kind: FaultKind::Crash { node: 2 },
        },
        FaultEvent {
            round: 8,
            kind: FaultKind::Restart { node: 2 },
        },
        FaultEvent {
            round: 10,
            kind: FaultKind::Byzantine {
                node: 1,
                behavior: ByzantineBehavior::Withhold { rounds: 2 },
            },
        },
    ];
    let outcome = run_plan(
        &plan,
        107,
        (26, 22, 2000, 75, 0, 131),
        (26, 22, 2000, 75, 0, 134),
    );
    assert!(outcome.best_height >= 15);
}

/// One release and the findings two detectors claim on it.
struct Drift {
    insurance: Ether,
    mu: Ether,
    claims: [Vec<VulnId>; 2],
}

impl Drift {
    fn system(&self, library: &VulnLibrary) -> IoTSystem {
        let planted: Vec<VulnId> = (1..=3).map(VulnId).collect();
        IoTSystem::build("fw", "1", library, planted, &mut SimRng::seed_from_u64(5)).unwrap()
    }

    fn detectors() -> [KeyPair; 2] {
        [b"drift-a", b"drift-b"].map(|seed| KeyPair::from_seed(seed))
    }

    /// Phases #1-#4 on a `Platform`, mined to finality.
    fn on_platform(&self) -> Platform {
        let mut p = Platform::new(PlatformConfig::paper());
        let system = self.system(p.library());
        let sra_id = p
            .release_system(0, system, self.insurance, self.mu)
            .unwrap();
        let mut reveals = Vec::new();
        for (kp, claim) in Self::detectors().into_iter().zip(&self.claims) {
            let (initial, detailed) =
                create_report_pair(&kp, sra_id, Findings::new(claim.clone(), "x"));
            p.submit_initial(&kp, initial).unwrap();
            reveals.push((kp, detailed));
        }
        p.mine_blocks(8);
        for (kp, detailed) in reveals {
            p.submit_detailed(&kp, detailed).unwrap();
        }
        p.mine_blocks(8);
        p
    }

    /// The same release, from node `releaser`, and reports gossiped
    /// through an `n`-node fleet, mined for `rounds` rounds; `after_round`
    /// sees the fleet after each.
    fn on_fleet_of(
        &self,
        n: usize,
        releaser: usize,
        rounds: usize,
        mut after_round: impl FnMut(&Fleet, SraId),
    ) -> Fleet {
        let mut fleet = Fleet::boot(n, 11, LinkConfig::default(), "drift-node", |_| true, memory)
            .unwrap_or_else(|e| match e {});
        let system = self.system(fleet.library());
        let sra_id = fleet
            .release(releaser, system, self.insurance, self.mu)
            .unwrap();
        for (kp, claim) in Self::detectors().iter().zip(&self.claims) {
            let (initial, detailed) =
                create_report_pair(kp, sra_id, Findings::new(claim.clone(), "x"));
            let phases = [
                (RecordKind::InitialReport, initial.encode()),
                (RecordKind::DetailedReport, detailed.encode()),
            ];
            for (nonce, (kind, payload)) in phases.into_iter().enumerate() {
                let fee = Ether::from_milliether(11);
                let record = Record::signed(kind, payload, fee, nonce as u64, kp);
                fleet.inject(1, Message::Record(record)).unwrap();
            }
        }
        for _ in 0..rounds {
            fleet.mine_round(|_| true).unwrap();
            after_round(&fleet, sra_id);
        }
        fleet
    }

    /// [`Drift::on_fleet_of`] three nodes, mined to finality.
    fn on_fleet(&self) -> Fleet {
        self.on_fleet_of(3, 0, 10, |_, _| {})
    }
}

fn memory(_: usize, genesis: &Block) -> Result<Box<dyn ChainBackend>, Infallible> {
    Ok(Box::new(ChainStore::new(genesis.clone())))
}

/// The wallet a detailed-report record pays.
fn wallet_of(record: &Record) -> Address {
    DetailedReport::decode(record.payload()).unwrap().wallet()
}

/// `(wallet, amount)` of each payout, then what the one escrow did not pay
/// out: its balance, plus its refund once the detection window closed.
fn settled(settlement: &Settlement) -> (Vec<(Address, Ether)>, Ether) {
    let payouts = settlement.payouts().iter().map(|p| (p.wallet, p.amount));
    let escrows: Vec<_> = settlement.escrows().values().collect();
    assert_eq!(escrows.len(), 1, "one release, one escrow");
    let balance = escrows[0].escrow.balance(settlement.state());
    let unpaid = balance + escrows[0].refunded.unwrap_or_default();
    (payouts.collect(), unpaid)
}

/// What every replica of the fleet settled, the conservation oracle
/// having passed on each.
fn settled_on(fleet: &Fleet) -> Vec<(Vec<(Address, Ether)>, Ether)> {
    assert_eq!(fleet.running().count(), 3);
    let replicas = fleet.running().map(|(i, node)| {
        audit(node.settlement()).unwrap_or_else(|e| panic!("node {i}: {e}"));
        settled(node.settlement())
    });
    replicas.collect()
}

#[test]
fn duplicate_findings_and_exhausted_escrows_settle_alike_on_both_drivers() {
    let eth = Ether::from_ether;
    // Two detectors confirm the same vulnerability: exactly one payout of
    // μ, to the first confirmed, on the platform and on every replica.
    let duplicate = Drift {
        insurance: eth(1000),
        mu: eth(25),
        claims: [vec![VulnId(3)], vec![VulnId(3)]],
    };
    let platform = duplicate.on_platform();
    let first = wallet_of(platform.store().records_of_kind(RecordKind::DetailedReport)[0].0);
    assert_eq!(
        settled(platform.settlement()),
        (vec![(first, eth(25))], eth(975))
    );
    let fleet = duplicate.on_fleet();
    let chain = fleet.node(0).unwrap().store();
    let first = wallet_of(&chain.records_of_kind(RecordKind::DetailedReport)[0].0);
    assert_eq!(
        settled_on(&fleet),
        vec![(vec![(first, eth(25))], eth(975)); 3]
    );

    // μ·n exceeds what the escrow still holds: that payout reverts, the
    // balance stays put, and the oracle has nothing to object to. Whichever
    // report confirms first, 60 of the 100 ETH are paid, once.
    let exhausted = Drift {
        insurance: eth(100),
        mu: eth(60),
        claims: [vec![VulnId(1)], vec![VulnId(2), VulnId(3)]],
    };
    let a = Drift::detectors()[0].address();
    let expected = (vec![(a, eth(60))], eth(40));
    assert_eq!(settled(exhausted.on_platform().settlement()), expected);
    assert_eq!(settled_on(&exhausted.on_fleet()), vec![expected; 3]);
}

#[test]
fn every_replica_refunds_the_remainder_to_the_releaser_at_one_fold_height() {
    let eth = Ether::from_ether;
    let release = Drift {
        insurance: eth(1000),
        mu: eth(25),
        claims: [vec![VulnId(1)], vec![VulnId(2)]],
    };
    let remainder = release.insurance - release.mu.scaled(2);
    let releaser = 2;
    // Per node, the cursor height at which its settlement first showed the
    // refund, and the SRA's block height.
    let mut refunded_at: Vec<Option<(u64, u64)>> = vec![None; 5];
    let fleet = release.on_fleet_of(5, releaser, 24, |fleet, sra_id| {
        for (i, node) in fleet.running() {
            let (chain, settlement) = (node.store(), node.settlement());
            let Some(entry) = settlement.escrows().get(&sra_id) else {
                continue;
            };
            let sras = chain.records_of_kind(RecordKind::Sra);
            let sra_height = chain.best_height() + 1 - sras[0].1;
            // The fold closes the window once the SRA's block has
            // DETECTION_WINDOW confirmations, not a block earlier.
            let due = sra_height + DETECTION_WINDOW - CONFIRMATION_DEPTH - 1;
            let closed = settlement.cursor().0 >= due;
            assert_eq!(entry.refunded, closed.then_some(remainder), "node {i}");
            if closed && refunded_at[i].is_none() {
                refunded_at[i] = Some((settlement.cursor().0, sra_height));
            }
        }
    });
    let first = refunded_at[0].expect("the window closed");
    assert_eq!(refunded_at, vec![Some(first); 5], "one fold height");
    assert_eq!(first.0, first.1 + DETECTION_WINDOW - CONFIRMATION_DEPTH - 1);

    let releaser = fleet.keypair(releaser).address();
    let audits: Vec<_> = fleet
        .running()
        .map(|(i, node)| {
            let settlement = node.settlement();
            let audit = audit(settlement).unwrap_or_else(|e| panic!("node {i}: {e}"));
            assert_eq!(audit.refunds, remainder, "node {i}");
            // The remainder went back to the releasing node: its balance is
            // its funding and mining income, less its fees, the insurance
            // and the escrow's gas, plus the refund.
            let tally = settlement.tally(&releaser);
            let escrow = &settlement.escrows().values().next().unwrap().escrow;
            let spent = tally.fees + release.insurance + escrow.release_cost;
            assert_eq!(
                settlement.state().balance(&releaser),
                PROVIDER_FUNDING + tally.income - spent + remainder,
                "node {i}"
            );
            audit
        })
        .collect();
    assert_eq!(audits.len(), 5);
    assert!(audits.iter().all(|a| *a == audits[0]), "replicas differ");
}
