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
//! shifts a single message shows up here.

use smartcrowd_chain::Ether;
use smartcrowd_chaos::plan::{ByzantineBehavior, FaultEvent, FaultKind, FaultPlan};
use smartcrowd_chaos::sim::{run_plan_durable, ChaosOutcome};
use smartcrowd_net::LinkConfig;
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
    let on_disk = run_plan_durable(plan, seed, None, &root).unwrap();
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
        (20, 18, 1000, 25, 0, 0),
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
        (26, 22, 2000, 75, 0, 137),
    );
    assert!(outcome.best_height >= 15);
}
