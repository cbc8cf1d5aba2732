//! Planted-bug validation: the oracles must *detect* a real protocol
//! violation, and the shrinker must reduce the failing schedule to a
//! minimal reproducer.
//!
//! The planted bug ([`PlantedBug::AcceptEquivocation`]) disables the
//! reconciliation machinery (orphan re-gossip, `BlockRequest` gap
//! repair, heal-time anti-entropy), modelling an implementation that
//! accepts equivocating forks and never resolves them. Over a lossless
//! link the *only* way such a run can fail is the equivocation itself —
//! so shrinking must strip every noise fault and keep exactly the
//! `Equivocate` event.

use smartcrowd_chaos::explore::{explore, shrink, ExploreConfig};
use smartcrowd_chaos::plan::{ByzantineBehavior, FaultEvent, FaultKind, FaultPlan};
use smartcrowd_chaos::sim::{run_plan, ChaosFailure, PlantedBug};
use smartcrowd_net::LinkConfig;

/// An equivocation schedule padded with noise faults, over a lossless
/// link so no failure can be blamed on message loss. The noise faults
/// are flooding behaviours: they are survivable even with the
/// reconciliation machinery disabled (records and already-known blocks
/// never orphan), so the *only* event that can make the buggy run fail
/// is the equivocation — the shrinker has a unique minimum to find.
/// (Crashes and partitions would be independent failure modes under the
/// bug: a node that missed blocks can never catch up without gap
/// repair.)
fn noisy_equivocation_plan() -> FaultPlan {
    FaultPlan {
        nodes: 5,
        rounds: 24,
        link: LinkConfig::default(),
        events: vec![
            FaultEvent {
                round: 1,
                kind: FaultKind::Byzantine {
                    node: 4,
                    behavior: ByzantineBehavior::GarbageFlood { per_round: 2 },
                },
            },
            FaultEvent {
                round: 2,
                kind: FaultKind::Byzantine {
                    node: 1,
                    behavior: ByzantineBehavior::Equivocate,
                },
            },
            FaultEvent {
                round: 3,
                kind: FaultKind::Byzantine {
                    node: 3,
                    behavior: ByzantineBehavior::StaleFlood { per_round: 2 },
                },
            },
        ],
    }
}

const SEED: u64 = 9;

#[test]
fn the_healthy_protocol_survives_the_equivocation_schedule() {
    let plan = noisy_equivocation_plan();
    let outcome = run_plan(&plan, SEED, None).expect("reconciliation resolves the split-brain");
    assert!(outcome.best_height > 0);
}

#[test]
fn the_planted_bug_is_detected_and_shrinks_to_the_equivocation_alone() {
    let plan = noisy_equivocation_plan();
    let bug = Some(PlantedBug::AcceptEquivocation);

    // Detection: the same schedule now violates an invariant.
    let failure = run_plan(&plan, SEED, bug).expect_err("split-brain must trip an oracle");
    assert!(matches!(failure, ChaosFailure::Oracle(_)), "{failure}");

    // Shrinking: every noise fault is stripped; the equivocation stays.
    let minimized = shrink(plan.clone(), SEED, failure, bug, 300);
    assert!(
        minimized.plan.events.len() < plan.events.len(),
        "shrinker removed no events:\n{}",
        minimized.plan
    );
    assert_eq!(
        minimized.plan.events.len(),
        1,
        "minimal reproducer keeps exactly the equivocation:\n{}",
        minimized.plan
    );
    assert!(
        matches!(
            minimized.plan.events[0].kind,
            FaultKind::Byzantine {
                behavior: ByzantineBehavior::Equivocate,
                ..
            }
        ),
        "surviving event is the equivocation:\n{}",
        minimized.plan
    );
    assert!(minimized.plan.rounds <= plan.rounds);
    assert!(minimized.plan.nodes <= plan.nodes);

    // The minimized pair is a guaranteed reproducer, not a probabilistic
    // one: re-running it fails again.
    run_plan(&minimized.plan, SEED, bug).expect_err("minimized plan reproduces the failure");

    // And it renders as a ready-to-commit regression test.
    let rendered = minimized.to_string();
    assert!(rendered.contains("#[test]"), "{rendered}");
    assert!(rendered.contains(&format!("chaos_regression_seed_{SEED}")));
    assert!(rendered.contains("Equivocate"), "{rendered}");
}

#[test]
fn the_explorer_finds_the_planted_bug_in_a_random_sweep() {
    let cfg = ExploreConfig {
        start_seed: 0,
        seeds: 4,
        shrink_budget: 40,
    };
    let report = explore(&cfg, Some(PlantedBug::AcceptEquivocation));
    assert!(
        !report.failures.is_empty(),
        "a 4-seed sweep with reconciliation disabled must fail somewhere"
    );
    for m in &report.failures {
        // Each minimized failure still reproduces under its seed.
        run_plan(&m.plan, m.seed, Some(PlantedBug::AcceptEquivocation))
            .expect_err("minimized failures reproduce");
    }
}

#[test]
fn the_same_sweep_is_clean_without_the_planted_bug() {
    let cfg = ExploreConfig {
        start_seed: 0,
        seeds: 4,
        shrink_budget: 40,
    };
    let report = explore(&cfg, None);
    assert_eq!(report.passed, 4, "failures: {:?}", report.failures);
}
