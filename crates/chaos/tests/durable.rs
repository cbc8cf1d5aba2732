//! Durable-backend crash-restart regression: the chaos harness's crash
//! fault pointed at the real on-disk format.
//!
//! In durable mode a crash is not a polite snapshot — the store's next
//! commit is torn mid-append before its fsync, leaving a partial frame
//! in the block log, exactly the state a power loss leaves. The restart
//! reopens the directory and the recovery path must truncate the tear
//! (the torn commit never returned, so it is lost) before the node
//! rejoins and catches up from its peers; the agreement/finality/
//! conservation oracles then run against the recovered state. The plan
//! below is the shrunk shape of the in-memory
//! `crash_restart_recovers_from_disk` regression.

use smartcrowd_chain::{Ether, StoreConfig};
use smartcrowd_chaos::plan::{FaultEvent, FaultKind, FaultPlan};
use smartcrowd_chaos::settle::audit;
use smartcrowd_chaos::sim::ChaosSim;
use smartcrowd_net::LinkConfig;
use smartcrowd_telemetry::counter;
use std::path::PathBuf;

#[test]
fn durable_crash_restart_recovers_from_disk() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-durable-regression");
    let _ = std::fs::remove_dir_all(&root);
    let plan = FaultPlan {
        nodes: 4,
        rounds: 18,
        link: LinkConfig::default(),
        events: vec![
            FaultEvent {
                round: 4,
                kind: FaultKind::Crash { node: 2 },
            },
            FaultEvent {
                round: 7,
                kind: FaultKind::Restart { node: 2 },
            },
        ],
    };
    let torn_before = counter!("chain.storage.torn_truncations").get();
    let mut sim = ChaosSim::new_durable(&plan, 5, None, &root).unwrap();
    let outcome = sim.run().unwrap();
    assert!(
        outcome.best_height >= 12,
        "fleet stalled after durable recovery: height {}",
        outcome.best_height
    );
    // The injected tear left a partial log append; recovery must have
    // truncated it (not silently accepted the damaged tail), and the
    // restarted node must have caught up with the fleet.
    assert!(counter!("chain.storage.torn_truncations").get() > torn_before);
    let restarted = sim.views()[2].running.expect("node 2 was restarted").0;
    assert_eq!(restarted.best_height(), outcome.best_height);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_quiet_plan_matches_in_memory_outcome() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-durable-quiet");
    let _ = std::fs::remove_dir_all(&root);
    let plan = FaultPlan {
        nodes: 4,
        rounds: 12,
        link: LinkConfig::default(),
        events: vec![],
    };
    let mut sim = ChaosSim::new_durable(&plan, 9, None, &root).unwrap();
    let durable = sim.run().unwrap();
    let memory = smartcrowd_chaos::sim::run_plan(&plan, 9, None).unwrap();
    // Same plan, same seed: the backend must be observationally inert.
    assert_eq!(durable.best_height, memory.best_height);
    assert_eq!(durable.deposits, memory.deposits);
    assert_eq!(durable.payouts, memory.payouts);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn paged_store_fleet_matches_in_memory_outcome() {
    // The acceptance bar for the paged store: a bounded block cache
    // (capacity 2 forces cold page-ins mid-consensus) and an aggressive
    // snapshot cadence must be observationally inert — the same plan
    // under the same seed lands on the identical outcome as the
    // in-memory backend.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-durable-paged-quiet");
    let _ = std::fs::remove_dir_all(&root);
    let plan = FaultPlan {
        nodes: 4,
        rounds: 12,
        link: LinkConfig::default(),
        events: vec![],
    };
    let config = StoreConfig {
        cache_capacity: 2,
        snapshot_interval: 1,
    };
    let written_before = counter!("chain.storage.snapshot.written").get();
    let mut sim = ChaosSim::new_durable_with(&plan, 9, None, &root, config).unwrap();
    let paged = sim.run().unwrap();
    let memory = smartcrowd_chaos::sim::run_plan(&plan, 9, None).unwrap();
    assert_eq!(paged.best_height, memory.best_height);
    assert_eq!(paged.deposits, memory.deposits);
    assert_eq!(paged.payouts, memory.payouts);
    assert!(
        counter!("chain.storage.snapshot.written").get() > written_before,
        "interval-1 cadence never wrote a snapshot"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn paged_store_crash_restart_survives_torn_snapshots() {
    // Crash faults on a snapshot-enabled fleet tear `state.snap`
    // mid-rewrite on some crashes (and the log mid-append on the rest).
    // Every restart must reject the half-written snapshot, fall back to
    // full-log replay, and rejoin without violating any oracle.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-durable-paged-crash");
    let _ = std::fs::remove_dir_all(&root);
    let plan = FaultPlan {
        nodes: 4,
        rounds: 24,
        link: LinkConfig::default(),
        events: vec![
            FaultEvent {
                round: 4,
                kind: FaultKind::Crash { node: 2 },
            },
            FaultEvent {
                round: 7,
                kind: FaultKind::Restart { node: 2 },
            },
            FaultEvent {
                round: 10,
                kind: FaultKind::Crash { node: 1 },
            },
            FaultEvent {
                round: 13,
                kind: FaultKind::Restart { node: 1 },
            },
            FaultEvent {
                round: 16,
                kind: FaultKind::Crash { node: 3 },
            },
            FaultEvent {
                round: 19,
                kind: FaultKind::Restart { node: 3 },
            },
        ],
    };
    let config = StoreConfig {
        cache_capacity: 2,
        snapshot_interval: 1,
    };
    let rejected_before = counter!("chain.storage.snapshot.rejected").get();
    let mut sim = ChaosSim::new_durable_with(&plan, 5, None, &root, config).unwrap();
    let outcome = sim.run().unwrap();
    assert!(
        outcome.best_height >= 14,
        "fleet stalled after paged-store recovery: height {}",
        outcome.best_height
    );
    assert!(
        counter!("chain.storage.snapshot.rejected").get() > rejected_before,
        "no crash tore a snapshot under this seed; pick another"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restarted_node_settles_like_a_peer_that_never_crashed() {
    // Node 2 crashes after the round-0 release was settled (escrow open,
    // finding paid) and comes back three rounds later: its contract state
    // is re-derived from the recovered chain alone — an exported image in
    // memory mode, a torn store directory in durable mode, a 2-body cache
    // with a snapshot per checkpoint in paged mode — and must equal what
    // node 0, which never went down, accumulated live.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-restart-settlement");
    let _ = std::fs::remove_dir_all(&root);
    let plan = FaultPlan {
        nodes: 4,
        rounds: 26,
        link: LinkConfig::default(),
        events: vec![
            FaultEvent {
                round: 14,
                kind: FaultKind::Crash { node: 2 },
            },
            FaultEvent {
                round: 17,
                kind: FaultKind::Restart { node: 2 },
            },
        ],
    };
    let paged = StoreConfig {
        cache_capacity: 2,
        snapshot_interval: 1,
    };
    let (durable, paged_root) = (root.join("durable"), root.join("paged"));
    let sims = [
        ("memory", ChaosSim::new(&plan, 5, None)),
        (
            "durable",
            ChaosSim::new_durable(&plan, 5, None, &durable).unwrap(),
        ),
        (
            "paged",
            ChaosSim::new_durable_with(&plan, 5, None, &paged_root, paged).unwrap(),
        ),
    ];
    for (mode, mut sim) in sims {
        let outcome = sim.run().unwrap_or_else(|e| panic!("{mode}: {e}"));
        assert_eq!(outcome.payouts, Ether::from_ether(75), "{mode}");
        let views = sim.views();
        let (store, restarted) = views[2].running.expect("node 2 is back");
        let (peer_store, peer) = views[0].running.expect("node 0 never crashed");
        assert_eq!(store.best_tip(), peer_store.best_tip(), "{mode}");
        assert_eq!(restarted.cursor(), peer.cursor(), "{mode}");
        assert_eq!(audit(restarted), audit(peer), "{mode}");
        assert_eq!(
            peer.folded(),
            peer.cursor().0,
            "{mode}: live, once per block"
        );
        assert_eq!(
            restarted.folded(),
            restarted.cursor().0,
            "{mode}: re-derived after the restart, once per block too"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
