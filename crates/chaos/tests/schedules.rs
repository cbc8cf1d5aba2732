//! Seed-band sweeps: 56 randomized fault schedules, all oracles green.
//!
//! Each test runs a band of eight seeds through [`run_plan`]; together
//! the bands cover 56 `(plan, seed)` pairs mixing Byzantine behaviours,
//! crash-restarts and partition/heal cycles over lossy, duplicating,
//! reordering links. Every run checks agreement, finality, conservation
//! and convergence after every round — a failure prints the offending
//! seed so `chaos_explore` can shrink it.

use smartcrowd_chaos::plan::FaultPlan;
use smartcrowd_chaos::sim::run_plan;

fn run_band(start: u64, count: u64) {
    for seed in start..start + count {
        let plan = FaultPlan::random(seed);
        let outcome = run_plan(&plan, seed, None)
            .unwrap_or_else(|failure| panic!("seed {seed} failed: {failure}\nplan:\n{plan}"));
        assert!(
            outcome.best_height > 0,
            "seed {seed}: chain made no progress"
        );
    }
}

#[test]
fn seed_band_00_07_passes_all_oracles() {
    run_band(0, 8);
}

#[test]
fn seed_band_08_15_passes_all_oracles() {
    run_band(8, 8);
}

#[test]
fn seed_band_16_23_passes_all_oracles() {
    run_band(16, 8);
}

#[test]
fn seed_band_24_31_passes_all_oracles() {
    run_band(24, 8);
}

#[test]
fn seed_band_32_39_passes_all_oracles() {
    run_band(32, 8);
}

#[test]
fn seed_band_40_47_passes_all_oracles() {
    run_band(40, 8);
}

#[test]
fn seed_band_48_55_passes_all_oracles() {
    run_band(48, 8);
}

/// The 56-seed corpus genuinely exercises every fault class — if plan
/// generation drifts, this fails before the sweeps go vacuous.
#[test]
fn the_corpus_covers_every_fault_class() {
    let (mut partition, mut crash, mut byzantine) = (false, false, false);
    for seed in 0..56 {
        let (p, c, b) = FaultPlan::random(seed).fault_classes();
        partition |= p;
        crash |= c;
        byzantine |= b;
    }
    assert!(
        partition && crash && byzantine,
        "corpus coverage: partition={partition} crash={crash} byzantine={byzantine}"
    );
}
