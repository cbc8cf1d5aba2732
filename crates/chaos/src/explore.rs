//! The schedule explorer: seed sweeps and failing-plan shrinking.
//!
//! [`explore`] runs N seeds of randomized fault plans through
//! [`run_plan`]. Every failure is handed to [`shrink`], which greedily
//! minimizes the reproducing `(seed, plan)` pair along three axes, in
//! order:
//!
//! 1. **fewer faults** — drop each event and keep the removal if the
//!    run still fails;
//! 2. **shorter horizon** — halve (then decrement) the round count;
//! 3. **fewer nodes** — shave nodes off the fleet.
//!
//! Because a run is a pure function of `(plan, seed)`, a shrunk plan
//! that still fails is a *guaranteed* reproducer, not a probabilistic
//! one. The result renders as a ready-to-commit regression test via
//! [`MinimizedFailure`]'s `Display`.

use crate::plan::{FaultPlan, RECOVERY_TAIL};
use crate::sim::{run_plan, ChaosFailure, ChaosSim, PlantedBug};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounds for an exploration sweep. Plans come from
/// [`FaultPlan::random`], whose bounds are constants.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// First seed in the sweep (`chaos_explore --start`; the nightly job
    /// rotates it by day).
    pub start_seed: u64,
    /// Number of seeds to run (`chaos_explore --seeds`).
    pub seeds: u64,
    /// Maximum candidate runs the shrinker may spend per failure. Only the
    /// two planted-bug tests set it, capping it at 40 to keep tier-1
    /// fast; every sweep uses the default.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            start_seed: 0,
            seeds: 50,
            shrink_budget: 200,
        }
    }
}

/// A failing schedule, shrunk to a minimal reproducing `(seed, plan)`.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// The reproducing seed.
    pub seed: u64,
    /// The minimized plan.
    pub plan: FaultPlan,
    /// The failure the minimized plan still provokes.
    pub failure: ChaosFailure,
    /// Candidate runs the shrinker spent.
    pub shrink_runs: usize,
    /// Whether the run was executed with a planted bug.
    pub planted: bool,
}

impl fmt::Display for MinimizedFailure {
    /// Renders a ready-to-commit regression test.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bug = if self.planted {
            "Some(PlantedBug::AcceptEquivocation)"
        } else {
            "None"
        };
        writeln!(
            f,
            "/// Minimized failing schedule (shrunk in {} runs).",
            self.shrink_runs
        )?;
        writeln!(f, "/// Failure: {}", self.failure)?;
        writeln!(f, "#[test]")?;
        writeln!(f, "fn chaos_regression_seed_{}() {{", self.seed)?;
        let plan = self.plan.to_string();
        let mut lines = plan.lines();
        if let Some(first) = lines.next() {
            writeln!(f, "    let plan = {first}")?;
        }
        for line in lines {
            writeln!(f, "    {line}")?;
        }
        writeln!(f, "    ;")?;
        writeln!(f, "    run_plan(&plan, {}, {bug}).unwrap();", self.seed)?;
        write!(f, "}}")
    }
}

/// The result of an exploration sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Seeds whose runs passed all oracles.
    pub passed: u64,
    /// Minimized failures (empty on a clean sweep).
    pub failures: Vec<MinimizedFailure>,
    /// Seeds whose plan passed in memory and failed on durable stores,
    /// with that failure.
    pub durable_only: Vec<(u64, ChaosFailure)>,
}

/// Runs `cfg.seeds` randomized schedules; every failure is shrunk, and
/// every pass runs again with each node on a durable store
/// ([`ChaosSim::new_durable`]), where crash faults tear the real on-disk
/// format.
///
/// Seeds are independent (a run is a pure function of `(plan, seed)`),
/// so the sweep fans out on the global worker pool. Results are merged
/// in ascending seed order, so the report — pass count, failure list and
/// their ordering — is byte-identical to the sequential sweep regardless
/// of thread count.
#[must_use]
pub fn explore(cfg: &ExploreConfig, bug: Option<PlantedBug>) -> ExploreReport {
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.seeds).collect();
    let outcomes = smartcrowd_pool::global().par_map(&seeds, |&seed| {
        let plan = FaultPlan::random(seed);
        match run_plan(&plan, seed, bug) {
            Ok(_) => (None, durable_failure(&plan, seed, bug)),
            Err(failure) => (
                Some(shrink(plan, seed, failure, bug, cfg.shrink_budget)),
                None,
            ),
        }
    });
    let mut report = ExploreReport::default();
    for (seed, (failure, durable)) in seeds.into_iter().zip(outcomes) {
        match failure {
            None => report.passed += 1,
            Some(minimized) => report.failures.push(minimized),
        }
        report.durable_only.extend(durable.map(|f| (seed, f)));
    }
    report
}

/// How `plan` fails on durable stores, which live in a fresh directory
/// under the system temporary directory, removed afterwards.
fn durable_failure(plan: &FaultPlan, seed: u64, bug: Option<PlantedBug>) -> Option<ChaosFailure> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("chaos-explore-{}-{run}", std::process::id()));
    let failure = ChaosSim::new_durable(plan, seed, bug, &root).and_then(|mut sim| sim.run());
    let _ = std::fs::remove_dir_all(&root);
    failure.err()
}

/// Greedily shrinks a failing plan: fewer faults, then a shorter
/// horizon, then fewer nodes — repeating until a fixpoint or until the
/// run budget is spent. The returned plan is guaranteed to still fail
/// under `seed`.
///
/// The loop itself lives in [`crate::shrink::greedy_fixpoint`]; this
/// function only supplies the three plan-shrinking axes and the
/// `run_plan` judge.
#[must_use]
pub fn shrink(
    plan: FaultPlan,
    seed: u64,
    failure: ChaosFailure,
    bug: Option<PlantedBug>,
    budget: usize,
) -> MinimizedFailure {
    // Axis 1: fewer faults — drop each event in turn.
    let drop_event = |p: &FaultPlan| (0..p.events.len()).map(|i| p.without_event(i)).collect();
    // Axis 2: shorter horizon (halve while far out, then decrement).
    // `with_rounds` clamps up to cover the last event plus the recovery
    // tail, so the candidate only counts when it actually got shorter.
    let shorter_horizon = |p: &FaultPlan| {
        let target = if p.rounds > 2 * RECOVERY_TAIL {
            p.rounds / 2
        } else {
            p.rounds.saturating_sub(1)
        };
        let candidate = p.with_rounds(target);
        if candidate.rounds < p.rounds {
            vec![candidate]
        } else {
            Vec::new()
        }
    };
    // Axis 3: fewer nodes.
    let fewer_nodes = |p: &FaultPlan| {
        if p.nodes > 2 {
            vec![p.with_nodes(p.nodes - 1)]
        } else {
            Vec::new()
        }
    };
    let out = crate::shrink::greedy_fixpoint(
        plan,
        failure,
        budget,
        &[&drop_event, &shorter_horizon, &fewer_nodes],
        &mut |candidate: &FaultPlan| run_plan(candidate, seed, bug).err(),
    );
    MinimizedFailure {
        seed,
        plan: out.best,
        failure: out.info,
        shrink_runs: out.runs,
        planted: bug.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_clean_sweep_passes() {
        let cfg = ExploreConfig {
            seeds: 3,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg, None);
        assert_eq!(report.passed, 3, "failures: {:?}", report.failures);
        assert!(report.failures.is_empty());
        assert!(report.durable_only.is_empty(), "{:?}", report.durable_only);
    }

    #[test]
    fn minimized_failure_renders_a_regression_test() {
        let plan = FaultPlan::random(0);
        let failure = ChaosFailure::PumpDiverged {
            seed: 0,
            round: 1,
            iterations: 10_000,
            pending: 3,
        };
        let m = MinimizedFailure {
            seed: 0,
            plan,
            failure,
            shrink_runs: 12,
            planted: false,
        };
        let rendered = m.to_string();
        assert!(rendered.contains("#[test]"));
        assert!(rendered.contains("fn chaos_regression_seed_0()"));
        assert!(rendered.contains("run_plan(&plan, 0, None).unwrap();"));
    }
}
