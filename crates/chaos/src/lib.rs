//! # SmartCrowd deterministic chaos harness
//!
//! Simulation testing in the turmoil/madsim style for the SmartCrowd
//! distributed stack: every run is a pure function of a `(plan, seed)`
//! pair, so any failure — however exotic the fault interleaving that
//! provoked it — replays byte-for-byte and shrinks to a minimal
//! reproducing schedule.
//!
//! Three pillars:
//!
//! - **Fault injection** ([`plan`], [`sim`]) — randomized schedules of
//!   network partitions with heals, node crash-restarts that round-trip
//!   the persistence layer, Byzantine behaviours (block withholding,
//!   equivocation, garbage and stale-message flooding), all over a lossy,
//!   duplicating, reordering gossip fabric.
//! - **Invariant oracles** ([`oracle`], [`settle`]) — agreement at
//!   confirmation depth, no rollback past finality, exact conservation of
//!   Ether across the escrow contracts every node's own SCVM deploys and
//!   drains, and eventual convergence of tips and contract state after
//!   recovery, checked after every mining round.
//! - **Schedule exploration** ([`mod@explore`]) — seed sweeps whose failures
//!   are greedily shrunk (fewer faults → shorter horizon → fewer nodes)
//!   into ready-to-commit regression tests.
//!
//! # Example
//!
//! ```
//! use smartcrowd_chaos::plan::FaultPlan;
//! use smartcrowd_chaos::sim::run_plan;
//!
//! let plan = FaultPlan::random(42);
//! let outcome = run_plan(&plan, 42, None).expect("oracles hold");
//! assert!(outcome.best_height > 0);
//! ```
//!
//! Fault injections are counted per kind (`chaos.faults.injected`) and
//! oracle sweeps are spanned (`chaos.oracle.check.*`); `chaos_explore
//! --out PATH` writes a registry snapshot next to any minimized failure
//! as `PATH.telemetry.json` (see `OBSERVABILITY.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod oracle;
pub mod plan;
pub mod settle;
pub mod shrink;
pub mod sim;

pub use explore::{explore, shrink, ExploreConfig, ExploreReport, MinimizedFailure};
pub use oracle::{NodeView, OracleKind, Oracles, Violation};
pub use plan::{ByzantineBehavior, FaultEvent, FaultKind, FaultPlan};
pub use settle::{audit, Audit, SettleError};
pub use shrink::{greedy_fixpoint, Shrunk};
pub use sim::{run_plan, ChaosFailure, ChaosOutcome, ChaosSim, PlantedBug};
