//! Coverage-guided differential fuzzer for the SCVM.
//!
//! The static analyzer (`smartcrowd_vm::analysis`) makes claims about
//! bytecode — gas bounds, provable traps, acceptance — and the
//! interpreter provides the ground truth. This crate closes the loop:
//! a seeded, deterministic, coverage-guided mutation fuzzer executes
//! candidate programs under the instrumented VM
//! ([`smartcrowd_vm::cov`]) and cross-checks every run against four
//! differential oracles ([`oracle::Violation`]):
//!
//! 1. **Gas bound** — the analyzer said `Bounded(g)` but the program
//!    ran out of gas under that budget (confirmed by a generous rerun).
//! 2. **Clean trap** — analysis accepted the program yet a trap class
//!    the acceptance proof rules out fired at runtime.
//! 3. **Phantom fault** — a "provable" div-by-zero or out-of-bounds
//!    verdict never manifests at the flagged pc.
//! 4. **Native divergence** — the in-repo SRA escrow / report registry
//!    bytecode disagrees with straight-line Rust models under a random
//!    operation sequence ([`native::differential`]).
//!
//! Counterexamples are minimized with the chaos harness's generic
//! greedy-fixpoint shrinker ([`smartcrowd_chaos::greedy_fixpoint`])
//! into ready-to-commit regression tests.
//!
//! Everything is a pure function of the [`FuzzConfig`] (seed, executions,
//! differential length, planted bug): runs are byte-identical across
//! repetitions and thread counts (candidates are generated sequentially,
//! executed in parallel batches with per-candidate RNGs, and merged in
//! candidate order). Batch size, step limit, size clamps, shrink budget
//! and report cap are constants of their modules.

pub mod fuzzer;
pub mod input;
pub mod mutate;
pub mod native;
pub mod oracle;

pub use fuzzer::{FuzzConfig, FuzzReport, Fuzzer, MinimizedCase};
pub use input::FuzzInput;
pub use oracle::{CaseOutcome, PlantedBug, Violation};
