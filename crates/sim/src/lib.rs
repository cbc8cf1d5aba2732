//! # SmartCrowd end-to-end simulator
//!
//! Drives a full [`smartcrowd_core::platform::Platform`] over simulated
//! time: providers release systems under a vulnerability-proportion
//! policy, a detector fleet scans each release and walks the two-phase
//! submission protocol, blocks are mined by the hash-power-weighted race,
//! and the escrow contracts fire payouts at finality. Per-entity time
//! series come back as a [`ledger::RunLedger`] — the raw material for
//! every figure in the paper's §VII.
//!
//! # Example
//!
//! ```
//! use smartcrowd_sim::config::SimConfig;
//! use smartcrowd_sim::run::simulate;
//!
//! let mut cfg = SimConfig::paper();
//! cfg.duration_secs = 200.0; // keep the doctest quick
//! let ledger = simulate(&cfg);
//! assert!(ledger.blocks_mined > 0);
//! ```
//!
//! A run also populates the process-global telemetry registry through the
//! layers it drives (`chain.*`, `vm.*`, `core.*`); snapshot it with
//! `smartcrowd_telemetry::global().snapshot()` after `simulate` returns —
//! under the default simulated clock the snapshot is seed-deterministic
//! (see `OBSERVABILITY.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod fleet;
pub mod ledger;
pub mod run;
pub mod sweep;

pub use config::SimConfig;
pub use error::SimError;
pub use ledger::RunLedger;
pub use run::simulate;
