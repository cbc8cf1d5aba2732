//! Typed errors for the simulation harnesses.
//!
//! A fault schedule that drives the message pump into a feedback loop is a
//! *reportable outcome* — the chaos explorer records the offending seed and
//! shrinks it — not a reason to abort the process, so divergence surfaces
//! as [`SimError::PumpDiverged`] instead of a panic.

use std::fmt;

/// Errors produced by the distributed simulation harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The message pump failed to quiesce within its iteration budget —
    /// some schedule made the nodes re-gossip indefinitely.
    PumpDiverged {
        /// Seed of the diverging run (replays the schedule exactly).
        seed: u64,
        /// Pump iterations executed before giving up.
        iterations: usize,
        /// Deliveries still queued when the pump gave up.
        pending: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PumpDiverged {
                seed,
                iterations,
                pending,
            } => write!(
                f,
                "message pump diverged after {iterations} iterations \
                 ({pending} deliveries still pending; seed {seed})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_seed_and_counts() {
        let e = SimError::PumpDiverged {
            seed: 42,
            iterations: 10_000,
            pending: 3,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("10000") && s.contains('3'));
    }
}
