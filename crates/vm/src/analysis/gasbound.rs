//! Loop-aware worst-case gas bound over the condensation DAG.
//!
//! The SCC condensation of the reachable CFG is acyclic, so the PR 1
//! longest-path DP generalizes: a trivial component costs its block's
//! worst-case gas, a loop component costs `trips × Σ member gas` when the
//! trip-count analysis proved a bound, and any loop without a bound makes
//! the whole program [`GasVerdict::Unbounded`] with a witness block.

use crate::analysis::cfg::Cfg;
use crate::analysis::loops::{LoopAnalysis, LoopBound};
use crate::exec::MEMORY_LIMIT;
use std::collections::BTreeSet;

/// The deploy-time gas verdict for a contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasVerdict {
    /// No execution can charge more than this much gas (excluding the
    /// intrinsic deploy/call gas).
    Bounded(u64),
    /// Some loop has no provable iteration bound; only the runtime gas
    /// meter limits the cost.
    Unbounded {
        /// A block inside the offending loop.
        witness_block: usize,
    },
}

impl GasVerdict {
    /// The finite bound, if there is one.
    pub fn bound(&self) -> Option<u64> {
        match self {
            GasVerdict::Bounded(g) => Some(*g),
            GasVerdict::Unbounded { .. } => None,
        }
    }

    /// Whether the verdict is [`GasVerdict::Bounded`].
    pub fn is_bounded(&self) -> bool {
        matches!(self, GasVerdict::Bounded(_))
    }
}

impl std::fmt::Display for GasVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GasVerdict::Bounded(g) => write!(f, "bounded({g} gas)"),
            GasVerdict::Unbounded { witness_block } => {
                write!(f, "unbounded (loop at block {witness_block})")
            }
        }
    }
}

/// Computes the worst-case gas verdict from the SCC decomposition and the
/// per-loop trip bounds.
pub(crate) fn gas_verdict(
    cfg: &Cfg,
    reachable: &BTreeSet<usize>,
    loops: &LoopAnalysis,
) -> GasVerdict {
    if cfg.is_empty() || reachable.is_empty() {
        return GasVerdict::Bounded(0);
    }

    // Any unbounded loop poisons the whole program.
    for l in &loops.loops {
        if let LoopBound::Unbounded { witness_block } = l.bound {
            return GasVerdict::Unbounded { witness_block };
        }
    }

    // Cost of one component: every member block once, times the trip
    // bound for loop components (trips counts header entries and each
    // entry runs at most one full cycle, so `trips × Σ member gas` covers
    // the partial final iteration too).
    let comp_cost = |idx: usize| -> u64 {
        let members = &loops.components[idx];
        let once: u64 = members.iter().map(|&b| cfg.block_gas(b)).sum();
        let trips = loops
            .loops
            .iter()
            .find(|l| l.blocks.len() == members.len() && l.blocks.contains(&members[0]))
            .map_or(1, |l| match l.bound {
                LoopBound::Bounded { trips } => trips,
                LoopBound::Unbounded { .. } => unreachable!("filtered above"),
            });
        once.saturating_mul(trips)
    };

    // Tarjan emits components in reverse topological order: every
    // component appears before the components that can reach it, so a
    // single forward pass sees all successors already costed.
    let mut best = vec![0u64; loops.components.len()];
    for (idx, members) in loops.components.iter().enumerate() {
        let succ_best = members
            .iter()
            .flat_map(|&b| cfg.successors(b))
            .filter_map(|s| {
                let sc = *loops.component_of.get(&s)?;
                (sc != idx).then(|| best[sc])
            })
            .max()
            .unwrap_or(0);
        best[idx] = comp_cost(idx).saturating_add(succ_best);
    }

    let entry_comp = loops.component_of.get(&cfg.entry()).copied();
    let mut bound = entry_comp.map_or(0, |c| best[c]);

    // One worst-case memory expansion to the full MEMORY_LIMIT, charged
    // once if any reachable instruction can touch memory (expansion gas
    // is cumulative across a call, so a single full-size expansion is the
    // ceiling no matter how many memory ops run).
    if cfg.any_memory_op(reachable) {
        bound = bound.saturating_add(3 * (MEMORY_LIMIT as u64 / 32));
    }
    GasVerdict::Bounded(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::depth::analyze_depth;
    use crate::analysis::loops::analyze_loops;
    use crate::analysis::range::analyze_ranges;
    use crate::asm::assemble;

    fn verdict(src: &str) -> GasVerdict {
        let cfg = Cfg::build(&assemble(src).expect("assembles")).expect("builds");
        let depth = analyze_depth(&cfg).expect("depth verifies");
        let reachable: BTreeSet<usize> = depth.entry.keys().copied().collect();
        let ranges = analyze_ranges(&cfg).expect("ranges");
        let loops = analyze_loops(&cfg, &reachable, &depth.entry, &ranges);
        gas_verdict(&cfg, &reachable, &loops)
    }

    #[test]
    fn straight_line_matches_sum_of_costs() {
        // PUSH + PUSH + ADD + RETURNVAL at 3 gas each.
        assert_eq!(
            verdict("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n"),
            GasVerdict::Bounded(12)
        );
    }

    #[test]
    fn bounded_loop_charges_trips_times_cycle() {
        let once = match verdict("PUSH 10\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nSTOP\n") {
            GasVerdict::Bounded(g) => g,
            GasVerdict::Unbounded { .. } => panic!("acyclic"),
        };
        let looped =
            verdict("PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n");
        let GasVerdict::Bounded(bound) = looped else {
            panic!("bounded loop must get a finite verdict: {looped}");
        };
        assert!(
            bound > once * 5,
            "ten trips must dominate one pass: {bound} vs {once}"
        );
    }

    #[test]
    fn unbounded_loop_reports_witness() {
        let v = verdict("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n");
        assert_eq!(v, GasVerdict::Unbounded { witness_block: 0 });
        assert_eq!(v.bound(), None);
        assert!(!v.is_bounded());
    }

    #[test]
    fn memory_op_adds_expansion_ceiling() {
        let without = verdict("PUSH 0\nPOP\nSTOP\n").bound().expect("bounded");
        let with = verdict("PUSH 0\nMLOAD\nPOP\nSTOP\n")
            .bound()
            .expect("bounded");
        assert!(with >= without + 3 * (MEMORY_LIMIT as u64 / 32));
    }
}
