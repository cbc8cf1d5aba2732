//! The worklist fixpoint engine: runs any [`Domain`] over a [`Cfg`] to a
//! stable per-block entry state.
//!
//! The engine is deliberately tiny — a block worklist, a per-block visit
//! counter, and the join-or-widen decision — so every analysis (stack
//! depth, value ranges, anything future) shares one battle-tested fixpoint
//! loop instead of reimplementing it.

use crate::analysis::cfg::Cfg;
use crate::analysis::lattice::Lattice;
use crate::error::VmError;
use std::collections::BTreeMap;

/// An abstract domain: an entry state plus a transfer function mapping a
/// block's entry state to its exit state.
///
/// `transfer` must be *monotone* (a larger input state never produces a
/// smaller output) for the fixpoint to be the least one, and may fail with
/// a [`VmError`] to abort the whole analysis — that is how the stack-depth
/// domain rejects programs with provable faults.
pub trait Domain {
    /// The abstract state attached to each block entry.
    type State: Lattice + std::fmt::Debug;

    /// How many times a block's entry state may change before further
    /// changes use [`Lattice::widen`] instead of join: `usize::MAX` for a
    /// finite-height lattice, which never needs widening.
    const WIDEN_AFTER: usize;

    /// The state on entry to the program's first block.
    fn entry_state(&self, cfg: &Cfg) -> Self::State;

    /// Abstractly executes the block starting at `block` on `state`,
    /// returning the state at the block's exit.
    fn transfer(
        &self,
        cfg: &Cfg,
        block: usize,
        state: &Self::State,
    ) -> Result<Self::State, VmError>;
}

/// Runs `domain` over `cfg` to a fixpoint and returns the entry state of
/// every reachable block (unreachable blocks are absent from the map).
///
/// A block's incoming state is joined with its previous entry state; after
/// a block's entry has changed [`Domain::WIDEN_AFTER`] times, further
/// changes use [`Lattice::widen`] instead of plain join so infinite-height
/// lattices still terminate.
///
/// # Errors
///
/// Propagates the first error the domain's `transfer` reports.
pub fn run<D: Domain>(cfg: &Cfg, domain: &D) -> Result<BTreeMap<usize, D::State>, VmError> {
    let mut entry: BTreeMap<usize, D::State> = BTreeMap::new();
    if cfg.is_empty() {
        return Ok(entry);
    }
    let mut updates: BTreeMap<usize, usize> = BTreeMap::new();
    let start = cfg.entry();
    entry.insert(start, domain.entry_state(cfg));
    let mut worklist: Vec<usize> = vec![start];
    while let Some(block) = worklist.pop() {
        let state = entry[&block].clone();
        let exit = domain.transfer(cfg, block, &state)?;
        for succ in cfg.successors(block) {
            let merged = match entry.get(&succ) {
                None => exit.clone(),
                Some(old) => {
                    let count = updates.entry(succ).or_insert(0);
                    if *count >= D::WIDEN_AFTER {
                        old.widen(&exit)
                    } else {
                        old.join(&exit)
                    }
                }
            };
            if entry.get(&succ) != Some(&merged) {
                *updates.entry(succ).or_insert(0) += 1;
                entry.insert(succ, merged);
                worklist.push(succ);
            }
        }
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::lattice::Interval;
    use crate::asm::assemble;
    use smartcrowd_crypto::U256;

    /// A toy domain: tracks only how many blocks were traversed to reach
    /// each block, as an interval. Exercises join and widening.
    struct HopCount;

    impl Domain for HopCount {
        type State = Interval;
        const WIDEN_AFTER: usize = 3;

        fn entry_state(&self, _cfg: &Cfg) -> Interval {
            Interval::exact(U256::ZERO)
        }

        fn transfer(
            &self,
            _cfg: &Cfg,
            _block: usize,
            state: &Interval,
        ) -> Result<Interval, VmError> {
            Ok(state.add(&Interval::exact(U256::ONE)))
        }
    }

    #[test]
    fn acyclic_fixpoint_reaches_all_blocks() {
        let code =
            assemble("PUSH 1\nPUSH @end\nJUMPI\nPUSH 9\nPOP\nend:\nSTOP\n").expect("assembles");
        let cfg = Cfg::build(&code).expect("builds");
        let states = run(&cfg, &HopCount).expect("fixpoint");
        assert_eq!(states.len(), cfg.block_count());
    }

    #[test]
    fn widening_terminates_a_looping_count() {
        // Without widening, the hop count at the loop head grows forever.
        let code = assemble("loop:\nJUMPDEST\nPUSH 1\nPUSH @loop\nJUMPI\n").expect("assembles");
        let cfg = Cfg::build(&code).expect("builds");
        let states = run(&cfg, &HopCount).expect("fixpoint must terminate");
        let head = states.get(&0).expect("loop head reached");
        assert_eq!(head.hi, U256::MAX, "widened to top");
    }

    #[test]
    fn join_merges_branch_states() {
        // Two paths of different lengths into `end` ⇒ non-singleton hull.
        let code = assemble("PUSH 1\nPUSH @end\nJUMPI\nPUSH 9\nPOP\nend:\nSTOP\n").expect("ok");
        let cfg = Cfg::build(&code).expect("builds");
        let states = run(&cfg, &HopCount).expect("fixpoint");
        let end = states.iter().last().map(|(_, s)| *s).expect("end state");
        assert!(end.lo < end.hi || end.as_const().is_some());
    }
}
