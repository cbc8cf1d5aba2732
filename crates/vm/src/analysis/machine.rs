//! The abstract operand stack and statically-keyed storage that the
//! range, loop and balance-flow domains all run on.
//!
//! [`Machine`] executes the stack and storage half of every opcode; a
//! domain supplies only its [`Value`]: the word it tracks, that word's
//! `TOP`, and its algebra ([`Value::eval`]). The rules, written once:
//!
//! - The stack is tracked from the top down; a slot below the tracked
//!   region reads `TOP` (the depth domain, not this machine, proves that
//!   the slot exists).
//! - `PUSH` pushes [`Value::constant`], `DUP n` a copy of slot `n`, and
//!   `SWAP n` exchanges the top with slot `n`, or sets the top to `TOP`
//!   when slot `n` is untracked.
//! - Storage records what was written through statically-known keys
//!   ([`Value::as_const`]). An unwritten slot reads its call-entry value
//!   ([`Value::at_entry`]). A write through an unknown key may hit any
//!   slot: it forgets every record and marks the storage *clobbered*, so
//!   from then on an unrecorded slot reads `TOP`. `SLOAD` through an
//!   unknown key reads `TOP`.
//! - Every other opcode pops its operands ([`stack_effect`]) and pushes
//!   what [`Value::eval`] makes of them.
//! - A join is top-aligned: the two stacks are joined slot by slot from
//!   the top and cut to the shorter one. Storage joins slot by slot over
//!   what each side reads; a slot that joins to what an unrecorded slot
//!   would read is dropped.
//!
//! Each domain differs from these rules only by a constant of its
//! [`Value`]:
//!
//! - [`Value::UNWRITTEN_IS_TOP`] (range): the analysis knows nothing of
//!   storage at call entry, so its states are born clobbered and an
//!   unwritten slot reads `TOP`; and a join keeps a slot both sides
//!   wrote, even when it joins to `TOP`. Which slots a join keeps decides
//!   which joins the engine counts as a change, and so where range
//!   widening starts.
//! - [`Value::MAX_TRACKED`] (flow, 128 slots): a push past it forgets the
//!   bottom slot, so mutants that push thousands of words keep joins
//!   linear.
//! - [`Value::SWAP0_FORGETS_TOP`] (flow): `SWAP 0` sets the top to `TOP`
//!   where the other domains swap it with itself. No analysis reaches it:
//!   the depth domain rejects `SWAP 0` before any value domain runs.
//! - [`Value::CLOBBER_IS_FINAL`] (loops): once clobbered, every slot reads
//!   `TOP`, even one written since.

use crate::analysis::cfg::{stack_effect, Insn};
use crate::analysis::lattice::Lattice;
use crate::isa::Op;
use smartcrowd_crypto::U256;
use std::collections::BTreeMap;

/// The word a domain tracks in stack and storage slots, with its algebra.
pub trait Value: Clone + PartialEq {
    /// The unknown word.
    const TOP: Self;
    /// Stack slots tracked before a push forgets the bottom one.
    const MAX_TRACKED: usize = usize::MAX;
    /// Whether unwritten storage reads `TOP` rather than [`Value::at_entry`]
    /// (and joins keep slots both sides wrote); see the module docs.
    const UNWRITTEN_IS_TOP: bool = false;
    /// Whether `SWAP 0` sets the top to `TOP` instead of leaving it.
    const SWAP0_FORGETS_TOP: bool = false;
    /// Whether a clobber hides writes made after it.
    const CLOBBER_IS_FINAL: bool = false;

    /// The word a `PUSH` of `c` pushes.
    fn constant(c: U256) -> Self;

    /// `Some(c)` when the word is exactly `c`: a storage key it names.
    fn as_const(&self) -> Option<U256>;

    /// The value storage slot `key` holds at call entry.
    fn at_entry(key: U256) -> Self;

    /// The word `op` pushes given the operands it popped: `[lhs, rhs]`
    /// with the old top in `rhs`; a slot `op` does not pop is `TOP`, so a
    /// unary opcode reads `rhs` only. Only called for opcodes that push;
    /// anything not modelled is `TOP`.
    fn eval(op: Op, args: [Self; 2]) -> Self;
}

/// An abstract operand stack plus statically-keyed storage over `V`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine<V> {
    /// Tracked stack slots, bottom first (`last()` is the top). May be
    /// shorter than the concrete stack; reads past it yield `TOP`.
    pub stack: Vec<V>,
    /// Storage slots written through statically-known keys.
    pub storage: BTreeMap<U256, V>,
    /// Whether a write through an unknown key may have hit any slot.
    clobbered: bool,
}

impl<V: Value> Machine<V> {
    /// The state at call entry: an empty stack, storage as it was.
    pub(super) fn new() -> Self {
        Machine {
            stack: Vec::new(),
            storage: BTreeMap::new(),
            clobbered: V::UNWRITTEN_IS_TOP,
        }
    }

    /// The word `n` slots below the top (`TOP` when untracked).
    pub fn peek(&self, n: usize) -> V {
        self.stack
            .len()
            .checked_sub(n + 1)
            .map_or(V::TOP, |i| self.stack[i].clone())
    }

    pub(super) fn pop(&mut self) -> V {
        self.stack.pop().unwrap_or(V::TOP)
    }

    pub(super) fn push(&mut self, v: V) {
        if self.stack.len() >= V::MAX_TRACKED {
            self.stack.remove(0);
        }
        self.stack.push(v);
    }

    /// The word storage slot `key` holds on this path.
    pub(super) fn sload(&self, key: &U256) -> V {
        if V::CLOBBER_IS_FINAL && self.clobbered {
            return V::TOP;
        }
        match self.storage.get(key) {
            Some(v) => v.clone(),
            None => self.unwritten(key),
        }
    }

    fn unwritten(&self, key: &U256) -> V {
        if self.clobbered {
            V::TOP
        } else {
            V::at_entry(*key)
        }
    }

    /// Abstractly executes one instruction.
    pub(super) fn step(&mut self, insn: &Insn) {
        match insn.op {
            Op::Push8 | Op::Push32 => self.push(V::constant(insn.push)),
            Op::Dup => self.push(self.peek(usize::from(insn.index_imm))),
            Op::Swap => {
                let n = usize::from(insn.index_imm);
                let len = self.stack.len();
                if n < len && (n > 0 || !V::SWAP0_FORGETS_TOP) {
                    self.stack.swap(len - 1, len - 1 - n);
                } else if let Some(top) = self.stack.last_mut() {
                    *top = V::TOP;
                }
            }
            Op::SLoad => {
                let v = self.pop().as_const().map_or(V::TOP, |k| self.sload(&k));
                self.push(v);
            }
            Op::SStore => {
                let key = self.pop();
                let value = self.pop();
                match key.as_const() {
                    Some(k) => {
                        self.storage.insert(k, value);
                    }
                    None => {
                        self.storage.clear();
                        self.clobbered = true;
                    }
                }
            }
            op => {
                let (pops, pushes) = stack_effect(op);
                let rhs = if pops >= 1 { self.pop() } else { V::TOP };
                let lhs = if pops == 2 { self.pop() } else { V::TOP };
                if pushes == 1 {
                    self.push(V::eval(op, [lhs, rhs]));
                }
            }
        }
    }

    /// Joins (or widens, per `f`) two states; see the module docs.
    pub(super) fn merge(&self, other: &Self, f: impl Fn(&V, &V) -> V) -> Self {
        let keep = self.stack.len().min(other.stack.len());
        let stack = self.stack[self.stack.len() - keep..]
            .iter()
            .zip(&other.stack[other.stack.len() - keep..])
            .map(|(a, b)| f(a, b))
            .collect();
        let mut joined = Machine {
            stack,
            storage: BTreeMap::new(),
            clobbered: self.clobbered || other.clobbered,
        };
        for (k, a) in &self.storage {
            let (v, shared) = match other.storage.get(k) {
                Some(b) => (f(a, b), true),
                None => (f(a, &other.sload(k)), false),
            };
            if (V::UNWRITTEN_IS_TOP && shared) || v != joined.unwritten(k) {
                joined.storage.insert(*k, v);
            }
        }
        for (k, b) in &other.storage {
            if !self.storage.contains_key(k) {
                let v = f(&self.sload(k), b);
                if v != joined.unwritten(k) {
                    joined.storage.insert(*k, v);
                }
            }
        }
        joined
    }
}

impl<V: Value + Lattice> Lattice for Machine<V> {
    fn join(&self, other: &Self) -> Self {
        self.merge(other, V::join)
    }

    fn widen(&self, newer: &Self) -> Self {
        self.merge(newer, V::widen)
    }
}
