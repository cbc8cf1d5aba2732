//! Value-range / constant-propagation domain over stack slots and storage.
//!
//! The range state is the analyzers' shared abstract machine over
//! [`Interval`]s; this module adds only the interval algebra. Range knows
//! nothing of storage at call entry, so an unwritten slot is `⊤`.
//! The domain never rejects a program — its job is precision, not gating
//! — and its results feed three consumers: provable div-by-zero and
//! out-of-bounds memory diagnostics ([`scan`]), per-contract
//! storage-effect summaries ([`StorageSummary`]), and initial counter
//! values for the loop trip-count analysis.

use crate::analysis::cfg::Cfg;
use crate::analysis::diagnostics::{Diagnostic, DiagnosticKind, Severity};
use crate::analysis::engine::{run, Domain};
use crate::analysis::lattice::{Interval, TOP};
use crate::analysis::machine::{Machine, Value};
use crate::error::VmError;
use crate::exec::MEMORY_LIMIT;
use crate::isa::Op;
use smartcrowd_crypto::U256;
use std::collections::{BTreeMap, BTreeSet};

/// Abstract machine state: intervals for the tracked top of the stack and
/// for storage slots with statically-known keys (absent keys are `⊤`).
pub(crate) type RangeState = Machine<Interval>;

/// Folds a bitwise op limb by limb when both operands are constants.
fn bitwise(l: &Interval, r: &Interval, f: impl Fn(u64, u64) -> u64) -> Interval {
    match (l.as_const(), r.as_const()) {
        (Some(a), Some(b)) => {
            let (x, y) = (a.limbs(), b.limbs());
            Interval::exact(U256::from_limbs(std::array::from_fn(|i| f(x[i], y[i]))))
        }
        _ => TOP,
    }
}

impl Value for Interval {
    const TOP: Interval = TOP;
    const UNWRITTEN_IS_TOP: bool = true;

    fn constant(c: U256) -> Interval {
        Interval::exact(c)
    }

    fn as_const(&self) -> Option<U256> {
        Interval::as_const(self)
    }

    /// Unknown, like every slot: range states are born clobbered.
    fn at_entry(_key: U256) -> Interval {
        TOP
    }

    fn eval(op: Op, [l, r]: [Interval; 2]) -> Interval {
        match op {
            Op::IsZero => r.is_zero_abs(),
            Op::Not => bitwise(&r, &r, |x, _| !x),
            Op::Add => l.add(&r),
            Op::Sub => l.sub(&r),
            Op::Mul => l.mul(&r),
            Op::Div => l.div(&r),
            Op::Mod => l.rem(&r),
            Op::Lt => l.lt(&r),
            Op::Gt => l.gt(&r),
            Op::Eq => l.eq(&r),
            Op::And => l.bitand(&r),
            Op::Min => l.min_abs(&r),
            Op::Or => bitwise(&l, &r, |x, y| x | y),
            Op::Xor => bitwise(&l, &r, |x, y| x ^ y),
            _ => TOP,
        }
    }
}

/// The range domain (no parameters; its one precision knob is the
/// widening budget).
#[derive(Debug)]
pub(crate) struct RangeDomain;

impl Domain for RangeDomain {
    type State = RangeState;
    /// Small budgets converge faster; larger ones keep more precision in
    /// short chains of branches.
    const WIDEN_AFTER: usize = 4;

    fn entry_state(&self, _cfg: &Cfg) -> RangeState {
        RangeState::new()
    }

    fn transfer(&self, cfg: &Cfg, block: usize, state: &RangeState) -> Result<RangeState, VmError> {
        let mut s = state.clone();
        for insn in cfg.block_insns(block) {
            s.step(insn);
        }
        Ok(s)
    }
}

/// Which storage slots a contract may read or write, as proven by the
/// range analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageSummary {
    /// Statically-known keys the contract may `SLOAD`.
    pub reads: BTreeSet<U256>,
    /// Statically-known keys the contract may `SSTORE`.
    pub writes: BTreeSet<U256>,
    /// Whether some `SLOAD` key could not be resolved (the contract may
    /// read *any* slot).
    pub reads_unknown: bool,
    /// Whether some `SSTORE` key could not be resolved (the contract may
    /// write *any* slot).
    pub writes_unknown: bool,
}

/// Runs the range domain to a fixpoint.
///
/// # Errors
///
/// Only structural [`VmError`]s bubbled up from the engine; the domain
/// itself never rejects.
pub(crate) fn analyze_ranges(cfg: &Cfg) -> Result<BTreeMap<usize, RangeState>, VmError> {
    run(cfg, &RangeDomain)
}

/// Post-pass over the fixpoint: walks every reachable block re-deriving
/// per-instruction states and collects provable-fault diagnostics plus the
/// storage-effect summary.
pub fn scan(cfg: &Cfg, entry: &BTreeMap<usize, RangeState>) -> (Vec<Diagnostic>, StorageSummary) {
    let mut diags = Vec::new();
    let mut summary = StorageSummary::default();

    // A memory access is *provably* out of bounds only when the whole
    // interval lies past the limit and truncation to the interpreter's
    // 64-bit offset cannot wrap it back in range.
    let fits_u64 = |i: &Interval| i.hi.bits() <= 64;
    let provably_oob = |offset: &Interval, len: u128| {
        fits_u64(offset) && u128::from(offset.lo.low_u64()) + len > MEMORY_LIMIT as u128
    };

    for (&block, state) in entry {
        let mut s = state.clone();
        for insn in cfg.block_insns(block) {
            match insn.op {
                Op::Div | Op::Mod => {
                    let rhs = s.peek(0);
                    if rhs.is_zero() {
                        diags.push(Diagnostic {
                            severity: Severity::Warning,
                            kind: DiagnosticKind::DivByZero,
                            pc: insn.pc,
                            message: format!(
                                "{:?} by a provably zero divisor always yields 0",
                                insn.op
                            ),
                        });
                    }
                }
                Op::MLoad | Op::MStore => {
                    let offset = s.peek(0);
                    if provably_oob(&offset, 32) {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            kind: DiagnosticKind::OobMemory,
                            pc: insn.pc,
                            message: format!(
                                "memory access at offset >= {} always exceeds the {}-byte limit",
                                offset.lo.low_u64(),
                                MEMORY_LIMIT
                            ),
                        });
                    }
                }
                Op::Keccak => {
                    let len = s.peek(0);
                    let offset = s.peek(1);
                    if fits_u64(&len)
                        && fits_u64(&offset)
                        && u128::from(offset.lo.low_u64()) + u128::from(len.lo.low_u64())
                            > MEMORY_LIMIT as u128
                    {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            kind: DiagnosticKind::OobMemory,
                            pc: insn.pc,
                            message: format!(
                                "KECCAK over [{}, +{}) always exceeds the {}-byte limit",
                                offset.lo.low_u64(),
                                len.lo.low_u64(),
                                MEMORY_LIMIT
                            ),
                        });
                    }
                }
                Op::EcRecover => {
                    let offset = s.peek(0);
                    if provably_oob(&offset, 97) {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            kind: DiagnosticKind::OobMemory,
                            pc: insn.pc,
                            message: format!(
                                "ECRECOVER reads 97 bytes at offset >= {}, past the {}-byte limit",
                                offset.lo.low_u64(),
                                MEMORY_LIMIT
                            ),
                        });
                    }
                }
                Op::SLoad => match s.peek(0).as_const() {
                    Some(k) => {
                        summary.reads.insert(k);
                    }
                    None => summary.reads_unknown = true,
                },
                Op::SStore => match s.peek(0).as_const() {
                    Some(k) => {
                        summary.writes.insert(k);
                    }
                    None => summary.writes_unknown = true,
                },
                _ => {}
            }
            s.step(insn);
        }
    }
    (diags, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn ranges(src: &str) -> (Cfg, BTreeMap<usize, RangeState>) {
        let cfg = Cfg::build(&assemble(src).expect("assembles")).expect("builds");
        let entry = analyze_ranges(&cfg).expect("fixpoint");
        (cfg, entry)
    }

    #[test]
    fn constants_propagate_through_arithmetic() {
        let (cfg, entry) = ranges("PUSH 2\nPUSH 3\nADD\nPUSH @end\nJUMP\nend:\nSTOP\n");
        let end = cfg.block_starts().last().expect("end block");
        let state = &entry[&end];
        assert_eq!(state.peek(0).as_const(), Some(U256::from_u64(5)));
    }

    #[test]
    fn storage_constants_flow_through_sload() {
        let (cfg, entry) =
            ranges("PUSH 7\nPUSH 1\nSSTORE\nPUSH 1\nSLOAD\nPUSH @end\nJUMP\nend:\nSTOP\n");
        let end = cfg.block_starts().last().expect("end block");
        assert_eq!(entry[&end].peek(0).as_const(), Some(U256::from_u64(7)));
    }

    #[test]
    fn unknown_key_store_clobbers_storage() {
        // The second SSTORE's key comes from calldata: slot 1's known
        // value must not survive it.
        let (cfg, entry) = ranges(
            "PUSH 7\nPUSH 1\nSSTORE\nPUSH 9\nPUSH 0\nCALLDATALOAD\nSSTORE\n\
             PUSH 1\nSLOAD\nPUSH @end\nJUMP\nend:\nSTOP\n",
        );
        let end = cfg.block_starts().last().expect("end block");
        assert_eq!(entry[&end].peek(0), TOP);
    }

    #[test]
    fn scan_flags_provable_div_by_zero() {
        let (cfg, entry) = ranges("PUSH 8\nPUSH 0\nDIV\nPOP\nSTOP\n");
        let (diags, _) = scan(&cfg, &entry);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DivByZero && d.severity == Severity::Warning));
    }

    #[test]
    fn scan_flags_provable_oob_memory() {
        let oob = (MEMORY_LIMIT as u64) + 1;
        let (cfg, entry) = ranges(&format!("PUSH {oob}\nMLOAD\nPOP\nSTOP\n"));
        let (diags, _) = scan(&cfg, &entry);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::OobMemory && d.severity == Severity::Error));
    }

    #[test]
    fn in_bounds_memory_is_clean() {
        let (cfg, entry) = ranges("PUSH 0\nMLOAD\nPOP\nSTOP\n");
        let (diags, _) = scan(&cfg, &entry);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn storage_summary_collects_known_keys() {
        let (cfg, entry) = ranges("PUSH 5\nPUSH 2\nSSTORE\nPUSH 3\nSLOAD\nPOP\nSTOP\n");
        let (_, summary) = scan(&cfg, &entry);
        assert!(summary.writes.contains(&U256::from_u64(2)));
        assert!(summary.reads.contains(&U256::from_u64(3)));
        assert!(!summary.reads_unknown && !summary.writes_unknown);
    }

    #[test]
    fn unknown_sload_key_sets_flag() {
        let (cfg, entry) = ranges("PUSH 0\nCALLDATALOAD\nSLOAD\nPOP\nSTOP\n");
        let (_, summary) = scan(&cfg, &entry);
        assert!(summary.reads_unknown);
    }

    #[test]
    fn widening_converges_on_accumulator_loop() {
        // Slot 0 grows every iteration; widening must drive it to top
        // instead of looping forever.
        let (_, entry) = ranges(
            "loop:\nJUMPDEST\nPUSH 0\nSLOAD\nPUSH 1\nADD\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n",
        );
        assert!(entry.contains_key(&0), "loop head analyzed");
    }
}
