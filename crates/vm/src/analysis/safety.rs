//! Economic-safety analysis: symbolic balance-flow verdicts.
//!
//! SmartCrowd's incentive mechanism (paper §V-D, §VII) lives or dies on
//! the escrow contract conserving funds and never over-paying. This
//! module statically proves those properties on the shared
//! [`Lattice`]/[`Domain`] framework and abstract machine: a
//! **balance-flow domain** tracks
//! symbolic flows out of the contract balance (`TRANSFER` sites) per
//! dispatch entry point, and the per-site summaries compose into three
//! contract-level [`SafetyVerdict`]s:
//!
//! - **`ConservesEscrow`** — Σ outflows ≤ deposits along every path. The
//!   runtime `TRANSFER` balance check already prevents overdrawing, so
//!   the static verdict proves the two ways a contract can still defeat
//!   conservation *accounting*: a transfer inside a loop with no provable
//!   trip bound (outflow repeats without a static sum), and a transfer
//!   sequenced after the balance was provably drained (see below).
//! - **`BoundedPayout`** — every reachable transfer's per-call amount
//!   resolves to a closed symbolic expression over calldata, call-entry
//!   storage, call value and the remaining balance (never `unknown`),
//!   and no transfer sits in an unbounded loop. The derived expression
//!   *is* the bound `k` — for `sra_escrow.scvm`'s payout arm it reads
//!   `(storage[1] * calldata[64])`, i.e. `mu × n` (paper Eq. 7).
//! - **`NoUnauthorizedFlow`** — every path from the entry to a transfer
//!   traverses a *caller guard*: a conditional branch whose surviving
//!   edge requires `CALLER == <expr>` (the consensus-trigger check in
//!   both escrow arms). Checked by edge-sensitive reachability: delete
//!   every guarded edge and ask whether the transfer is still reachable.
//!
//! Each refusal carries a **witness path** — the block offsets of a CFG
//! path from the entry to the offending site.
//!
//! # The provable-leak rejection
//!
//! One balance-flow defect is severe enough to reject at `Vm::deploy`
//! ([`crate::verify::VerifyError::EscrowLeak`]): a transfer reachable
//! *after* the contract's entire balance was already transferred out
//! (a `SELFBALANCE`-amount transfer with no intervening inflow — SCVM
//! has no inflow opcode) whose amount is not provably zero. Such a
//! payout can never be honored: whenever it would pay a positive
//! amount the call faults with `InsufficientBalance` and the whole
//! incentive allocation reverts — exactly the "allocation must happen
//! automatically" property §V-D demands. The drain fact is tracked
//! path-sensitively (a per-state transfer counter versions every
//! `SELFBALANCE` read, so a *stale* balance read never proves a drain),
//! which makes the claim sound: the flagged path really performs a
//! full drain before the flagged transfer.
//!
//! # Soundness and termination
//!
//! The symbolic lattice is flat per slot: two unequal expressions join
//! to `Top`, so every stack slot and storage record degrades
//! monotonically and the fixpoint terminates without a dedicated
//! widening operator (`widen = join`). Expressions are size-capped;
//! anything larger degrades to `Top`, which only ever *weakens* claims
//! (a `Top` amount refuses `BoundedPayout`, it never proves a leak —
//! leak detection requires an amount that is provably the full balance,
//! and `Top` is not). Dynamic jumps conservatively reach every
//! `JUMPDEST`, so runtime-reachable code is always analyzed.

use crate::analysis::cfg::{Cfg, Exit, Insn};
use crate::analysis::diagnostics::{Diagnostic, DiagnosticKind, Severity};
use crate::analysis::engine::{run, Domain};
use crate::analysis::lattice::Lattice;
use crate::analysis::loops::{LoopAnalysis, LoopBound};
use crate::analysis::machine::{Machine, Value};
use crate::error::VmError;
use crate::isa::Op;
use smartcrowd_crypto::U256;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Cap on symbolic expression size (interior nodes + leaves); anything
/// larger degrades to [`FlowExpr::Top`]. Keeps adversarial straight-line
/// programs (fuzz mutants chaining hundreds of `ADD`s) linear.
const MAX_EXPR_SIZE: usize = 24;

/// A symbolic 256-bit value in terms of the call's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowExpr {
    /// A compile-time constant.
    Const(U256),
    /// `CALLDATALOAD` at a statically-known byte offset.
    Calldata(u64),
    /// The value of this storage slot at call entry (not overwritten on
    /// the path so far).
    Storage(U256),
    /// The caller address word.
    Caller,
    /// The wei attached to the call.
    CallValue,
    /// `SELFBALANCE` read after `transfers_before` transfers executed
    /// on this path — i.e. the *remaining* balance at that point.
    SelfBalance {
        /// How many transfers this path had executed when the balance
        /// was read. A read is "fresh" at a transfer site only when the
        /// site's own transfer count still matches.
        transfers_before: u32,
    },
    /// A binary operation over two symbolic values.
    Bin {
        /// The operator.
        op: FlowOp,
        /// Left operand.
        lhs: Box<FlowExpr>,
        /// Right operand.
        rhs: Box<FlowExpr>,
    },
    /// `ISZERO` of a symbolic value.
    IsZero(Box<FlowExpr>),
    /// Anything the domain cannot express.
    Top,
}

/// Operators preserved symbolically by the balance-flow domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned minimum.
    Min,
    /// Equality comparison (`1`/`0`).
    Eq,
}

impl FlowExpr {
    fn size(&self) -> usize {
        match self {
            FlowExpr::Bin { lhs, rhs, .. } => 1 + lhs.size() + rhs.size(),
            FlowExpr::IsZero(e) => 1 + e.size(),
            _ => 1,
        }
    }

    /// Whether the expression is a closed function of the call's inputs
    /// (everything except [`FlowExpr::Top`], recursively).
    pub fn is_resolved(&self) -> bool {
        match self {
            FlowExpr::Top => false,
            FlowExpr::Bin { lhs, rhs, .. } => lhs.is_resolved() && rhs.is_resolved(),
            FlowExpr::IsZero(e) => e.is_resolved(),
            _ => true,
        }
    }

    /// Concretely evaluates the expression against one call's inputs.
    ///
    /// A [`FlowExpr::Storage`] leaf only survives abstraction when no
    /// write can precede the read on any path, so `storage` is queried
    /// for the slot's value *at call entry* and the result is exact.
    /// [`FlowExpr::Calldata`] mirrors the interpreter's zero-padded
    /// out-of-range reads. Returns `None` for [`FlowExpr::Top`] and for
    /// [`FlowExpr::SelfBalance`] leaves (the remaining balance depends
    /// on transfer ordering the caller would have to replay).
    ///
    /// This is the static half of the fuzzer's safety-verdict oracle:
    /// the VM's concrete transfer amount must match this evaluation
    /// whenever the expression is resolved.
    pub fn eval(
        &self,
        calldata: &[u8],
        caller: &U256,
        callvalue: &U256,
        storage: &dyn Fn(&U256) -> U256,
    ) -> Option<U256> {
        match self {
            FlowExpr::Const(c) => Some(*c),
            FlowExpr::Calldata(off) => {
                let mut bytes = [0u8; 32];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = (*off as usize)
                        .checked_add(i)
                        .and_then(|idx| calldata.get(idx))
                        .copied()
                        .unwrap_or(0);
                }
                Some(U256::from_be_bytes(&bytes))
            }
            FlowExpr::Storage(k) => Some(storage(k)),
            FlowExpr::Caller => Some(*caller),
            FlowExpr::CallValue => Some(*callvalue),
            FlowExpr::SelfBalance { .. } | FlowExpr::Top => None,
            FlowExpr::Bin { op, lhs, rhs } => {
                let l = lhs.eval(calldata, caller, callvalue, storage)?;
                let r = rhs.eval(calldata, caller, callvalue, storage)?;
                Some(match op {
                    FlowOp::Add => l.wrapping_add(&r),
                    FlowOp::Sub => l.wrapping_sub(&r),
                    FlowOp::Mul => l.wrapping_mul(&r),
                    FlowOp::Min => {
                        if l <= r {
                            l
                        } else {
                            r
                        }
                    }
                    FlowOp::Eq => {
                        if l == r {
                            U256::ONE
                        } else {
                            U256::ZERO
                        }
                    }
                })
            }
            FlowExpr::IsZero(e) => {
                let v = e.eval(calldata, caller, callvalue, storage)?;
                Some(if v.is_zero() { U256::ONE } else { U256::ZERO })
            }
        }
    }

    fn bin(op: FlowOp, lhs: FlowExpr, rhs: FlowExpr) -> FlowExpr {
        if let (FlowExpr::Const(a), FlowExpr::Const(b)) = (&lhs, &rhs) {
            let folded = match op {
                FlowOp::Add => a.wrapping_add(b),
                FlowOp::Sub => a.wrapping_sub(b),
                FlowOp::Mul => a.wrapping_mul(b),
                FlowOp::Min => *a.min(b),
                FlowOp::Eq => {
                    if a == b {
                        U256::ONE
                    } else {
                        U256::ZERO
                    }
                }
            };
            return FlowExpr::Const(folded);
        }
        if !lhs.is_resolved() || !rhs.is_resolved() || lhs.size() + rhs.size() >= MAX_EXPR_SIZE {
            return FlowExpr::Top;
        }
        FlowExpr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Flat: unequal expressions join to `Top`.
    fn join(&self, other: &FlowExpr) -> FlowExpr {
        if self == other {
            self.clone()
        } else {
            FlowExpr::Top
        }
    }
}

impl Value for FlowExpr {
    const TOP: FlowExpr = FlowExpr::Top;
    /// Deeper slots are dropped from the *bottom* so mutants that push
    /// thousands of words cannot make joins quadratic.
    const MAX_TRACKED: usize = 128;
    const SWAP0_FORGETS_TOP: bool = true;

    fn constant(c: U256) -> FlowExpr {
        FlowExpr::Const(c)
    }

    fn as_const(&self) -> Option<U256> {
        match self {
            FlowExpr::Const(c) => Some(*c),
            _ => None,
        }
    }

    fn at_entry(key: U256) -> FlowExpr {
        FlowExpr::Storage(key)
    }

    fn eval(op: Op, [lhs, rhs]: [FlowExpr; 2]) -> FlowExpr {
        match op {
            Op::Add => FlowExpr::bin(FlowOp::Add, lhs, rhs),
            Op::Sub => FlowExpr::bin(FlowOp::Sub, lhs, rhs),
            Op::Mul => FlowExpr::bin(FlowOp::Mul, lhs, rhs),
            Op::Min => FlowExpr::bin(FlowOp::Min, lhs, rhs),
            Op::Eq => FlowExpr::bin(FlowOp::Eq, lhs, rhs),
            Op::IsZero => match rhs {
                FlowExpr::Const(c) => {
                    FlowExpr::Const(if c.is_zero() { U256::ONE } else { U256::ZERO })
                }
                FlowExpr::Top => FlowExpr::Top,
                e if e.size() < MAX_EXPR_SIZE => FlowExpr::IsZero(Box::new(e)),
                _ => FlowExpr::Top,
            },
            Op::CallDataLoad => match rhs {
                FlowExpr::Const(c) if c.bits() <= 64 => FlowExpr::Calldata(c.low_u64()),
                _ => FlowExpr::Top,
            },
            Op::Caller => FlowExpr::Caller,
            Op::CallValue => FlowExpr::CallValue,
            _ => FlowExpr::Top,
        }
    }
}

/// Renders small words as decimal (slot numbers, selectors) and falls
/// back to the `U256` hex form for wide values.
fn word(w: &U256) -> String {
    if w.bits() <= 64 {
        w.low_u64().to_string()
    } else {
        w.to_string()
    }
}

impl fmt::Display for FlowExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowExpr::Const(c) => f.write_str(&word(c)),
            FlowExpr::Calldata(off) => write!(f, "calldata[{off}]"),
            FlowExpr::Storage(slot) => write!(f, "storage[{}]", word(slot)),
            FlowExpr::Caller => f.write_str("caller"),
            FlowExpr::CallValue => f.write_str("callvalue"),
            FlowExpr::SelfBalance { .. } => f.write_str("balance"),
            FlowExpr::Bin { op, lhs, rhs } => match op {
                FlowOp::Add => write!(f, "({lhs} + {rhs})"),
                FlowOp::Sub => write!(f, "({lhs} - {rhs})"),
                FlowOp::Mul => write!(f, "({lhs} * {rhs})"),
                FlowOp::Min => write!(f, "min({lhs}, {rhs})"),
                FlowOp::Eq => write!(f, "({lhs} == {rhs})"),
            },
            FlowExpr::IsZero(e) => write!(f, "iszero({e})"),
            FlowExpr::Top => f.write_str("unknown"),
        }
    }
}

/// Path fact: has the balance provably been fully drained?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drained {
    /// No full-balance transfer on any path into this state.
    No,
    /// Some path into this state performed a full-balance transfer at
    /// this pc.
    Maybe(usize),
}

impl Drained {
    fn join(self, other: Drained) -> Drained {
        match (self, other) {
            (Drained::No, Drained::No) => Drained::No,
            (Drained::Maybe(a), Drained::Maybe(b)) => Drained::Maybe(a.min(b)),
            (Drained::Maybe(p), Drained::No) | (Drained::No, Drained::Maybe(p)) => {
                Drained::Maybe(p)
            }
        }
    }
}

/// The balance-flow abstract state: the shared abstract machine over
/// [`FlowExpr`] (whose storage records are the path's writes over the
/// call-entry values), the path's transfer count, and the drain fact.
#[derive(Debug, Clone, PartialEq)]
struct FlowState {
    machine: Machine<FlowExpr>,
    /// Transfers executed on this path (`None` once paths with
    /// different counts merge).
    transfers: Option<u32>,
    /// Whether the balance was provably fully drained.
    drained: Drained,
}

impl FlowState {
    fn entry() -> FlowState {
        FlowState {
            machine: Machine::new(),
            transfers: Some(0),
            drained: Drained::No,
        }
    }

    /// Whether transferring `amount` here pays out the whole remaining
    /// balance: a `SELFBALANCE` read no transfer on this path followed.
    fn drains(&self, amount: &FlowExpr) -> bool {
        matches!(
            (amount, self.transfers),
            (FlowExpr::SelfBalance { transfers_before }, Some(n)) if *transfers_before == n
        )
    }

    /// Abstractly executes one instruction: the machine, plus the balance
    /// reads and transfer facts only this domain tracks.
    fn exec(&mut self, insn: &Insn) {
        match insn.op {
            Op::SelfBalance => self.machine.push(match self.transfers {
                Some(n) => FlowExpr::SelfBalance {
                    transfers_before: n,
                },
                None => FlowExpr::Top,
            }),
            Op::Transfer => {
                if self.machine.stack.last().is_some_and(|a| self.drains(a)) {
                    self.drained = Drained::Maybe(insn.pc);
                }
                self.transfers = self.transfers.map(|n| n.saturating_add(1));
                self.machine.step(insn);
            }
            _ => self.machine.step(insn),
        }
    }
}

impl Lattice for FlowState {
    fn join(&self, other: &Self) -> Self {
        FlowState {
            machine: self.machine.merge(&other.machine, FlowExpr::join),
            transfers: match (self.transfers, other.transfers) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            drained: self.drained.join(other.drained),
        }
    }
}

/// The balance-flow domain (stateless; all knobs are constants).
#[derive(Debug)]
struct FlowDomain;

impl Domain for FlowDomain {
    type State = FlowState;
    const WIDEN_AFTER: usize = 4;

    fn entry_state(&self, _cfg: &Cfg) -> FlowState {
        FlowState::entry()
    }

    fn transfer(&self, cfg: &Cfg, block: usize, state: &FlowState) -> Result<FlowState, VmError> {
        let mut s = state.clone();
        for insn in cfg.block_insns(block) {
            s.exec(insn);
        }
        Ok(s)
    }
}

/// One reachable `TRANSFER` instruction with its balance-flow summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSite {
    /// Program counter of the `TRANSFER`.
    pub pc: usize,
    /// Offset of the basic block containing it.
    pub block: usize,
    /// Symbolic amount transferred (top of stack at the site).
    pub amount: FlowExpr,
    /// Symbolic recipient word.
    pub to: FlowExpr,
    /// Dispatch selectors (calldata word 0 values) whose entry points
    /// reach this site; empty when the dispatch shape is unrecognized.
    pub selectors: Vec<u64>,
    /// Whether every path from the entry traverses a caller guard.
    pub guarded: bool,
    /// Whether the site sits inside a loop with no provable trip bound.
    pub in_unbounded_loop: bool,
    /// Whether the amount is provably the full remaining balance (a
    /// fresh `SELFBALANCE` read).
    pub drains: bool,
}

/// One recognized dispatch entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    /// The calldata-word-0 selector value.
    pub selector: u64,
    /// Offset of the arm's first block.
    pub block: usize,
    /// `TRANSFER` pcs reachable from this arm.
    pub transfer_pcs: Vec<usize>,
}

/// A provable escrow leak: a transfer that executes after the balance
/// was fully drained and can therefore never pay a positive amount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakWitness {
    /// The transfer that can never be honored.
    pub pc: usize,
    /// The earlier full-balance transfer that drains the escrow.
    pub drain_pc: usize,
    /// Block offsets of a CFG path from the entry to the leaking
    /// transfer's block.
    pub witness: Vec<usize>,
}

/// A contract-level safety verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyVerdict {
    /// The property holds on every path.
    Proved,
    /// The property could not be proven.
    Refused {
        /// Program counter of the offending transfer.
        pc: usize,
        /// Block offsets of a CFG path from the entry to the site.
        witness: Vec<usize>,
        /// Why the proof failed.
        reason: String,
    },
}

impl SafetyVerdict {
    /// Whether the property was proven.
    pub fn is_proved(&self) -> bool {
        matches!(self, SafetyVerdict::Proved)
    }

    /// Stable machine-readable label (`scvm-lint --json`, telemetry).
    pub fn label(&self) -> &'static str {
        match self {
            SafetyVerdict::Proved => "proved",
            SafetyVerdict::Refused { .. } => "refused",
        }
    }
}

impl fmt::Display for SafetyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyVerdict::Proved => f.write_str("proved"),
            SafetyVerdict::Refused { pc, reason, .. } => {
                write!(f, "refused at pc {pc}: {reason}")
            }
        }
    }
}

/// Everything the balance-flow analysis proves about one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyReport {
    /// Every reachable `TRANSFER` with its flow summary.
    pub transfers: Vec<TransferSite>,
    /// Recognized dispatch entry points with their transfer sets.
    pub entry_points: Vec<EntryPoint>,
    /// The first provable escrow leak, if any (deploy-gate rejection).
    pub leak: Option<LeakWitness>,
    /// Σ outflows ≤ deposits along every path.
    pub conserves_escrow: SafetyVerdict,
    /// Every per-call payout has a statically derived bound expression.
    pub bounded_payout: SafetyVerdict,
    /// No transfer reachable without a caller guard dominating it.
    pub no_unauthorized_flow: SafetyVerdict,
}

impl Default for SafetyReport {
    fn default() -> Self {
        SafetyReport {
            transfers: Vec::new(),
            entry_points: Vec::new(),
            leak: None,
            conserves_escrow: SafetyVerdict::Proved,
            bounded_payout: SafetyVerdict::Proved,
            no_unauthorized_flow: SafetyVerdict::Proved,
        }
    }
}

fn render_path(path: &[usize]) -> String {
    let blocks: Vec<String> = path.iter().map(|b| b.to_string()).collect();
    blocks.join(" -> ")
}

/// Breadth-first CFG path from `from` to `to`, restricted to reachable
/// blocks and skipping `banned` edges. Deterministic: successors are
/// visited in [`Cfg::successors`] order.
fn bfs_path(
    cfg: &Cfg,
    reachable: &BTreeSet<usize>,
    from: usize,
    to: usize,
    banned: &BTreeSet<(usize, usize)>,
) -> Option<Vec<usize>> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(b) = queue.pop_front() {
        if b == to {
            let mut path = vec![b];
            let mut cur = b;
            while cur != from {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for succ in cfg.successors(b) {
            if reachable.contains(&succ) && !banned.contains(&(b, succ)) && seen.insert(succ) {
                parent.insert(succ, b);
                queue.push_back(succ);
            }
        }
    }
    None
}

/// Whether `cond` tests `CALLER == <expr>`, and with which polarity:
/// `Some(true)` when the *nonzero* side of a branch on `cond` implies
/// the equality holds, `Some(false)` when the *zero* side does.
fn caller_guard_polarity(cond: &FlowExpr) -> Option<bool> {
    match cond {
        FlowExpr::Bin {
            op: FlowOp::Eq,
            lhs,
            rhs,
        } => {
            let involves_caller =
                matches!(**lhs, FlowExpr::Caller) || matches!(**rhs, FlowExpr::Caller);
            involves_caller.then_some(true)
        }
        FlowExpr::IsZero(inner) => caller_guard_polarity(inner).map(|p| !p),
        _ => None,
    }
}

/// Walks one block from its entry state and returns the symbolic
/// condition of its terminating `JUMPI`, if any.
fn branch_condition(cfg: &Cfg, block: usize, entry: &FlowState) -> Option<FlowExpr> {
    let insns = cfg.block_insns(block);
    let last = insns.last()?;
    if last.op != Op::JumpI {
        return None;
    }
    let mut s = entry.clone();
    for insn in &insns[..insns.len() - 1] {
        s.exec(insn);
    }
    // JUMPI pops the destination (top) then the condition.
    Some(s.machine.peek(1))
}

/// Recognizes the leading `calldata[0]`-dispatch chain and labels each
/// arm's first block with its selector value.
fn dispatch_arms(cfg: &Cfg, states: &BTreeMap<usize, FlowState>) -> BTreeMap<usize, u64> {
    let mut arms = BTreeMap::new();
    let mut block = cfg.entry();
    let mut hops = 0usize;
    while hops < 64 {
        hops += 1;
        let Some(state) = states.get(&block) else {
            break;
        };
        let Some(Exit::StaticBranch { dest, fallthrough }) =
            cfg.block(block).map(|b| b.exit.clone())
        else {
            break;
        };
        let Some(cond) = branch_condition(cfg, block, state) else {
            break;
        };
        let selector = match &cond {
            FlowExpr::Bin {
                op: FlowOp::Eq,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (FlowExpr::Calldata(0), FlowExpr::Const(c))
                | (FlowExpr::Const(c), FlowExpr::Calldata(0))
                    if c.bits() <= 64 =>
                {
                    Some(c.low_u64())
                }
                _ => None,
            },
            FlowExpr::IsZero(inner) if **inner == FlowExpr::Calldata(0) => Some(0),
            _ => None,
        };
        let Some(sel) = selector else { break };
        arms.entry(dest).or_insert(sel);
        block = fallthrough;
    }
    arms
}

/// Blocks reachable from `from` (inclusive), restricted to `reachable`.
fn reach_from(cfg: &Cfg, reachable: &BTreeSet<usize>, from: usize) -> BTreeSet<usize> {
    let mut seen = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(b) = queue.pop_front() {
        for succ in cfg.successors(b) {
            if reachable.contains(&succ) && seen.insert(succ) {
                queue.push_back(succ);
            }
        }
    }
    seen
}

fn count_verdicts(report: &SafetyReport) {
    use smartcrowd_telemetry::counter;
    counter!("vm.analysis.safety.runs").inc();
    if report.conserves_escrow.is_proved() {
        counter!("vm.analysis.safety.proved", "verdict" => "conserves-escrow").inc();
    } else {
        counter!("vm.analysis.safety.refused", "verdict" => "conserves-escrow").inc();
    }
    if report.bounded_payout.is_proved() {
        counter!("vm.analysis.safety.proved", "verdict" => "bounded-payout").inc();
    } else {
        counter!("vm.analysis.safety.refused", "verdict" => "bounded-payout").inc();
    }
    if report.no_unauthorized_flow.is_proved() {
        counter!("vm.analysis.safety.proved", "verdict" => "no-unauthorized-flow").inc();
    } else {
        counter!("vm.analysis.safety.refused", "verdict" => "no-unauthorized-flow").inc();
    }
    if report.leak.is_some() {
        counter!("vm.analysis.safety.leaks").inc();
    }
}

/// Runs the balance-flow analysis and appends its diagnostics.
///
/// # Errors
///
/// Only structural [`VmError`]s bubbled up from the fixpoint engine;
/// the domain itself never rejects (the deploy gate turns a
/// [`SafetyReport::leak`] into a rejection separately).
pub(crate) fn analyze_safety(
    cfg: &Cfg,
    reachable: &BTreeSet<usize>,
    loops: &LoopAnalysis,
    diags: &mut Vec<Diagnostic>,
) -> Result<SafetyReport, VmError> {
    let states = run(cfg, &FlowDomain)?;

    // Pass 1: walk every reachable block collecting transfer sites,
    // drain facts and guarded branch edges.
    let mut sites: Vec<(usize, usize, FlowExpr, FlowExpr, Drained, bool)> = Vec::new();
    let mut guarded_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (&block, entry) in &states {
        if let Some(cond) = branch_condition(cfg, block, entry) {
            if let (Some(polarity), Some(Exit::StaticBranch { dest, fallthrough })) = (
                caller_guard_polarity(&cond),
                cfg.block(block).map(|b| b.exit.clone()),
            ) {
                // The jump edge is taken when the condition is nonzero.
                let guarded = if polarity { dest } else { fallthrough };
                guarded_edges.insert((block, guarded));
            }
        }
        let mut s = entry.clone();
        for insn in cfg.block_insns(block) {
            if insn.op == Op::Transfer {
                let amount = s.machine.peek(0);
                let drains = s.drains(&amount);
                sites.push((insn.pc, block, amount, s.machine.peek(1), s.drained, drains));
            }
            s.exec(insn);
        }
    }
    sites.sort_by_key(|s| s.0);

    // Pass 2: per-site facts needing whole-CFG context.
    let entry_block = cfg.entry();
    let unguarded_reach = {
        // Reachability with every guarded edge deleted: anything still
        // reachable has a guard-free path from the entry.
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        if reachable.contains(&entry_block) {
            seen.insert(entry_block);
            queue.push_back(entry_block);
        }
        while let Some(b) = queue.pop_front() {
            for succ in cfg.successors(b) {
                if reachable.contains(&succ)
                    && !guarded_edges.contains(&(b, succ))
                    && seen.insert(succ)
                {
                    queue.push_back(succ);
                }
            }
        }
        seen
    };
    let unbounded_blocks: BTreeSet<usize> = loops
        .loops
        .iter()
        .filter(|l| matches!(l.bound, LoopBound::Unbounded { .. }))
        .flat_map(|l| l.blocks.iter().copied())
        .collect();
    let arms = dispatch_arms(cfg, &states);
    let arm_reach: Vec<(u64, usize, BTreeSet<usize>)> = arms
        .iter()
        .map(|(&block, &sel)| (sel, block, reach_from(cfg, reachable, block)))
        .collect();

    let mut transfers = Vec::new();
    let mut leak: Option<LeakWitness> = None;
    for (pc, block, amount, to, drained, drains) in sites {
        let guarded = !unguarded_reach.contains(&block);
        let in_unbounded_loop = unbounded_blocks.contains(&block);
        let mut selectors: Vec<u64> = arm_reach
            .iter()
            .filter(|(_, _, reach)| reach.contains(&block))
            .map(|(sel, _, _)| *sel)
            .collect();
        selectors.sort_unstable();
        selectors.dedup();
        // Leak: the entry drain fact says some path into this block
        // already transferred the whole balance; a within-block drain
        // before this site was folded into `s.drained` by the walk.
        if leak.is_none() && !drains {
            if let Drained::Maybe(drain_pc) = drained {
                let provably_zero = matches!(&amount, FlowExpr::Const(c) if c.is_zero());
                if !provably_zero {
                    let witness = bfs_path(cfg, reachable, entry_block, block, &BTreeSet::new())
                        .unwrap_or_else(|| vec![block]);
                    leak = Some(LeakWitness {
                        pc,
                        drain_pc,
                        witness,
                    });
                }
            }
        }
        transfers.push(TransferSite {
            pc,
            block,
            amount,
            to,
            selectors,
            guarded,
            in_unbounded_loop,
            drains,
        });
    }

    let entry_points: Vec<EntryPoint> = arm_reach
        .iter()
        .map(|(sel, block, reach)| EntryPoint {
            selector: *sel,
            block: *block,
            transfer_pcs: transfers
                .iter()
                .filter(|t| reach.contains(&t.block))
                .map(|t| t.pc)
                .collect(),
        })
        .collect();

    let witness_to = |block: usize| {
        bfs_path(cfg, reachable, entry_block, block, &BTreeSet::new())
            .unwrap_or_else(|| vec![block])
    };

    // Verdict: ConservesEscrow.
    let conserves_escrow = if let Some(l) = &leak {
        SafetyVerdict::Refused {
            pc: l.pc,
            witness: l.witness.clone(),
            reason: format!(
                "escrow-leak: transfer at pc {} executes after the balance was fully \
                 drained at pc {} and can never pay a positive amount",
                l.pc, l.drain_pc
            ),
        }
    } else if let Some(t) = transfers.iter().find(|t| t.in_unbounded_loop) {
        SafetyVerdict::Refused {
            pc: t.pc,
            witness: witness_to(t.block),
            reason: format!(
                "unbounded-outflow: transfer at pc {} repeats in a loop with no \
                 provable trip bound, so total outflow has no static sum",
                t.pc
            ),
        }
    } else {
        SafetyVerdict::Proved
    };

    // Verdict: BoundedPayout.
    let bounded_payout = if let Some(t) = transfers
        .iter()
        .find(|t| !t.amount.is_resolved() || t.in_unbounded_loop)
    {
        let reason = if t.in_unbounded_loop {
            format!(
                "transfer at pc {} sits in an unbounded loop; its per-call total \
                 has no derivable bound",
                t.pc
            )
        } else {
            format!(
                "opaque-payout: the amount transferred at pc {} has no derivable \
                 expression over calldata/storage",
                t.pc
            )
        };
        SafetyVerdict::Refused {
            pc: t.pc,
            witness: witness_to(t.block),
            reason,
        }
    } else {
        SafetyVerdict::Proved
    };

    // Verdict: NoUnauthorizedFlow.
    let no_unauthorized_flow = if let Some(t) = transfers.iter().find(|t| !t.guarded) {
        SafetyVerdict::Refused {
            pc: t.pc,
            witness: bfs_path(cfg, reachable, entry_block, t.block, &guarded_edges)
                .unwrap_or_else(|| vec![t.block]),
            reason: format!(
                "unguarded-transfer: a path reaches the transfer at pc {} without \
                 any caller guard",
                t.pc
            ),
        }
    } else {
        SafetyVerdict::Proved
    };

    // Diagnostics, one per offending site per cause.
    if let Some(l) = &leak {
        diags.push(Diagnostic {
            severity: Severity::Error,
            kind: DiagnosticKind::EscrowLeak,
            pc: l.pc,
            message: format!(
                "transfer can never pay: the balance is already fully drained by the \
                 transfer at pc {} (witness path: {})",
                l.drain_pc,
                render_path(&l.witness)
            ),
        });
    }
    for t in &transfers {
        if t.in_unbounded_loop {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagnosticKind::UnboundedOutflow,
                pc: t.pc,
                message: format!(
                    "transfer of {} repeats in a loop with no provable trip bound; \
                     total outflow is statically unbounded",
                    t.amount
                ),
            });
        } else if !t.amount.is_resolved() {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagnosticKind::OpaquePayout,
                pc: t.pc,
                message: "transfer amount has no derivable expression over \
                          calldata/storage; BoundedPayout cannot be proven"
                    .to_string(),
            });
        }
        if !t.guarded {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagnosticKind::UnguardedTransfer,
                pc: t.pc,
                message: format!(
                    "transfer of {} is reachable without any caller guard; \
                     NoUnauthorizedFlow cannot be proven",
                    t.amount
                ),
            });
        }
    }

    let report = SafetyReport {
        transfers,
        entry_points,
        leak,
        conserves_escrow,
        bounded_payout,
        no_unauthorized_flow,
    };
    count_verdicts(&report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::asm::assemble;

    fn run(src: &str) -> crate::analysis::Analysis {
        analyze(&assemble(src).expect("assembles")).expect("analyzes")
    }

    fn safety_kinds(a: &crate::analysis::Analysis) -> Vec<&'static str> {
        a.diagnostics
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DiagnosticKind::EscrowLeak
                        | DiagnosticKind::UnboundedOutflow
                        | DiagnosticKind::OpaquePayout
                        | DiagnosticKind::UnguardedTransfer
                )
            })
            .map(|d| d.kind.name())
            .collect()
    }

    #[test]
    fn transfer_free_program_is_trivially_proved() {
        let a = run("PUSH 1\nPUSH 0\nSSTORE\nSTOP\n");
        assert!(a.safety.conserves_escrow.is_proved());
        assert!(a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert!(a.safety.transfers.is_empty());
        assert!(a.safety.leak.is_none());
    }

    #[test]
    fn guarded_calldata_payout_is_fully_proved() {
        let a = run("CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             CALLER\nPUSH 32\nCALLDATALOAD\nTRANSFER\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        assert!(a.safety.conserves_escrow.is_proved());
        assert!(a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert_eq!(a.safety.transfers.len(), 1);
        let t = &a.safety.transfers[0];
        assert!(t.guarded);
        assert_eq!(t.amount, FlowExpr::Calldata(32));
        assert!(safety_kinds(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn unguarded_transfer_refuses_no_unauthorized_flow() {
        let a = run("PUSH 0\nCALLDATALOAD\nPUSH 5\nTRANSFER\nSTOP\n");
        assert!(a.safety.conserves_escrow.is_proved());
        assert!(a.safety.bounded_payout.is_proved());
        let SafetyVerdict::Refused { pc, witness, .. } = &a.safety.no_unauthorized_flow else {
            panic!("must refuse NoUnauthorizedFlow");
        };
        assert_eq!(*pc, 19, "TRANSFER after two 9-byte pushes + CALLDATALOAD");
        assert!(!witness.is_empty());
        assert_eq!(safety_kinds(&a), vec!["unguarded-transfer"]);
    }

    #[test]
    fn memory_amount_refuses_bounded_payout() {
        let a = run("CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             CALLER\nPUSH 0\nMLOAD\nTRANSFER\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        assert!(!a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert_eq!(safety_kinds(&a), vec!["opaque-payout"]);
    }

    #[test]
    fn transfer_in_unbounded_loop_refuses_conservation() {
        let a = run("CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             loop:\nCALLER\nPUSH 1\nTRANSFER\nPUSH 1\nPUSH @loop\nJUMPI\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        assert!(!a.safety.conserves_escrow.is_proved());
        assert!(!a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert!(safety_kinds(&a).contains(&"unbounded-outflow"));
        assert!(a.safety.leak.is_none(), "repetition is not a drain leak");
    }

    #[test]
    fn bounded_countdown_loop_with_transfer_is_proved() {
        let a = run(
            "CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\nPUSH 3\n\
             loop:\nCALLER\nPUSH 1\nTRANSFER\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n",
        );
        assert!(a.safety.conserves_escrow.is_proved(), "{:?}", a.safety);
        assert!(a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert!(safety_kinds(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn drain_then_pay_is_a_provable_leak() {
        let a = run("CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             CALLER\nSELFBALANCE\nTRANSFER\n\
             CALLER\nPUSH 32\nCALLDATALOAD\nTRANSFER\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        let leak = a.safety.leak.as_ref().expect("leak must be found");
        assert!(leak.pc > leak.drain_pc);
        assert!(!leak.witness.is_empty());
        assert!(!a.safety.conserves_escrow.is_proved());
        assert!(safety_kinds(&a).contains(&"escrow-leak"));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::EscrowLeak && d.severity == Severity::Error));
    }

    #[test]
    fn drain_as_last_flow_is_not_a_leak() {
        let a = run("CALLER\nPUSH 4\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             PUSH 0\nSLOAD\nSELFBALANCE\nTRANSFER\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        assert!(a.safety.leak.is_none());
        assert!(a.safety.conserves_escrow.is_proved());
        assert_eq!(a.safety.transfers.len(), 1);
        assert!(a.safety.transfers[0].drains);
        assert!(safety_kinds(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn stale_balance_read_does_not_prove_a_drain() {
        // The SELFBALANCE is read BEFORE the first transfer, so paying it
        // out after a 1-wei transfer is not provably a full drain — and
        // the follow-up transfer is not provably a leak.
        let a = run("CALLER\nPUSH 0\nSLOAD\nEQ\nISZERO\nPUSH @fail\nJUMPI\n\
             SELFBALANCE\nCALLER\nPUSH 1\nTRANSFER\nCALLER\nSWAP 1\nTRANSFER\n\
             CALLER\nPUSH 2\nTRANSFER\nSTOP\n\
             fail:\nPUSH 1\nREVERT\n");
        assert!(a.safety.leak.is_none(), "{:?}", a.safety.leak);
    }

    #[test]
    fn sra_escrow_contract_is_fully_proved() {
        let src = include_str!("../../../core/contracts/sra_escrow.scvm");
        let a = run(src);
        assert!(a.safety.conserves_escrow.is_proved(), "{:?}", a.safety);
        assert!(a.safety.bounded_payout.is_proved(), "{:?}", a.safety);
        assert!(a.safety.no_unauthorized_flow.is_proved(), "{:?}", a.safety);
        assert!(safety_kinds(&a).is_empty(), "{:?}", a.diagnostics);
        // The payout arm's derived bound is exactly mu * n (Eq. 7).
        let payout = a
            .safety
            .transfers
            .iter()
            .find(|t| !t.drains)
            .expect("payout transfer");
        assert_eq!(payout.amount.to_string(), "(storage[1] * calldata[64])");
        // The refund arm is the provable full-balance drain.
        assert!(a.safety.transfers.iter().any(|t| t.drains));
        // Dispatch recognition: payout = selector 1, refund = selector 2.
        let sels: Vec<u64> = a.safety.entry_points.iter().map(|e| e.selector).collect();
        assert!(sels.contains(&1) && sels.contains(&2) && sels.contains(&0));
    }

    #[test]
    fn report_registry_contract_is_trivially_proved() {
        let src = include_str!("../../../core/contracts/report_registry.scvm");
        let a = run(src);
        assert!(a.safety.transfers.is_empty());
        assert!(a.safety.conserves_escrow.is_proved());
        assert!(a.safety.bounded_payout.is_proved());
        assert!(a.safety.no_unauthorized_flow.is_proved());
        assert!(safety_kinds(&a).is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn flow_expr_display_is_stable() {
        let e = FlowExpr::bin(
            FlowOp::Mul,
            FlowExpr::Storage(U256::ONE),
            FlowExpr::Calldata(64),
        );
        assert_eq!(e.to_string(), "(storage[1] * calldata[64])");
        assert_eq!(FlowExpr::Top.to_string(), "unknown");
        assert_eq!(
            FlowExpr::bin(FlowOp::Min, FlowExpr::CallValue, FlowExpr::Caller).to_string(),
            "min(callvalue, caller)"
        );
    }

    #[test]
    fn expression_size_cap_degrades_to_top() {
        let mut e = FlowExpr::Calldata(0);
        for _ in 0..MAX_EXPR_SIZE {
            e = FlowExpr::bin(FlowOp::Add, e, FlowExpr::CallValue);
        }
        assert_eq!(e, FlowExpr::Top);
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(SafetyVerdict::Proved.label(), "proved");
        let refused = SafetyVerdict::Refused {
            pc: 7,
            witness: vec![0, 7],
            reason: "why".into(),
        };
        assert_eq!(refused.label(), "refused");
        assert!(refused.to_string().contains("pc 7"));
    }
}
