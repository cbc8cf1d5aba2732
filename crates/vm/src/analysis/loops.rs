//! Loop detection and trip-count bounding.
//!
//! Loops are the non-trivial strongly connected components of the
//! reachable CFG. For each one the analysis tries to prove a *trip bound*:
//! a finite cap on how many times execution can enter the loop header.
//! The proof strategy is counter-pattern recognition:
//!
//! 1. Require the loop to be a **simple cycle**: every member block has
//!    exactly one in-loop successor, only the header is entered from
//!    outside, and no member exits through a dynamic jump. Anything else
//!    (nested loops, irreducible regions) is conservatively
//!    [`LoopBound::Unbounded`].
//! 2. **Symbolically execute one iteration** around the cycle, on the
//!    analyzers' shared abstract machine. Stack slots and statically-keyed
//!    storage slots at the header are the symbolic *cells*; the walk
//!    tracks each value as `cell + constant` where it can, `⊤` where it
//!    cannot.
//! 3. Every conditional exit contributes a **guard**: the symbolic
//!    condition plus which edge stays in the loop. If some guard matches a
//!    counter pattern — a cell that moves by a constant step per iteration
//!    toward a constant limit, with wrap-around provably excluded — the
//!    initial interval of that cell (taken from the value-range analysis
//!    on the *loop-entry* edges, before any widening inside the loop)
//!    yields a trip count.
//! 4. The loop's bound is the smallest bound any guard proves, clamped by
//!    the interpreter's [`STEP_LIMIT`]: a loop that can out-iterate the
//!    runtime's own ceiling has no meaningful bound and is reported as
//!    unbounded, which is the trip-count domain's widening step.
//!
//! Soundness: the bound counts *header entries*, and the gas accounting
//! charges every entry a full cycle, so the final partial iteration is
//! over- rather than under-charged.

use crate::analysis::cfg::{Cfg, Exit};
use crate::analysis::depth::DepthInterval;
use crate::analysis::engine::Domain;
use crate::analysis::lattice::{Interval, Lattice};
use crate::analysis::machine::{Machine, Value};
use crate::analysis::range::{RangeDomain, RangeState};
use crate::exec::STEP_LIMIT;
use crate::isa::Op;
use smartcrowd_crypto::U256;
use std::collections::{BTreeMap, BTreeSet};

/// The verdict for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopBound {
    /// Execution enters the header at most `trips` times.
    Bounded {
        /// Maximum number of header entries.
        trips: u64,
    },
    /// No finite bound could be proven.
    Unbounded {
        /// A block inside the loop, for diagnostics.
        witness_block: usize,
    },
}

/// One detected loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// The loop's single entry block (or its smallest block when the
    /// entry structure is irregular).
    pub header: usize,
    /// All member blocks, by code offset.
    pub blocks: BTreeSet<usize>,
    /// The proven bound, or the reason there is none.
    pub bound: LoopBound,
}

/// SCC decomposition plus the per-loop verdicts.
#[derive(Debug)]
pub(crate) struct LoopAnalysis {
    /// Strongly connected components of the reachable CFG, in reverse
    /// topological order of the condensation (every component precedes
    /// the components that can reach it).
    pub components: Vec<Vec<usize>>,
    /// Maps each reachable block to its index in `components`.
    pub component_of: BTreeMap<usize, usize>,
    /// The non-trivial components, with trip-count verdicts.
    pub loops: Vec<LoopInfo>,
}

/// A symbolic cell: a storage slot or a stack slot identified by its
/// depth below the top at the loop header.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CellId {
    /// Stack slot `d` positions below the top on header entry.
    Stack(usize),
    /// Storage slot with this statically-known key.
    Storage(U256),
}

#[derive(Debug, Clone, PartialEq)]
enum CmpOp {
    Lt,
    Gt,
    Eq,
}

/// A symbolic value tracked through one loop iteration.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    Const(U256),
    /// `initial value of cell + delta` (mod 2^256).
    Cell {
        id: CellId,
        delta: i128,
    },
    IsZero(Box<Sym>),
    Cmp {
        op: CmpOp,
        lhs: Box<Sym>,
        rhs: Box<Sym>,
    },
    Top,
}

/// Folds `delta ± c` when the constant is small enough to keep the offset
/// in `i128` without overflow risk.
fn small(c: &U256) -> Option<i128> {
    (c.bits() <= 63).then(|| c.low_u64() as i128)
}

impl Value for Sym {
    const TOP: Sym = Sym::Top;
    const CLOBBER_IS_FINAL: bool = true;

    fn constant(c: U256) -> Sym {
        Sym::Const(c)
    }

    fn as_const(&self) -> Option<U256> {
        match self {
            Sym::Const(c) => Some(*c),
            _ => None,
        }
    }

    fn at_entry(key: U256) -> Sym {
        Sym::Cell {
            id: CellId::Storage(key),
            delta: 0,
        }
    }

    fn eval(op: Op, [lhs, rhs]: [Sym; 2]) -> Sym {
        let cmp = |op: CmpOp, lhs: Sym, rhs: Sym| Sym::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        };
        match (op, lhs, rhs) {
            (Op::Add, Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_add(&b)),
            (Op::Sub, Sym::Const(a), Sym::Const(b)) => Sym::Const(a.wrapping_sub(&b)),
            (Op::Add, Sym::Cell { id, delta }, Sym::Const(c))
            | (Op::Add, Sym::Const(c), Sym::Cell { id, delta }) => {
                small(&c).map_or(Sym::Top, |c| Sym::Cell {
                    id,
                    delta: delta + c,
                })
            }
            (Op::Sub, Sym::Cell { id, delta }, Sym::Const(c)) => {
                small(&c).map_or(Sym::Top, |c| Sym::Cell {
                    id,
                    delta: delta - c,
                })
            }
            (Op::Lt, lhs, rhs) => cmp(CmpOp::Lt, lhs, rhs),
            (Op::Gt, lhs, rhs) => cmp(CmpOp::Gt, lhs, rhs),
            (Op::Eq, lhs, rhs) => cmp(CmpOp::Eq, lhs, rhs),
            (Op::IsZero, _, Sym::Const(c)) => {
                Sym::Const(if c.is_zero() { U256::ONE } else { U256::ZERO })
            }
            (Op::IsZero, _, v) => Sym::IsZero(Box::new(v)),
            _ => Sym::Top,
        }
    }
}

/// A loop-exit condition: the symbolic test plus the polarity that keeps
/// execution inside the loop.
enum Stay {
    /// Stays while the value is nonzero.
    Truthy(Sym),
    /// Stays while the value is zero.
    Falsy(Sym),
}

/// `v0 + dg`, refusing to wrap.
fn offset(v: &U256, dg: i128) -> Option<U256> {
    if dg >= 0 {
        v.checked_add(&U256::from_u128(dg.unsigned_abs()))
    } else {
        let m = U256::from_u128(dg.unsigned_abs());
        (*v >= m).then(|| v.wrapping_sub(&m))
    }
}

/// What one guard proves about the loop.
enum GuardVerdict {
    /// The loop runs at most this many header entries.
    Exits(U256),
    /// This guard can never fire; other guards may still bound the loop.
    NeverExits,
    /// Nothing provable from this guard.
    Unknown,
}

/// Analyzes one guard. `delta_of(id)` is the cell's per-iteration step
/// (None when the cell is not an induction variable), `init(id)` its
/// interval on loop entry.
fn guard_bound(
    stay: Stay,
    delta_of: &dyn Fn(&CellId) -> Option<i128>,
    init: &dyn Fn(&CellId) -> Interval,
) -> GuardVerdict {
    // Peel IsZero wrappers by flipping polarity.
    let mut stay = stay;
    let stay = loop {
        stay = match stay {
            Stay::Truthy(Sym::IsZero(inner)) => Stay::Falsy(*inner),
            Stay::Falsy(Sym::IsZero(inner)) => Stay::Truthy(*inner),
            other => break other,
        };
    };

    // The first-check interval of a cell as seen by this guard.
    let first = |id: &CellId, dg: i128| -> Option<(U256, U256)> {
        let v0 = init(id);
        Some((offset(&v0.lo, dg)?, offset(&v0.hi, dg)?))
    };
    let to_exits = |trips: U256| -> GuardVerdict {
        if trips.bits() <= 64 {
            GuardVerdict::Exits(trips)
        } else {
            GuardVerdict::Unknown
        }
    };
    let ceil_div = |num: U256, den: &U256| -> U256 {
        let (q, r) = num.div_rem(den);
        if r.is_zero() {
            q
        } else {
            q.wrapping_add(&U256::ONE)
        }
    };

    // Stays while `cell + dg < limit`; counter must step upward.
    let count_up = |id: &CellId, dg: i128, limit: U256| -> GuardVerdict {
        let Some(delta) = delta_of(id) else {
            return GuardVerdict::Unknown;
        };
        if delta < 1 {
            return GuardVerdict::Unknown;
        }
        let step = U256::from_u128(delta.unsigned_abs());
        // After crossing the limit the guard must fail before the counter
        // can wrap back below it.
        if limit.checked_add(&step).is_none() {
            return GuardVerdict::Unknown;
        }
        let Some((g_lo, _)) = first(id, dg) else {
            return GuardVerdict::Unknown;
        };
        if g_lo >= limit {
            return GuardVerdict::Exits(U256::ONE);
        }
        let passes = ceil_div(limit.wrapping_sub(&g_lo), &step);
        to_exits(passes.wrapping_add(&U256::ONE))
    };

    // Stays while `cell + dg > limit`; counter must step downward and the
    // step may not leap from above the limit past zero.
    let count_down = |id: &CellId, dg: i128, limit: U256| -> GuardVerdict {
        let Some(delta) = delta_of(id) else {
            return GuardVerdict::Unknown;
        };
        if delta > -1 {
            return GuardVerdict::Unknown;
        }
        let step = U256::from_u128(delta.unsigned_abs());
        let no_skip = limit == U256::MAX || step <= limit.wrapping_add(&U256::ONE);
        if !no_skip {
            return GuardVerdict::Unknown;
        }
        let Some((_, g_hi)) = first(id, dg) else {
            return GuardVerdict::Unknown;
        };
        if g_hi <= limit {
            return GuardVerdict::Exits(U256::ONE);
        }
        let passes = ceil_div(g_hi.wrapping_sub(&limit), &step);
        to_exits(passes.wrapping_add(&U256::ONE))
    };

    // Stays while `cell + dg != limit`; only unit steps approach the limit
    // without a wrap-around excursion.
    let not_equal = |id: &CellId, dg: i128, limit: U256| -> GuardVerdict {
        match delta_of(id) {
            Some(-1) => {
                let Some((g_lo, g_hi)) = first(id, dg) else {
                    return GuardVerdict::Unknown;
                };
                if g_lo < limit {
                    return GuardVerdict::Unknown; // starts below: wraps first
                }
                to_exits(g_hi.wrapping_sub(&limit).wrapping_add(&U256::ONE))
            }
            Some(1) => {
                let Some((g_lo, g_hi)) = first(id, dg) else {
                    return GuardVerdict::Unknown;
                };
                if g_hi > limit {
                    return GuardVerdict::Unknown; // starts above: wraps first
                }
                to_exits(limit.wrapping_sub(&g_lo).wrapping_add(&U256::ONE))
            }
            _ => GuardVerdict::Unknown,
        }
    };

    match stay {
        Stay::Truthy(Sym::Const(c)) => {
            if c.is_zero() {
                GuardVerdict::Exits(U256::ONE)
            } else {
                GuardVerdict::NeverExits
            }
        }
        Stay::Falsy(Sym::Const(c)) => {
            if c.is_zero() {
                GuardVerdict::NeverExits
            } else {
                GuardVerdict::Exits(U256::ONE)
            }
        }
        // Stays while `cell + dg != 0`: a unit countdown hits zero.
        Stay::Truthy(Sym::Cell { id, delta: dg }) => not_equal(&id, dg, U256::ZERO),
        // Stays while `cell + dg == 0`: any moving counter leaves at once.
        Stay::Falsy(Sym::Cell { id, delta: _ }) => match delta_of(&id) {
            Some(d) if d != 0 => GuardVerdict::Exits(U256::from_u64(2)),
            _ => GuardVerdict::Unknown,
        },
        Stay::Truthy(Sym::Cmp { op, lhs, rhs }) => match (op, *lhs, *rhs) {
            (CmpOp::Lt, Sym::Cell { id, delta: dg }, Sym::Const(c)) => count_up(&id, dg, c),
            (CmpOp::Lt, Sym::Const(c), Sym::Cell { id, delta: dg }) => count_down(&id, dg, c),
            (CmpOp::Gt, Sym::Cell { id, delta: dg }, Sym::Const(c)) => count_down(&id, dg, c),
            (CmpOp::Gt, Sym::Const(c), Sym::Cell { id, delta: dg }) => count_up(&id, dg, c),
            (CmpOp::Eq, Sym::Cell { id, delta: _ }, Sym::Const(_))
            | (CmpOp::Eq, Sym::Const(_), Sym::Cell { id, delta: _ }) => match delta_of(&id) {
                // The counter moves every iteration, so equality holds at
                // most once in a row: the second check exits.
                Some(d) if d != 0 => GuardVerdict::Exits(U256::from_u64(2)),
                _ => GuardVerdict::Unknown,
            },
            _ => GuardVerdict::Unknown,
        },
        Stay::Falsy(Sym::Cmp { op, lhs, rhs }) => match (op, *lhs, *rhs) {
            // !(a < b) == a >= b == a > b-1 (for b >= 1; b == 0 never exits).
            (CmpOp::Lt, Sym::Cell { id, delta: dg }, Sym::Const(c)) => {
                if c.is_zero() {
                    GuardVerdict::NeverExits
                } else {
                    count_down(&id, dg, c.wrapping_sub(&U256::ONE))
                }
            }
            // !(c < cell) == cell <= c == cell < c+1 (c == MAX never exits).
            (CmpOp::Lt, Sym::Const(c), Sym::Cell { id, delta: dg }) => {
                if c == U256::MAX {
                    GuardVerdict::NeverExits
                } else {
                    count_up(&id, dg, c.wrapping_add(&U256::ONE))
                }
            }
            // !(cell > c) == cell <= c == cell < c+1.
            (CmpOp::Gt, Sym::Cell { id, delta: dg }, Sym::Const(c)) => {
                if c == U256::MAX {
                    GuardVerdict::NeverExits
                } else {
                    count_up(&id, dg, c.wrapping_add(&U256::ONE))
                }
            }
            // !(c > cell) == cell >= c == cell > c-1.
            (CmpOp::Gt, Sym::Const(c), Sym::Cell { id, delta: dg }) => {
                if c.is_zero() {
                    GuardVerdict::NeverExits
                } else {
                    count_down(&id, dg, c.wrapping_sub(&U256::ONE))
                }
            }
            (CmpOp::Eq, Sym::Cell { id, delta: dg }, Sym::Const(c))
            | (CmpOp::Eq, Sym::Const(c), Sym::Cell { id, delta: dg }) => not_equal(&id, dg, c),
            _ => GuardVerdict::Unknown,
        },
        _ => GuardVerdict::Unknown,
    }
}

/// Tarjan's strongly-connected-components algorithm (iterative).
fn tarjan(cfg: &Cfg, reachable: &BTreeSet<usize>) -> (Vec<Vec<usize>>, BTreeMap<usize, usize>) {
    struct Frame {
        node: usize,
        succ_idx: usize,
    }
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut lowlink: BTreeMap<usize, usize> = BTreeMap::new();
    let mut on_stack: BTreeSet<usize> = BTreeSet::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut component_of: BTreeMap<usize, usize> = BTreeMap::new();
    let succs: BTreeMap<usize, Vec<usize>> = reachable
        .iter()
        .map(|&b| {
            (
                b,
                cfg.successors(b)
                    .into_iter()
                    .filter(|s| reachable.contains(s))
                    .collect(),
            )
        })
        .collect();

    for &root in reachable {
        if index.contains_key(&root) {
            continue;
        }
        let mut frames = vec![Frame {
            node: root,
            succ_idx: 0,
        }];
        index.insert(root, next_index);
        lowlink.insert(root, next_index);
        next_index += 1;
        stack.push(root);
        on_stack.insert(root);
        while let Some(frame) = frames.last_mut() {
            let node = frame.node;
            if let Some(&succ) = succs[&node].get(frame.succ_idx) {
                frame.succ_idx += 1;
                if let std::collections::btree_map::Entry::Vacant(e) = index.entry(succ) {
                    e.insert(next_index);
                    lowlink.insert(succ, next_index);
                    next_index += 1;
                    stack.push(succ);
                    on_stack.insert(succ);
                    frames.push(Frame {
                        node: succ,
                        succ_idx: 0,
                    });
                } else if on_stack.contains(&succ) {
                    let low = lowlink[&node].min(index[&succ]);
                    lowlink.insert(node, low);
                }
            } else {
                if lowlink[&node] == index[&node] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack.remove(&w);
                        comp.push(w);
                        if w == node {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    let id = components.len();
                    for &w in &comp {
                        component_of.insert(w, id);
                    }
                    components.push(comp);
                }
                frames.pop();
                if let Some(parent) = frames.last() {
                    let low = lowlink[&parent.node].min(lowlink[&node]);
                    lowlink.insert(parent.node, low);
                }
            }
        }
    }
    (components, component_of)
}

/// Tries to prove a trip bound for the loop made of `members`.
#[allow(clippy::too_many_lines)]
fn bound_loop(
    cfg: &Cfg,
    members: &BTreeSet<usize>,
    header: usize,
    depth: &BTreeMap<usize, DepthInterval>,
    ranges: &BTreeMap<usize, RangeState>,
    preds: &BTreeMap<usize, Vec<usize>>,
) -> LoopBound {
    let unbounded = LoopBound::Unbounded {
        witness_block: header,
    };

    // Stack cells need a fixed header depth to have stable identities.
    let Some(hdepth) = depth.get(&header) else {
        return unbounded;
    };
    if hdepth.lo != hdepth.hi {
        return unbounded;
    }

    // Simple-cycle check: one in-loop successor per member, no dynamic
    // exits, and no member but the header entered from outside.
    for &b in members {
        let Some(block) = cfg.block(b) else {
            return unbounded;
        };
        if matches!(block.exit, Exit::DynamicJump | Exit::DynamicBranch { .. }) {
            return unbounded;
        }
        let inside: Vec<usize> = cfg
            .successors(b)
            .into_iter()
            .filter(|s| members.contains(s))
            .collect();
        if inside.len() != 1 {
            return unbounded;
        }
        if b != header
            && preds
                .get(&b)
                .is_some_and(|ps| ps.iter().any(|p| !members.contains(p)))
        {
            return unbounded;
        }
    }

    // Loop-entry value state: join of the range states flowing into the
    // header from outside the loop (the preheader edges), plus the
    // program's initial state when the header is the entry block. This is
    // the *initial* counter interval, untouched by in-loop widening.
    let domain = RangeDomain;
    let mut entry_state: Option<RangeState> = None;
    let mut fold = |s: RangeState| {
        entry_state = Some(match entry_state.take() {
            None => s,
            Some(prev) => prev.join(&s),
        });
    };
    if header == cfg.entry() {
        fold(domain.entry_state(cfg));
    }
    if let Some(ps) = preds.get(&header) {
        for p in ps.iter().filter(|p| !members.contains(p)) {
            let Some(pstate) = ranges.get(p) else {
                return unbounded;
            };
            match domain.transfer(cfg, *p, pstate) {
                Ok(exit) => fold(exit),
                Err(_) => return unbounded,
            }
        }
    }
    let Some(entry_state) = entry_state else {
        return unbounded;
    };
    let init = |id: &CellId| -> Interval {
        match id {
            CellId::Stack(d) => entry_state.peek(*d),
            CellId::Storage(k) => entry_state.sload(k),
        }
    };

    // Symbolic one-iteration walk around the cycle, collecting guards.
    let hdepth = hdepth.lo;
    let mut sym = Machine::new();
    sym.stack = (0..hdepth)
        .map(|j| Sym::Cell {
            id: CellId::Stack(hdepth - 1 - j),
            delta: 0,
        })
        .collect();
    let mut guards: Vec<Stay> = Vec::new();
    let mut current = header;
    for _ in 0..members.len() {
        for insn in cfg.block_insns(current) {
            if insn.op == Op::JumpI {
                // JUMPI pops the destination (top) then the condition.
                let cond = sym.peek(1);
                let Some(block) = cfg.block(current) else {
                    return unbounded;
                };
                match &block.exit {
                    Exit::StaticBranch { dest, fallthrough } => {
                        let dest_in = members.contains(dest);
                        let ft_in = members.contains(fallthrough);
                        match (dest_in, ft_in) {
                            (true, false) => guards.push(Stay::Truthy(cond)),
                            (false, true) => guards.push(Stay::Falsy(cond)),
                            // Both edges stay inside: contradicts the
                            // one-in-loop-successor check above.
                            _ => return unbounded,
                        }
                    }
                    // JUMPI at the end of code: the false edge halts, so
                    // staying requires the condition to hold.
                    Exit::StaticJump(dest) if members.contains(dest) => {
                        guards.push(Stay::Truthy(cond));
                    }
                    _ => {}
                }
            }
            sym.step(insn);
        }
        let next = cfg
            .successors(current)
            .into_iter()
            .find(|s| members.contains(s));
        match next {
            Some(n) => current = n,
            None => return unbounded,
        }
        if current == header {
            break;
        }
    }
    if current != header || sym.stack.len() != hdepth {
        return unbounded;
    }

    // Per-iteration step of each cell, read off the end-of-cycle state.
    let delta_of = |id: &CellId| -> Option<i128> {
        let end = match id {
            CellId::Stack(d) => sym.peek(*d),
            CellId::Storage(k) => sym.sload(k),
        };
        match end {
            Sym::Cell { id: end_id, delta } if end_id == *id => Some(delta),
            _ => None,
        }
    };

    let mut best: Option<u64> = None;
    for stay in guards {
        if let GuardVerdict::Exits(trips) = guard_bound(stay, &delta_of, &init) {
            let t = trips.low_u64();
            best = Some(best.map_or(t, |b| b.min(t)));
        }
    }
    match best {
        Some(trips) if trips <= STEP_LIMIT => LoopBound::Bounded { trips },
        _ => unbounded,
    }
}

/// Detects loops among `reachable` blocks and bounds each one.
pub(crate) fn analyze_loops(
    cfg: &Cfg,
    reachable: &BTreeSet<usize>,
    depth: &BTreeMap<usize, DepthInterval>,
    ranges: &BTreeMap<usize, RangeState>,
) -> LoopAnalysis {
    let (components, component_of) = tarjan(cfg, reachable);

    let mut preds: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &b in reachable {
        for s in cfg.successors(b) {
            preds.entry(s).or_default().push(b);
        }
    }

    let mut loops = Vec::new();
    for comp in &components {
        let is_loop = comp.len() > 1
            || comp
                .first()
                .is_some_and(|&b| cfg.successors(b).contains(&b));
        if !is_loop {
            continue;
        }
        let members: BTreeSet<usize> = comp.iter().copied().collect();
        // The header is the unique member entered from outside (falling
        // back to the smallest member for entry-block loops and irregular
        // regions, where `bound_loop` re-checks entry structure).
        let header = members
            .iter()
            .copied()
            .find(|&b| {
                b == cfg.entry()
                    || preds
                        .get(&b)
                        .is_some_and(|ps| ps.iter().any(|p| !members.contains(p)))
            })
            .unwrap_or_else(|| comp[0]);
        let bound = bound_loop(cfg, &members, header, depth, ranges, &preds);
        loops.push(LoopInfo {
            header,
            blocks: members,
            bound,
        });
    }

    LoopAnalysis {
        components,
        component_of,
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::depth::analyze_depth;
    use crate::analysis::range::analyze_ranges;
    use crate::asm::assemble;

    fn loops_of(src: &str) -> LoopAnalysis {
        let cfg = Cfg::build(&assemble(src).expect("assembles")).expect("builds");
        let depth = analyze_depth(&cfg).expect("depth verifies");
        let reachable: BTreeSet<usize> = depth.entry.keys().copied().collect();
        let ranges = analyze_ranges(&cfg).expect("ranges");
        analyze_loops(&cfg, &reachable, &depth.entry, &ranges)
    }

    #[test]
    fn acyclic_program_has_no_loops() {
        let l = loops_of("PUSH 1\nPUSH 2\nADD\nRETURNVAL\n");
        assert!(l.loops.is_empty());
    }

    #[test]
    fn countdown_loop_is_bounded() {
        // The ISSUE's canonical example: PUSH 10, decrement, JUMPI while
        // nonzero. Ten header entries.
        let l = loops_of("PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n");
        assert_eq!(l.loops.len(), 1);
        assert_eq!(l.loops[0].bound, LoopBound::Bounded { trips: 10 });
    }

    #[test]
    fn infinite_loop_is_unbounded_with_witness() {
        let l = loops_of("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n");
        assert_eq!(l.loops.len(), 1);
        assert!(matches!(
            l.loops[0].bound,
            LoopBound::Unbounded { witness_block: 0 }
        ));
    }

    #[test]
    fn storage_counter_loop_is_bounded() {
        // Slot 0 counts down from 5; the guard reloads it each iteration.
        let l = loops_of(
            "PUSH 5\nPUSH 0\nSSTORE\n\
             loop:\nJUMPDEST\n\
             PUSH 0\nSLOAD\nPUSH 1\nSUB\nPUSH 0\nSSTORE\n\
             PUSH 0\nSLOAD\nPUSH @loop\nJUMPI\nSTOP\n",
        );
        assert_eq!(l.loops.len(), 1);
        assert!(
            matches!(l.loops[0].bound, LoopBound::Bounded { trips } if (5..=6).contains(&trips)),
            "{:?}",
            l.loops[0].bound
        );
    }

    #[test]
    fn count_up_lt_loop_is_bounded() {
        // i starts at 0, increments, stays while i < 7.
        let l = loops_of(
            "PUSH 0\nloop:\nJUMPDEST\nPUSH 1\nADD\nDUP 0\nPUSH 7\nLT\nPUSH @loop\nJUMPI\nSTOP\n",
        );
        assert_eq!(l.loops.len(), 1);
        assert!(
            matches!(l.loops[0].bound, LoopBound::Bounded { trips } if trips <= 8),
            "{:?}",
            l.loops[0].bound
        );
    }

    #[test]
    fn unknown_initial_value_is_unbounded() {
        // Counter comes from calldata: no initial interval, no bound.
        let l = loops_of(
            "PUSH 0\nCALLDATALOAD\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n",
        );
        assert_eq!(l.loops.len(), 1);
        assert!(matches!(l.loops[0].bound, LoopBound::Unbounded { .. }));
    }

    #[test]
    fn clobber_hides_later_storage_writes() {
        // After a store through a calldata key the walk reads every slot
        // as unknown, slot 5 included although it is written since, so
        // the guard reloading the counter from it proves nothing.
        let l = loops_of(
            "PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nPUSH 0\nCALLDATALOAD\nSSTORE\n\
             PUSH 1\nSUB\nDUP 0\nPUSH 5\nSSTORE\nPUSH 5\nSLOAD\nPUSH @loop\nJUMPI\nSTOP\n",
        );
        assert_eq!(l.loops.len(), 1);
        assert!(matches!(l.loops[0].bound, LoopBound::Unbounded { .. }));
    }

    #[test]
    fn trip_cap_widens_to_unbounded() {
        let countdown = |n: u64| {
            loops_of(&format!(
                "PUSH {n}\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n"
            ))
            .loops[0]
                .bound
                .clone()
        };
        assert_eq!(
            countdown(STEP_LIMIT),
            LoopBound::Bounded { trips: STEP_LIMIT }
        );
        assert!(
            matches!(countdown(STEP_LIMIT + 1), LoopBound::Unbounded { .. }),
            "a bound past the step limit widens"
        );
    }
}
