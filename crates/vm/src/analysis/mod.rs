//! Static analysis of SCVM bytecode: the deploy gate's proofs and
//! `scvm-lint`'s findings.
//!
//! [`analyze`] decodes the code into a basic-block CFG ([`mod@cfg`]) and
//! runs on it, through the worklist fixpoint [`engine`] and its
//! [`lattice`] interface:
//!
//! 1. the **stack-depth** domain ([`depth`]), which rejects provable stack
//!    faults and `SWAP 0`;
//! 2. the **value-range** domain ([`range`]): provable div-by-zero and
//!    out-of-bounds memory diagnostics and the [`StorageSummary`];
//! 3. the **loop trip-count** analysis ([`loops`]), whose bounds price
//!    the loop-aware [`GasVerdict`] (`gasbound`);
//! 4. the **balance-flow** domain ([`safety`]): a symbolic amount per
//!    `TRANSFER` and the verdicts `ConservesEscrow`, `BoundedPayout` and
//!    `NoUnauthorizedFlow`, each refusal with a CFG witness path.
//!
//! Domains 2–4 are value algebras over one abstract operand stack and
//! statically-keyed storage (the private `machine` module, whose docs give
//! the shared rules and each domain's few differences). Per-opcode stack
//! effects and `DUP`/`SWAP` reach are `cfg::stack_effect` and its
//! neighbour. Findings come back ranked as [`Diagnostic`]s; the deploy
//! gate ([`crate::verify`]) is this pipeline plus one rejection, a
//! provable escrow leak.

pub mod cfg;
pub mod depth;
pub mod diagnostics;
pub mod engine;
pub(crate) mod gasbound;
pub mod lattice;
pub mod loops;
mod machine;
pub mod range;
pub mod safety;

pub use cfg::Cfg;
pub use diagnostics::{Diagnostic, DiagnosticKind, Severity};
pub use gasbound::GasVerdict;
pub use loops::{LoopBound, LoopInfo};
pub use range::StorageSummary;
pub use safety::{EntryPoint, FlowExpr, LeakWitness, SafetyReport, SafetyVerdict, TransferSite};

use crate::error::VmError;
use std::collections::BTreeSet;

/// Everything the framework can prove about one program.
#[derive(Debug)]
pub struct Analysis {
    /// The control-flow graph the analyses ran on.
    pub cfg: Cfg,
    /// Entry stack-depth intervals per reachable block.
    pub depth: std::collections::BTreeMap<usize, depth::DepthInterval>,
    /// The highest operand-stack depth any execution path can reach.
    pub max_stack_depth: usize,
    /// Value-range fixpoint per reachable block.
    pub ranges: std::collections::BTreeMap<usize, range::RangeState>,
    /// Detected loops with trip-count verdicts.
    pub loops: Vec<LoopInfo>,
    /// The loop-aware worst-case gas verdict.
    pub gas: GasVerdict,
    /// Which storage slots the program may read/write.
    pub storage: StorageSummary,
    /// Balance-flow safety verdicts with per-transfer summaries.
    pub safety: SafetyReport,
    /// Offsets of blocks reachable from the entry point.
    pub reachable: BTreeSet<usize>,
    /// Offsets of unreachable (dead-code) blocks.
    pub unreachable: Vec<usize>,
    /// All findings, ranked most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the full analysis pipeline over `code`.
///
/// # Errors
///
/// Returns [`VmError::InvalidOpcode`] / [`VmError::TruncatedImmediate`]
/// for undecodable streams and [`VmError::Verify`] for provable stack
/// faults, bad static jumps, target-less dynamic jumps, and `SWAP 0`.
/// Diagnostics (dead code, div-by-zero, out-of-bounds memory, unbounded
/// loops, economic-safety findings) never reject here; they are reported
/// in [`Analysis::diagnostics`]. The deploy gate additionally turns a
/// provable [`SafetyReport::leak`] into a rejection — see
/// [`crate::verify`].
pub fn analyze(code: &[u8]) -> Result<Analysis, VmError> {
    let cfg = Cfg::build(code)?;
    let depth_result = depth::analyze_depth(&cfg)?;
    let reachable: BTreeSet<usize> = depth_result.entry.keys().copied().collect();
    let unreachable: Vec<usize> = cfg
        .block_starts()
        .filter(|b| !reachable.contains(b))
        .collect();

    let ranges = range::analyze_ranges(&cfg)?;
    let (mut diags, storage) = range::scan(&cfg, &ranges);

    let loop_analysis = loops::analyze_loops(&cfg, &reachable, &depth_result.entry, &ranges);
    let gas = gasbound::gas_verdict(&cfg, &reachable, &loop_analysis);
    let safety = safety::analyze_safety(&cfg, &reachable, &loop_analysis, &mut diags)?;

    for &b in &unreachable {
        diags.push(Diagnostic {
            severity: Severity::Info,
            kind: DiagnosticKind::UnreachableBlock,
            pc: b,
            message: format!("block at offset {b} is unreachable dead code"),
        });
    }
    for l in &loop_analysis.loops {
        match l.bound {
            LoopBound::Bounded { trips } => diags.push(Diagnostic {
                severity: Severity::Info,
                kind: DiagnosticKind::LoopBound,
                pc: l.header,
                message: format!(
                    "loop at offset {} runs at most {trips} iterations",
                    l.header
                ),
            }),
            LoopBound::Unbounded { witness_block } => diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagnosticKind::UnboundedLoop,
                pc: witness_block,
                message: format!(
                    "loop at offset {witness_block} has no provable iteration bound; \
                     worst-case gas is unbounded"
                ),
            }),
        }
    }
    diagnostics::rank(&mut diags);

    Ok(Analysis {
        cfg,
        depth: depth_result.entry,
        max_stack_depth: depth_result.max_depth,
        ranges,
        loops: loop_analysis.loops,
        gas,
        storage,
        safety,
        reachable,
        unreachable,
        diagnostics: diags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Analysis {
        analyze(&assemble(src).expect("assembles")).expect("analyzes")
    }

    #[test]
    fn empty_program_is_trivially_bounded() {
        let a = analyze(&[]).expect("empty ok");
        assert_eq!(a.gas, GasVerdict::Bounded(0));
        assert!(a.diagnostics.is_empty());
    }

    #[test]
    fn bounded_loop_yields_finite_verdict_and_info_diag() {
        let a = run("PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n");
        assert!(a.gas.is_bounded(), "{}", a.gas);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::LoopBound));
    }

    #[test]
    fn unbounded_loop_yields_warning() {
        let a = run("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n");
        assert!(matches!(a.gas, GasVerdict::Unbounded { witness_block: 0 }));
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnboundedLoop && d.severity == Severity::Warning));
    }

    #[test]
    fn dead_code_gets_info_diagnostic() {
        let a = run("PUSH @end\nJUMP\nPUSH 1\nPOP\nend:\nSTOP\n");
        assert_eq!(a.unreachable, vec![10]);
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagnosticKind::UnreachableBlock && d.pc == 10));
    }

    #[test]
    fn diagnostics_are_ranked_most_severe_first() {
        // OOB memory (Error) + unbounded loop (Warning) + dead code (Info).
        let oob = (crate::exec::MEMORY_LIMIT as u64) + 1;
        let a = run(&format!(
            "PUSH {oob}\nMLOAD\nPOP\n\
             loop:\nJUMPDEST\nPUSH 1\nPUSH @loop\nJUMPI\n\
             PUSH 1\nPOP\nSTOP\n"
        ));
        let sevs: Vec<Severity> = a.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort();
        assert_eq!(sevs, sorted, "{:?}", a.diagnostics);
        assert!(sevs.first() == Some(&Severity::Error));
    }
}
