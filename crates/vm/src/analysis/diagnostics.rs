//! Ranked analysis diagnostics, renderable with assembler source spans.
//!
//! Every analysis pass reports findings as [`Diagnostic`]s; `scvm-lint`
//! renders them with line/column spans from the assembler's
//! [`SourceMap`]. Of them, the deploy gate ([`crate::verify`]) rejects
//! only a provable escrow leak.

use crate::asm::SourceMap;

/// How bad a finding is. Declaration order is rank order: sorting
/// ascending puts the most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A provable runtime fault on some reachable path.
    Error,
    /// Almost certainly a bug, but the VM tolerates it (e.g. `DIV` by a
    /// provable zero yields 0 instead of faulting).
    Warning,
    /// Advisory: wasted deploy gas or useful facts (loop bounds).
    Info,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// What kind of finding a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// A basic block no path from the entry can reach.
    UnreachableBlock,
    /// A `DIV`/`MOD` whose divisor is provably zero.
    DivByZero,
    /// A memory access provably past `MEMORY_LIMIT` — a guaranteed fault.
    OobMemory,
    /// A loop with no provable iteration bound.
    UnboundedLoop,
    /// A loop with a proven trip-count bound (advisory).
    LoopBound,
    /// A transfer sequenced after a provable full-balance drain — it can
    /// never pay a positive amount; the deploy gate rejects these.
    EscrowLeak,
    /// A transfer inside a loop with no provable trip bound, so the
    /// total outflow has no static sum.
    UnboundedOutflow,
    /// A transfer whose amount has no derivable symbolic expression, so
    /// `BoundedPayout` cannot be proven.
    OpaquePayout,
    /// A transfer reachable on some path without any caller guard, so
    /// `NoUnauthorizedFlow` cannot be proven.
    UnguardedTransfer,
}

impl DiagnosticKind {
    /// Stable kebab-case name — the machine-readable identifier used by
    /// `scvm-lint --json` and the fuzzer's telemetry labels. Renaming a
    /// variant must not change these strings.
    pub fn name(&self) -> &'static str {
        match self {
            DiagnosticKind::UnreachableBlock => "unreachable-block",
            DiagnosticKind::DivByZero => "div-by-zero",
            DiagnosticKind::OobMemory => "oob-memory",
            DiagnosticKind::UnboundedLoop => "unbounded-loop",
            DiagnosticKind::LoopBound => "loop-bound",
            DiagnosticKind::EscrowLeak => "escrow-leak",
            DiagnosticKind::UnboundedOutflow => "unbounded-outflow",
            DiagnosticKind::OpaquePayout => "opaque-payout",
            DiagnosticKind::UnguardedTransfer => "unguarded-transfer",
        }
    }
}

/// One analysis finding, anchored to the program counter of the
/// instruction it concerns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How severe the finding is.
    pub severity: Severity,
    /// What kind of finding this is.
    pub kind: DiagnosticKind,
    /// Code offset of the offending (or described) instruction.
    pub pc: usize,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic as `severity: location: message`, using the
    /// assembler source map for a `line:col` location when available and
    /// falling back to the raw byte offset otherwise.
    pub fn render(&self, path: &str, map: Option<&SourceMap>) -> String {
        let location = map
            .and_then(|m| m.enclosing(self.pc))
            .map_or_else(|| format!("pc {}", self.pc), |span| span.to_string());
        format!("{}: {path}:{location}: {}", self.severity, self.message)
    }
}

/// Sorts diagnostics most-severe first, then by code offset.
pub fn rank(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| (d.severity, d.pc));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, pc: usize) -> Diagnostic {
        Diagnostic {
            severity,
            kind: DiagnosticKind::UnreachableBlock,
            pc,
            message: "m".into(),
        }
    }

    #[test]
    fn rank_puts_errors_first() {
        let mut d = vec![
            diag(Severity::Info, 0),
            diag(Severity::Error, 9),
            diag(Severity::Warning, 1),
            diag(Severity::Error, 2),
        ];
        rank(&mut d);
        let order: Vec<(Severity, usize)> = d.iter().map(|x| (x.severity, x.pc)).collect();
        assert_eq!(
            order,
            vec![
                (Severity::Error, 2),
                (Severity::Error, 9),
                (Severity::Warning, 1),
                (Severity::Info, 0),
            ]
        );
    }

    #[test]
    fn render_falls_back_to_pc() {
        let d = diag(Severity::Error, 7);
        assert_eq!(d.render("a.scvm", None), "error: a.scvm:pc 7: m");
    }
}
