//! `scvm-lint` — static diagnostics for SCVM assembly listings.
//!
//! Assembles each `.scvm` file, runs the full abstract-interpretation
//! pipeline ([`smartcrowd_vm::analysis::analyze`]) and prints ranked
//! diagnostics with source line/column spans:
//!
//! ```text
//! scvm-lint [--deny-warnings] [--json] FILE...
//! ```
//!
//! A loop whose proven trip count exceeds the interpreter's
//! [`STEP_LIMIT`](smartcrowd_vm::exec::STEP_LIMIT) is reported unbounded.
//! Besides the gas verdict, every file gets a one-line economic-safety
//! summary (`conserves-escrow` / `bounded-payout` / `no-unauthorized-flow`,
//! each `proved` or `refused`) from the balance-flow domain; refusals
//! also appear as ranked diagnostics (`escrow-leak`, `unbounded-outflow`,
//! `opaque-payout`, `unguarded-transfer`).
//!
//! With `--json` the human-readable output is replaced by a single JSON
//! array on stdout with one object per file: path, gas verdict, a
//! `safety` object (verdict labels plus per-transfer summaries with the
//! derived symbolic amount), summary stats and every diagnostic with its
//! `pc`, `line`/`col` span, stable kebab-case `kind` and message. Exit codes are identical in both
//! modes: `2` on usage errors, `1` when any file fails to assemble, is
//! rejected by the deploy gate, or produces an `error`-severity
//! diagnostic (also `warning`-severity under `--deny-warnings`), and
//! `0` otherwise.

use smartcrowd_vm::analysis::{analyze, Analysis, SafetyReport, Severity};
use smartcrowd_vm::asm::{assemble_with_source_map, SourceMap};
use smartcrowd_vm::GasVerdict;
use std::process::ExitCode;

struct Options {
    deny_warnings: bool,
    json: bool,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: scvm-lint [--deny-warnings] [--json] FILE...");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
    let mut opts = Options {
        deny_warnings: false,
        json: false,
        files: Vec::new(),
    };
    for arg in args {
        match arg.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(usage()),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            unknown => {
                eprintln!("scvm-lint: unknown option '{unknown}'");
                return Err(usage());
            }
        }
    }
    if opts.files.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// Reads, assembles and analyzes one file. `Err` carries the rendered
/// failure message (read error, parse error or deploy-gate rejection).
fn analyze_file(path: &str) -> Result<(Analysis, SourceMap), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let (code, map) = assemble_with_source_map(&source).map_err(|e| e.to_string())?;
    match analyze(&code) {
        Ok(a) => Ok((a, map)),
        // Deploy-gate rejection: render with the source span when the
        // error names a program counter.
        Err(e) => Err(map.describe_vm_error(&e)),
    }
}

/// Lints one file in text mode. Returns the worst severity it produced,
/// `None` when the listing is clean.
fn lint_file(path: &str) -> Option<Severity> {
    let (analysis, map) = match analyze_file(path) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("error: {path}: {msg}");
            return Some(Severity::Error);
        }
    };

    for d in &analysis.diagnostics {
        println!("{}", d.render(path, Some(&map)));
    }
    println!(
        "{path}: {} instructions, {} blocks, max stack {}, gas {}",
        analysis.cfg.instruction_count(),
        analysis.cfg.block_count(),
        analysis.max_stack_depth,
        analysis.gas,
    );
    println!("{path}: {}", render_safety(&analysis.safety));
    analysis.diagnostics.iter().map(|d| d.severity).min()
}

/// One-line safety summary for text mode.
fn render_safety(safety: &SafetyReport) -> String {
    format!(
        "safety: conserves-escrow={} bounded-payout={} no-unauthorized-flow={} \
         ({} transfer sites)",
        safety.conserves_escrow.label(),
        safety.bounded_payout.label(),
        safety.no_unauthorized_flow.label(),
        safety.transfers.len(),
    )
}

/// Lints one file in JSON mode: returns the file's JSON object plus the
/// same worst-severity verdict as the text path.
fn lint_file_json(path: &str) -> (serde_json::Value, Option<Severity>) {
    use serde_json::{json, Value};
    let (analysis, map) = match analyze_file(path) {
        Ok(out) => out,
        Err(msg) => {
            let doc = json!({
                "path": path,
                "ok": false,
                "error": msg,
            });
            return (doc, Some(Severity::Error));
        }
    };

    let diags: Vec<Value> = analysis
        .diagnostics
        .iter()
        .map(|d| {
            let span = map.enclosing(d.pc);
            json!({
                "severity": d.severity.to_string(),
                "kind": d.kind.name(),
                "pc": d.pc,
                "line": span.map(|s| s.line),
                "col": span.map(|s| s.col),
                "message": &d.message,
            })
        })
        .collect();
    let (verdict, bound) = match analysis.gas {
        GasVerdict::Bounded(g) => ("bounded", Some(g)),
        GasVerdict::Unbounded { .. } => ("unbounded", None),
    };
    let transfers: Vec<Value> = analysis
        .safety
        .transfers
        .iter()
        .map(|t| {
            json!({
                "pc": t.pc,
                "amount": t.amount.to_string(),
                "to": t.to.to_string(),
                "selectors": t.selectors.clone(),
                "guarded": t.guarded,
                "drains": t.drains,
                "in_unbounded_loop": t.in_unbounded_loop,
            })
        })
        .collect();
    let doc = json!({
        "path": path,
        "ok": true,
        "instructions": analysis.cfg.instruction_count(),
        "blocks": analysis.cfg.block_count(),
        "max_stack": analysis.max_stack_depth,
        "gas": json!({ "verdict": verdict, "bound": bound }),
        "safety": json!({
            "conserves_escrow": analysis.safety.conserves_escrow.label(),
            "bounded_payout": analysis.safety.bounded_payout.label(),
            "no_unauthorized_flow": analysis.safety.no_unauthorized_flow.label(),
            "transfers": Value::Array(transfers),
        }),
        "diagnostics": Value::Array(diags),
    });
    (doc, analysis.diagnostics.iter().map(|d| d.severity).min())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut worst: Option<Severity> = None;
    let mut json_docs = Vec::new();
    for path in &opts.files {
        let sev = if opts.json {
            let (doc, sev) = lint_file_json(path);
            json_docs.push(doc);
            sev
        } else {
            lint_file(path)
        };
        worst = match (worst, sev) {
            (Some(w), Some(s)) => Some(w.min(s)),
            (w, s) => w.or(s),
        };
    }
    if opts.json {
        let out = serde_json::to_string_pretty(&serde_json::Value::Array(json_docs))
            .expect("serialization is total");
        println!("{out}");
    }

    let deny = match worst {
        Some(Severity::Error) => true,
        Some(Severity::Warning) => opts.deny_warnings,
        _ => false,
    };
    if deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
