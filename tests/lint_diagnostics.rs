//! Exercises every diagnostic kind the analysis framework can emit
//! against the fixture listings in `tests/lint_fixtures/` — the same
//! files CI feeds to `scvm-lint`.

use smartcrowd_vm::analysis::{analyze, DiagnosticKind, GasVerdict, Severity};
use smartcrowd_vm::asm::assemble_with_source_map;

fn analyze_fixture(name: &str) -> smartcrowd_vm::Analysis {
    let src = std::fs::read_to_string(format!(
        "{}/tests/lint_fixtures/{name}.scvm",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let (code, _) = assemble_with_source_map(&src).expect("fixture assembles");
    analyze(&code).expect("fixture passes the deploy gate")
}

fn kinds(a: &smartcrowd_vm::Analysis) -> Vec<(DiagnosticKind, Severity)> {
    a.diagnostics.iter().map(|d| (d.kind, d.severity)).collect()
}

#[test]
fn dead_code_fixture_flags_unreachable_block() {
    let a = analyze_fixture("dead_code");
    assert!(
        kinds(&a).contains(&(DiagnosticKind::UnreachableBlock, Severity::Info)),
        "{:?}",
        a.diagnostics
    );
    assert!(a.gas.is_bounded());
}

#[test]
fn div_by_zero_fixture_warns() {
    let a = analyze_fixture("div_by_zero");
    assert!(
        kinds(&a).contains(&(DiagnosticKind::DivByZero, Severity::Warning)),
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn oob_memory_fixture_errors() {
    let a = analyze_fixture("oob_memory");
    assert!(
        kinds(&a).contains(&(DiagnosticKind::OobMemory, Severity::Error)),
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn unbounded_loop_fixture_warns_with_witness() {
    let a = analyze_fixture("unbounded_loop");
    assert!(
        kinds(&a).contains(&(DiagnosticKind::UnboundedLoop, Severity::Warning)),
        "{:?}",
        a.diagnostics
    );
    assert!(matches!(a.gas, GasVerdict::Unbounded { .. }), "{}", a.gas);
}

#[test]
fn bounded_loop_fixture_reports_trip_count() {
    let a = analyze_fixture("bounded_loop");
    let bound_diag = a
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagnosticKind::LoopBound)
        .expect("loop bound info diagnostic");
    assert_eq!(bound_diag.severity, Severity::Info);
    assert!(
        bound_diag.message.contains("10 iterations"),
        "{}",
        bound_diag.message
    );
    assert!(a.gas.is_bounded(), "{}", a.gas);
}

#[test]
fn diagnostics_render_with_source_spans() {
    let src = std::fs::read_to_string(format!(
        "{}/tests/lint_fixtures/div_by_zero.scvm",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let (code, map) = assemble_with_source_map(&src).expect("assembles");
    let a = analyze(&code).expect("analyzes");
    let d = a
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagnosticKind::DivByZero)
        .expect("div-by-zero diagnostic");
    let rendered = d.render("div_by_zero.scvm", Some(&map));
    // The DIV sits on source line 6 of the fixture.
    assert!(
        rendered.starts_with("warning: div_by_zero.scvm:6:"),
        "{rendered}"
    );
}
