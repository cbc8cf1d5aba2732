//! Pins what the SCVM analyzers say about every `.scvm` program in the
//! repository: the `scvm-lint --json` document (path made repo-relative)
//! plus what that document leaves out — the gas verdict's witness, the
//! storage summary, the loop list with bounds, reachable and unreachable
//! blocks and the full safety report — rendered from public [`Analysis`]
//! fields only, never from per-block states.
//!
//! The expected files under `tests/analysis_snapshots/` were generated
//! once; every run writes its own renderings to
//! `$CARGO_TARGET_TMPDIR/analysis_snapshots/` for comparison.

use smartcrowd_vm::analysis::{analyze, Analysis};
use smartcrowd_vm::asm::assemble;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The directories holding `.scvm` programs, relative to the repo root.
const PROGRAM_DIRS: [&str; 3] = [
    "crates/vm/tests/lint_fixtures",
    "tests/lint_fixtures",
    "crates/core/contracts",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The names of the files in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    names
}

/// Every `.scvm` program under [`PROGRAM_DIRS`], repo-relative, sorted.
fn programs() -> Vec<String> {
    PROGRAM_DIRS
        .iter()
        .flat_map(|dir| {
            file_names(&repo_root().join(dir))
                .into_iter()
                .filter(|name| name.ends_with(".scvm"))
                .map(move |name| format!("{dir}/{name}"))
        })
        .collect()
}

fn render_analysis(a: &Analysis) -> String {
    let mut out = format!("gas: {:?}\nstorage: {:?}\nloops:\n", a.gas, a.storage);
    for l in &a.loops {
        out.push_str(&format!("  {l:?}\n"));
    }
    out.push_str(&format!(
        "reachable: {:?}\nunreachable: {:?}\nsafety: {:#?}\n",
        a.reachable, a.unreachable, a.safety
    ));
    out
}

/// The snapshot of one program: the lint document, then the analysis.
fn render(rel: &str) -> String {
    let path = repo_root().join(rel);
    let path = path.to_str().expect("utf-8 path");
    let lint = Command::new(env!("CARGO_BIN_EXE_scvm-lint"))
        .args(["--json", path])
        .output()
        .expect("scvm-lint runs");
    let json = String::from_utf8(lint.stdout)
        .expect("utf-8 output")
        .replace(path, rel);
    let source = std::fs::read_to_string(path).expect("program readable");
    let analysis = match analyze(&assemble(&source).expect("assembles")) {
        Ok(a) => render_analysis(&a),
        Err(e) => format!("rejected: {e:?}\n"),
    };
    format!(
        "== scvm-lint --json (exit {:?})\n{json}== analysis\n{analysis}",
        lint.status.code()
    )
}

fn snapshot_name(rel: &str) -> String {
    format!("{}.snap", rel.replace('/', "__"))
}

#[test]
fn analyzers_match_committed_snapshots() {
    let expected_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analysis_snapshots");
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis_snapshots");
    std::fs::create_dir_all(&actual_dir).expect("scratch dir");

    let programs = programs();
    assert_eq!(programs.len(), 15, "every .scvm program: {programs:?}");
    let mut mismatched = Vec::new();
    for rel in &programs {
        let name = snapshot_name(rel);
        let actual = render(rel);
        std::fs::write(actual_dir.join(&name), &actual).expect("write actual");
        let expected = std::fs::read_to_string(expected_dir.join(&name)).unwrap_or_default();
        if actual != expected {
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "analysis output changed for {mismatched:?}; compare {} with {}",
        actual_dir.display(),
        expected_dir.display()
    );

    // No snapshot outlives its program.
    let mut wanted: Vec<String> = programs.iter().map(|p| snapshot_name(p)).collect();
    wanted.sort();
    assert_eq!(file_names(&expected_dir), wanted);
}
