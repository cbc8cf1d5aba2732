//! `scvm-fuzz` — seeded coverage-guided differential fuzzer for the SCVM.
//!
//! ```text
//! scvm-fuzz [--seed N] [--execs M] [--threads N] [--differential-ops N]
//!           [--planted-bug gas-bound-halved|escrow-payout-drift]
//!           [--json] [--out FILE]
//! ```
//!
//! Batch size, per-execution step limit and shrink budget are the
//! constants `fuzzer::BATCH`, `oracle::STEP_LIMIT` and
//! `fuzzer::SHRINK_BUDGET`. Runs the fuzzer to completion and prints the report (stable text, or
//! a JSON object under `--json`). Exit status is `2` on usage errors,
//! `1` when any oracle violation was found, `0` on a clean run. With a
//! fixed `--seed`/`--execs` the output is byte-identical across runs
//! and `--threads` settings — CI relies on this.

use smartcrowd_fuzz::{FuzzConfig, FuzzReport, Fuzzer, PlantedBug};
use smartcrowd_pool::Pool;
use std::process::ExitCode;

struct Options {
    config: FuzzConfig,
    threads: Option<usize>,
    json: bool,
    out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scvm-fuzz [--seed N] [--execs M] [--threads N] [--differential-ops N]\n\
         \u{20}                [--planted-bug gas-bound-halved|escrow-payout-drift]\n\
         \u{20}                [--json] [--out FILE]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
    let mut opts = Options {
        config: FuzzConfig::default(),
        threads: None,
        json: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        macro_rules! numeric {
            ($flag:literal, $ty:ty) => {{
                match it.next().and_then(|v| v.parse::<$ty>().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!(concat!("scvm-fuzz: ", $flag, " needs an integer argument"));
                        return Err(usage());
                    }
                }
            }};
        }
        match arg.as_str() {
            "--seed" => opts.config.seed = numeric!("--seed", u64),
            "--execs" => opts.config.execs = numeric!("--execs", u64),
            "--threads" => opts.threads = Some(numeric!("--threads", usize).max(1)),
            "--differential-ops" => {
                opts.config.differential_ops = numeric!("--differential-ops", u64);
            }
            "--planted-bug" => match it.next().map(String::as_str) {
                Some("gas-bound-halved") => {
                    opts.config.planted = Some(PlantedBug::GasBoundHalved);
                }
                Some("escrow-payout-drift") => {
                    opts.config.planted = Some(PlantedBug::EscrowPayoutDrift);
                }
                other => {
                    eprintln!(
                        "scvm-fuzz: --planted-bug needs gas-bound-halved or \
                         escrow-payout-drift (got {other:?})"
                    );
                    return Err(usage());
                }
            },
            "--json" => opts.json = true,
            "--out" => match it.next() {
                Some(path) => opts.out = Some(path.clone()),
                None => {
                    eprintln!("scvm-fuzz: --out needs a file argument");
                    return Err(usage());
                }
            },
            "--help" | "-h" => return Err(usage()),
            unknown => {
                eprintln!("scvm-fuzz: unknown option '{unknown}'");
                return Err(usage());
            }
        }
    }
    Ok(opts)
}

fn json_report(report: &FuzzReport) -> String {
    use serde_json::{json, Value};
    let violations: Vec<Value> = report
        .violations
        .iter()
        .map(|c| {
            json!({
                "oracle": c.violation.kind(),
                "message": c.violation.to_string(),
                "code": c.input.code_hex(),
                "calldata": c.input.calldata_hex(),
                "instructions": c.input.instruction_count(),
                "shrink_runs": c.shrink_runs,
                "regression_test": c.regression_test(),
            })
        })
        .collect();
    let doc = json!({
        "seed": report.seed,
        "execs": report.execs,
        "rounds": report.rounds,
        "corpus": report.corpus,
        "coverage": json!({
            "jmp": report.covered.0,
            "read": report.covered.1,
            "write": report.covered.2,
        }),
        "differential_ops": report.differential_ops,
        "suspicious_witnesses": report.suspicious_witnesses,
        "clean": report.clean(),
        "violations": Value::Array(violations),
    });
    serde_json::to_string_pretty(&doc).expect("serialization is total")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let pool = match opts.threads {
        Some(n) => Pool::new(n),
        None => Pool::new(1), // deterministic-by-default; opt into parallelism
    };
    let report = Fuzzer::new(opts.config).run(&pool);
    let rendered = if opts.json {
        json_report(&report)
    } else {
        report.render()
    };
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("scvm-fuzz: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{rendered}");

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
