//! The SmartCrowd repo benchmark.
//!
//! ```text
//! smartcrowd-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!                          [--out RUNSET.json] [--commit HASH]
//! smartcrowd-benchmark compare BASE.json OTHER.json
//! ```
//!
//! `run` generates inputs from the seed, drives the workload(s) in a
//! closed loop for `--seconds`, checks the outputs, prints every metric
//! by name with its unit and, as the last line of standard output, one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`). Untraced
//! runs report the end-to-end metrics; `--trace 1` runs report the
//! per-layer metrics and write `benchmark/out/trace-<workload>.json`.
//! See `benchmark/README.md`.

mod compare;
mod env;
mod inputs;
mod metrics;
mod micro;
mod report;
mod stats;
mod trace;
mod workloads;

use report::RunResult;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Probe, RunConfig, Sizes};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2019;
/// Measurement budget when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups timed per untraced run; their median is `setup_s`.
const SETUPS: usize = 3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        commit: "unknown".to_string(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // Bare `--trace` means on; the driver passes `--trace 0|1`.
            parsed.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::names().any(|w| w == value) {
                    return Err(bad("a workload name"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--commit" => parsed.commit = value.clone(),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &RunArgs) -> Result<bool, String> {
    env::pin_threads();
    let environment = env::describe(&args.commit);
    println!("environment: {}", report::compact(&environment));
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::names().collect(),
    };
    let mut last = None;
    let mut all_correct = true;
    for name in names {
        env::reset_peak_rss();
        let mut micro = BTreeMap::new();
        if args.trace {
            micro = micro::run(args.seed);
        }
        let ns = |key: &str| micro.get(key).copied().unwrap_or(0.0) * 1e3;
        let probe = Probe::new(
            ns("chain.sigcache.lookup_us"),
            ns("chain.sigcache.insert_us"),
        );
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            setups: if args.trace { 1 } else { SETUPS },
            sizes: Sizes::FULL,
        };
        let outcome = workloads::run(name, &cfg, &probe).ok_or("unknown workload")?;
        if args.trace {
            micro.insert("telemetry.snapshot_ms", micro::telemetry_snapshot_ms());
        }
        let result = RunResult::from_outcome(name, args.seed, args.trace, &outcome, &micro);
        result.print();
        if args.trace {
            let path = out_dir().join(format!("trace-{name}.json"));
            report::write_trace(&path, name, &outcome.spans)?;
            println!("trace written to {}", path.display());
        }
        if let Some(path) = &args.out {
            report::append_to_run_set(path, &result, &environment)?;
        }
        all_correct &= result.correct;
        last = Some(result);
    }
    if let Some(result) = last {
        // The last line of standard output is the result the driver reads.
        println!("{}", result.contract_line());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, [base, other])) if cmd == "compare" => {
            let load = |p: &String| report::load_run_set(Path::new(p));
            load(base)
                .and_then(|a| Ok((a, load(other)?)))
                .map(|(a, b)| {
                    let (_, regressed, _, mismatches) = compare::compare(&a, &b);
                    regressed == 0 && mismatches == 0
                })
        }
        _ => Err(
            "usage: run [--workload W] [--seed S] [--seconds T] [--trace [0|1]] \
                  [--out RUNSET.json] [--commit HASH] | compare BASE.json OTHER.json"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
