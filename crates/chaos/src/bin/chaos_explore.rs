//! `chaos-explore`: run randomized fault schedules and shrink failures.
//!
//! ```text
//! chaos_explore [--seeds N] [--start N] [--explore] [--plant-bug] [--out PATH]
//! ```
//!
//! - `--seeds N`     number of seeds to sweep (default 50)
//! - `--start N`     first seed (default 0)
//! - `--explore`     deep nightly sweep: 200 seeds unless `--seeds` is given
//! - `--plant-bug`   run with the planted equivocation-acceptance bug
//!   (pipeline self-test: the sweep *should* find failures)
//! - `--out PATH`    write minimized failures (regression-test snippets);
//!   a telemetry snapshot is written next to it as `PATH.telemetry.json`
//!
//! Each plan that passes runs again on durable stores under the system
//! temporary directory; a failure there is listed with its seed and plan.
//!
//! Exits non-zero when any schedule fails, unless `--plant-bug` is set
//! (where failures are the expected outcome and a *clean* sweep exits
//! non-zero instead).

use smartcrowd_chaos::{explore, ExploreConfig, FaultPlan, PlantedBug};
use smartcrowd_telemetry::TimeSource;
use std::process::ExitCode;

fn main() -> ExitCode {
    smartcrowd_telemetry::set_time_source(TimeSource::Wall);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExploreConfig::default();
    let mut deep = false;
    let mut seeds_given = false;
    let mut plant = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--seeds needs a number");
                    return ExitCode::from(2);
                };
                cfg.seeds = v;
                seeds_given = true;
            }
            "--start" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse().ok()) else {
                    eprintln!("--start needs a number");
                    return ExitCode::from(2);
                };
                cfg.start_seed = v;
            }
            "--explore" => deep = true,
            "--plant-bug" => plant = true,
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                };
                out = Some(v.clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if deep && !seeds_given {
        cfg.seeds = 200;
    }
    let bug = plant.then_some(PlantedBug::AcceptEquivocation);

    println!(
        "chaos-explore: seeds {}..{}{}",
        cfg.start_seed,
        cfg.start_seed + cfg.seeds,
        if plant { " (planted bug active)" } else { "" }
    );
    let report = explore(&cfg, bug);
    println!(
        "passed {}/{} schedules, {} failure(s)",
        report.passed,
        cfg.seeds,
        report.failures.len()
    );
    println!(
        "durable backend: {} failure(s) of schedules that passed in memory",
        report.durable_only.len()
    );

    let failed = !report.failures.is_empty() || !report.durable_only.is_empty();
    if failed {
        let mut rendered = String::new();
        for m in &report.failures {
            rendered.push_str(&format!(
                "// seed {} ({} shrink runs): {}\n{}\n\n",
                m.seed, m.shrink_runs, m.failure, m
            ));
        }
        for (seed, failure) in &report.durable_only {
            let plan = FaultPlan::random(*seed);
            rendered.push_str(&format!(
                "// seed {seed} on durable stores: {failure}\n{plan}\n\n"
            ));
        }
        match &out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &rendered) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::from(2);
                }
                println!("minimized failures written to {path}");
                // A snapshot of what the cluster was doing when it failed
                // (see OBSERVABILITY.md, "Reading snapshots from chaos
                // failures").
                let snap_path = format!("{path}.telemetry.json");
                let snapshot = smartcrowd_telemetry::global().snapshot();
                let json = serde_json::to_string_pretty(&snapshot.to_json())
                    .unwrap_or_else(|_| String::from("{}"));
                if let Err(e) = std::fs::write(&snap_path, json) {
                    eprintln!("failed to write {snap_path}: {e}");
                } else {
                    println!("telemetry snapshot written to {snap_path}");
                }
            }
            None => println!("{rendered}"),
        }
    }

    // Under --plant-bug the sweep validates the pipeline: finding
    // failures is success, a clean sweep means the oracles went blind.
    if plant {
        if failed {
            ExitCode::SUCCESS
        } else {
            eprintln!("planted bug was NOT detected — the oracle pipeline is broken");
            ExitCode::FAILURE
        }
    } else if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
