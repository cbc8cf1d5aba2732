//! From what a run measured to what it reports: metric derivation, the
//! printed table, the one-line result the acceptance driver reads, the
//! trace file, and the run-set file `compare` reads.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Span, Totals};
use crate::workloads::Outcome;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One finished run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// All correctness checks passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// sha256 over the generated inputs.
    pub inputs_digest: String,
    /// Repetitions measured.
    pub repetitions: usize,
    /// Highest latency percentile the sample supports: (p, ms, samples).
    pub latency_tail: Option<(f64, f64, usize)>,
    /// Wall seconds of each repetition's timed phase, in order.
    pub rep_walls_s: Vec<f64>,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Seed-determined counts.
    pub counts: BTreeMap<String, u64>,
}

/// Field `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// String field `key` of a JSON object.
pub fn text(value: &Value, key: &str) -> Option<String> {
    match field(value, key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn items(value: Option<&Value>) -> &[Value] {
    match value {
        Some(Value::Array(items)) => items,
        _ => &[],
    }
}

fn entries(value: Option<&Value>) -> &[(String, Value)] {
    match value {
        Some(Value::Object(entries)) => entries,
        _ => &[],
    }
}

/// Single-line JSON (the shim only pretty-prints).
pub fn compact(value: &Value) -> String {
    let pretty = serde_json::to_string_pretty(value).expect("serializer is total");
    // Pretty output breaks lines only between tokens (strings escape
    // their newlines), so joining trimmed lines is lossless.
    pretty.lines().map(str::trim_start).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// End-to-end metrics of an untraced run (plus `durable_commit`'s own
/// user-visible numbers under their `chain.storage.*` names).
fn end_to_end(outcome: &Outcome) -> BTreeMap<String, f64> {
    let acc = &outcome.acc;
    let rates: Vec<f64> = acc
        .reps
        .iter()
        .map(|r| ratio(r.records as f64, r.wall_s))
        .collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s".to_string(), outcome.setup_s);
    let p50s: Vec<f64> = acc.reps.iter().map(|r| r.p50_ms).collect();
    m.insert(
        "records_per_s".to_string(),
        stats::best_decile(&rates, false),
    );
    m.insert(
        "submit_to_commit_ms_p50".to_string(),
        stats::best_decile(&p50s, true),
    );
    m.insert(
        "submit_to_commit_ms_p99".to_string(),
        stats::percentile(&acc.latency_ms, 0.99),
    );
    m.insert("peak_rss_mb".to_string(), outcome.peak_rss_mb);
    m.insert(
        "failed_ops_share".to_string(),
        ratio(acc.failed as f64, acc.attempted as f64),
    );
    storage_metrics(outcome, &mut m);
    m
}

/// `chain.storage.*` numbers the harness samples itself (traced or not).
fn storage_metrics(outcome: &Outcome, m: &mut BTreeMap<String, f64>) {
    let acc = &outcome.acc;
    let Some(commits) = acc.samples.get("commit_ms") else {
        return;
    };
    let mut put = |name: &str, value: f64| {
        m.insert(format!("chain.storage.{name}"), value);
    };
    put(
        "commit_blocks_per_s",
        acc.best("commit_blocks_per_s", false),
    );
    put("commit_ms_p50", acc.best("commit_ms_p50", true));
    put("commit_ms_p99", stats::percentile(commits, 0.99));
    put("commit_ms_max", commits.iter().copied().fold(0.0, f64::max));
    for q in ["q1", "q2", "q3", "q4"] {
        put(
            &format!("commit_ms_p50.{q}"),
            acc.best(&format!("commit_ms.{q}"), true),
        );
    }
    for name in [
        "commit_growth_ratio",
        "cache_hit_ratio.fit",
        "cache_hit_ratio.thrash",
    ] {
        put(name, acc.median(name));
    }
    for name in [
        "write_snapshot_ms",
        "prune_ms",
        "reopen_snapshot_ms",
        "reopen_full_ms",
        "read_cold_us",
        "read_warm_us",
        "read_thrash_us",
        "find_record_us",
    ] {
        put(name, acc.best(name, true));
    }
    let count = |name: &str| acc.counts.get(name).copied().unwrap_or(0) as f64;
    put("page_ins", count("page_ins"));
    put(
        "bytes_per_block_byte",
        ratio(count("disk_bytes"), acc.median("block_bytes")),
    );
    put(
        "disk_bytes_per_payload_byte",
        ratio(count("disk_bytes"), count("payload_bytes")),
    );
}

/// Per-layer metrics of a traced run: every name in [`PER_LAYER`], 0 for
/// layers the workload does not reach.
fn per_layer(outcome: &Outcome, micro: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let acc = &outcome.acc;
    let totals = trace::totals(&outcome.spans);
    let traced_reps = acc.reps.iter().filter(|r| r.traced).count().max(1) as f64;
    let mut m: BTreeMap<String, f64> = PER_LAYER.iter().map(|p| (p.0.to_string(), 0.0)).collect();
    let mut put = |name: &str, value: f64| {
        debug_assert!(m.contains_key(name), "{name} is not a per-layer metric");
        m.insert(name.to_string(), value);
    };
    for (name, value) in micro {
        if PER_LAYER.iter().any(|p| p.0 == *name) {
            put(name, *value);
        }
    }
    let one = |name: &str| totals.get(name).copied().unwrap_or_default();
    let own_us_per_op = |t: Totals| ratio(t.self_ns as f64 * 1e-3, t.ops as f64);
    // Busy seconds are summed over the traced repetitions; report them
    // per repetition so that run length does not scale them.
    let per_rep_s = |ns: u64| ns as f64 * 1e-9 / traced_reps;

    put(
        "chain.sigcache.verify_batch_s",
        per_rep_s(one("chain.sigcache.verify_batch").busy_ns),
    );
    put(
        "chain.sigcache.hit_ratio",
        ratio(
            acc.ingest_hits as f64,
            (acc.ingest_hits + acc.ingest_misses) as f64,
        ),
    );
    // The mempool's own work: insert_batch minus the signature pass the
    // program times inside it.
    let fill = one("chain.mempool.insert_batch");
    let evict = one("chain.mempool.insert_batch.evicting");
    put(
        "chain.mempool.insert_batch_s",
        per_rep_s(fill.self_ns + evict.self_ns),
    );
    put("chain.mempool.insert_us_per_record", own_us_per_op(fill));
    put("chain.mempool.evict_us_per_op", own_us_per_op(evict));
    let take = one("chain.mempool.take_best");
    put("chain.mempool.take_best_s", per_rep_s(take.busy_ns));
    put("chain.mempool.take_best_us_per_record", take.us_per_op());
    put(
        "chain.mempool.remove_included_s",
        per_rep_s(one("chain.mempool.remove_included").busy_ns),
    );
    let assemble = one("chain.block.assemble");
    put("chain.block.assemble_s", per_rep_s(assemble.busy_ns));
    put("chain.block.assemble_us_per_record", assemble.us_per_op());
    put(
        "chain.codec.encode_s",
        per_rep_s(one("chain.codec.encode").busy_ns),
    );
    put(
        "chain.codec.decode_s",
        per_rep_s(one("chain.codec.decode").busy_ns),
    );
    put(
        "chain.codec.bytes_per_record",
        acc.median("block_wire_bytes_per_record"),
    );
    let validate = one("chain.validate.validate_block");
    put(
        "chain.validate.validate_block_s",
        per_rep_s(validate.busy_ns),
    );
    put("chain.validate.us_per_record", validate.us_per_op());
    let insert = one("chain.store.insert");
    put("chain.store.insert_s", per_rep_s(insert.busy_ns));
    put("chain.store.insert_us_per_block", insert.us_per_op());
    put(
        "chain.storage.commit_s",
        per_rep_s(one("chain.storage.commit").busy_ns),
    );

    let per_call_ms = |name: &str| one(name).us_per_op() * 1e-3;
    put(
        "core.platform.release_system_ms",
        per_call_ms("core.platform.release_system"),
    );
    put(
        "core.platform.submit_initial_ms",
        per_call_ms("core.platform.submit_initial"),
    );
    put(
        "core.platform.submit_detailed_ms",
        per_call_ms("core.platform.submit_detailed"),
    );
    put(
        "core.platform.mine_block_ms",
        per_call_ms("core.platform.mine_block"),
    );
    let count = |name: &str| acc.counts.get(name).copied().unwrap_or(0) as f64;
    put("core.platform.payouts", count("core.platform.payouts"));

    let records = one("core.node.handle_batch.records");
    let blocks = one("core.node.handle_batch.blocks");
    put(
        "core.node.handle_batch_s",
        per_rep_s(records.busy_ns + blocks.busy_ns),
    );
    put("core.node.handle_record_us", records.us_per_op());
    put("core.node.handle_block_ms", blocks.us_per_op() * 1e-3);
    put("core.node.mine_ms", per_call_ms("core.node.mine"));
    put(
        "core.node.records_dropped",
        acc.samples
            .get("records_dropped")
            .map_or(0.0, |v| v.iter().sum()),
    );
    put(
        "net.gossip.broadcast_us",
        one("net.gossip.broadcast").us_per_op(),
    );
    put(
        "net.gossip.drain_us_per_delivery",
        one("net.gossip.drain").us_per_op(),
    );
    put(
        "net.gossip.deliveries_per_record",
        ratio(count("net.gossip.deliveries"), count("records_committed")),
    );
    put("net.gossip.rounds_per_rep", count("net.gossip.rounds"));

    for (layer, share) in trace::layer_shares(&outcome.spans) {
        put(&format!("stage.{layer}.share"), share);
    }
    let walls = |traced: bool| -> Vec<f64> {
        acc.reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    };
    put(
        "trace.overhead_ratio",
        ratio(
            stats::best_decile(&walls(true), true),
            stats::best_decile(&walls(false), true),
        ),
    );
    put(
        "failed_ops_share",
        ratio(acc.failed as f64, acc.attempted as f64),
    );
    put(
        "submit_to_commit_ms_p99",
        stats::percentile(&acc.latency_ms, 0.99),
    );
    storage_metrics(outcome, &mut m);
    m
}

impl RunResult {
    /// Derives the run's metrics.
    pub fn from_outcome(
        workload: &str,
        seed: u64,
        trace: bool,
        outcome: &Outcome,
        micro: &BTreeMap<&'static str, f64>,
    ) -> RunResult {
        let acc = &outcome.acc;
        RunResult {
            workload: workload.to_string(),
            seed,
            trace,
            correct: acc.failed == 0 && acc.attempted > 0,
            attempted: acc.attempted.max(1),
            failed: acc.failed,
            errors: acc.errors.clone(),
            inputs_digest: outcome.inputs_digest.clone(),
            repetitions: acc.reps.len(),
            latency_tail: (!trace).then(|| {
                let (p, value) = stats::tail(&acc.latency_ms);
                (p, value, acc.latency_ms.len())
            }),
            rep_walls_s: acc.reps.iter().map(|r| r.wall_s).collect(),
            metrics: if trace {
                per_layer(outcome, micro)
            } else {
                end_to_end(outcome)
            },
            counts: acc
                .counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }

    /// The names the acceptance driver expects from this kind of run.
    fn contract_names(&self) -> Vec<&'static str> {
        if self.trace {
            PER_LAYER.iter().map(|p| p.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one JSON object the acceptance driver reads from the last
    /// line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<(String, Value)> = self
            .contract_names()
            .into_iter()
            .map(|name| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    json!({ "value": value, "unit": metrics::unit_of(name) }),
                )
            })
            .collect();
        compact(&json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        }))
    }

    /// Every metric by name with its unit, then counts and failures.
    pub fn print(&self) {
        println!(
            "== {} seed {} ({}; {} repetitions; inputs {})",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.repetitions,
            &self.inputs_digest[..16],
        );
        let shown: Vec<String> = self
            .rep_walls_s
            .iter()
            .take(8)
            .map(|w| format!("{w:.4}"))
            .collect();
        println!(
            "repetition walls (s): {}{}",
            shown.join(" "),
            if self.rep_walls_s.len() > 8 {
                " ..."
            } else {
                ""
            }
        );
        if let Some((p, value, n)) = self.latency_tail {
            println!(
                "submit_to_commit tail: p{} = {value:.4} ms is the highest percentile with >= {} of {n} samples beyond it",
                p * 100.0,
                stats::MIN_BEYOND,
            );
        }
        let contract = self.contract_names();
        let ordered = contract.iter().map(|n| n.to_string()).chain(
            self.metrics
                .keys()
                .filter(|k| !contract.contains(&k.as_str()))
                .cloned(),
        );
        for name in ordered {
            if let Some(value) = self.metrics.get(&name) {
                println!("{name:<46} {value:>16.4} {}", metrics::unit_of(&name));
            }
        }
        for (name, value) in &self.counts {
            println!("{name:<46} {value:>16} (exact count)");
        }
        println!(
            "{:<46} {:>16} of {} operations",
            "failed", self.failed, self.attempted
        );
        for error in &self.errors {
            println!("FAILED: {error}");
        }
    }

    fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        let counts: Vec<(String, Value)> = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect();
        json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "inputs_digest": self.inputs_digest.as_str(),
            "repetitions": self.repetitions,
            "metrics": Value::Object(metrics),
            "counts": Value::Object(counts),
        })
    }

    fn from_json(value: &Value) -> Option<RunResult> {
        let int = |key: &str| field(value, key).and_then(number).map(|n| n as u64);
        let flag = |key: &str| matches!(field(value, key), Some(Value::Bool(true)));
        Some(RunResult {
            workload: text(value, "workload")?,
            seed: int("seed")?,
            trace: flag("trace"),
            correct: flag("correct"),
            attempted: int("attempted")?,
            failed: int("failed")?,
            errors: Vec::new(),
            inputs_digest: text(value, "inputs_digest")?,
            repetitions: int("repetitions")? as usize,
            latency_tail: None,
            rep_walls_s: Vec::new(),
            metrics: entries(field(value, "metrics"))
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), number(v)?)))
                .collect(),
            counts: entries(field(value, "counts"))
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), number(v)? as u64)))
                .collect(),
        })
    }
}

/// Median and quartiles of every metric over the runs of one kind.
fn summary(runs: &[&RunResult]) -> Value {
    let mut names: Vec<&String> = runs.iter().flat_map(|r| r.metrics.keys()).collect();
    names.sort();
    names.dedup();
    Value::Object(
        names
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect();
                let (q1, q3) = stats::quartiles(&values);
                (
                    name.clone(),
                    json!({
                        "median": stats::median(&values),
                        "q1": q1,
                        "q3": q3,
                        "runs": values.len(),
                        "unit": metrics::unit_of(name),
                    }),
                )
            })
            .collect(),
    )
}

/// Runs stored in a run-set file (empty when the file does not exist).
pub fn load_run_set(path: &Path) -> Result<Vec<RunResult>, String> {
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut runs = Vec::new();
        for file in files {
            runs.extend(load_run_set(&file)?);
        }
        return Ok(runs);
    }
    let Ok(body) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    let doc = serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(items(field(&doc, "runs"))
        .iter()
        .filter_map(RunResult::from_json)
        .collect())
}

/// Appends `run` to the run-set file at `path` and rewrites its
/// per-workload summaries (median and quartiles per metric).
pub fn append_to_run_set(path: &Path, run: &RunResult, env: &Value) -> Result<(), String> {
    let mut runs = load_run_set(path)?;
    runs.push(run.clone());
    let workloads: BTreeSet<&str> = runs.iter().map(|r| r.workload.as_str()).collect();
    let summaries: Vec<(String, Value)> = workloads
        .into_iter()
        .map(|w| {
            let of = |trace: bool| -> Vec<&RunResult> {
                runs.iter()
                    .filter(|r| r.workload == w && r.trace == trace)
                    .collect()
            };
            (
                w.to_string(),
                json!({ "untraced": summary(&of(false)), "traced": summary(&of(true)) }),
            )
        })
        .collect();
    let doc = json!({
        "env": env.clone(),
        "summary": Value::Object(summaries),
        "runs": Value::Array(runs.iter().map(RunResult::to_json).collect()),
    });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let body = serde_json::to_string_pretty(&doc).expect("serializer is total");
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the trace of one traced run: per-span totals, layer shares and
/// the raw spans of the first few traced repetitions.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    const RAW_REPETITIONS: usize = 4;
    let wall: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let totals: Vec<(String, Value)> = trace::totals(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                json!({
                    "layer": trace::layer_of(name),
                    "count": t.count,
                    "ops": t.ops,
                    "busy_s": t.busy_s(),
                    "self_s": t.self_ns as f64 * 1e-9,
                    "share": ratio(t.self_ns as f64, wall as f64),
                }),
            )
        })
        .collect();
    let shares: Vec<(String, Value)> = trace::layer_shares(spans)
        .into_iter()
        .map(|(layer, share)| (layer.to_string(), Value::from(share)))
        .collect();
    let mut reps: Vec<u32> = spans.iter().map(|s| s.rep).collect();
    reps.dedup();
    let keep = reps.get(RAW_REPETITIONS).copied().unwrap_or(u32::MAX);
    let raw: Vec<Value> = spans
        .iter()
        .filter(|s| s.rep < keep)
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "rep": s.rep,
                "ops": s.ops,
            })
        })
        .collect();
    let doc = json!({
        "workload": workload,
        "traced_wall_s": wall as f64 * 1e-9,
        "layer_shares": Value::Object(shares),
        "spans_by_name": Value::Object(totals),
        "spans": Value::Array(raw),
    });
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let body = serde_json::to_string_pretty(&doc).expect("serializer is total");
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_is_one_line_and_parses_back() {
        let doc = json!({
            "correct": true,
            "text": "two\nlines and  spaces",
            "metrics": json!({ "setup_s": json!({ "value": 0.25, "unit": "s" }) }),
            "list": json!([1, 2.5]),
        });
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str(&line).expect("parses"), doc);
    }

    #[test]
    fn run_results_round_trip_through_a_run_set_file() {
        let run = RunResult {
            workload: "relay_warm".to_string(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            inputs_digest: "ab".repeat(32),
            repetitions: 3,
            latency_tail: None,
            rep_walls_s: Vec::new(),
            metrics: [("records_per_s".to_string(), 1234.5)]
                .into_iter()
                .collect(),
            counts: [("records_committed".to_string(), 3584)]
                .into_iter()
                .collect(),
        };
        let dir = crate::workloads::durable_commit::scratch_dir().with_extension("run-set-test");
        let path = dir.join("set.json");
        let env = json!({ "nproc": 2 });
        append_to_run_set(&path, &run, &env).expect("writes");
        append_to_run_set(&path, &run, &env).expect("appends");
        let back = load_run_set(&path).expect("loads");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].metrics, run.metrics);
        assert_eq!(back[1].counts, run.counts);
        assert_eq!(back[0].inputs_digest, run.inputs_digest);
        let line = run.contract_line();
        let parsed = serde_json::from_str(&line).expect("contract line parses");
        let names: Vec<&String> = entries(field(&parsed, "metrics"))
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    }
}
