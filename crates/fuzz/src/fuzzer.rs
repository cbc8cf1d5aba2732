//! The fuzzing engine: seeded corpus, coverage-guided mutation rounds,
//! oracle checking, counterexample shrinking and report rendering.
//!
//! # Determinism contract
//!
//! A run is a pure function of [`FuzzConfig`]:
//!
//! - candidates are derived **sequentially** from one `SimRng` seeded
//!   with `config.seed`, before any parallel work starts;
//! - each candidate executes in a fixed world ([`crate::oracle`]) with
//!   zero gas price, so execution is input-pure;
//! - batches run through [`smartcrowd_pool::Pool::par_map`], which
//!   returns results in submission order regardless of thread count;
//! - coverage novelty, corpus growth and violation recording happen in
//!   one sequential merge pass per batch.
//!
//! Hence `scvm-fuzz --seed N --execs M` produces byte-identical reports
//! across repeated runs and across `--threads` settings.

use crate::input::FuzzInput;
use crate::mutate::mutate;
use crate::native;
use crate::oracle::{run_case, PlantedBug, Violation};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chaos::greedy_fixpoint;
use smartcrowd_core::contracts::{REPORT_REGISTRY_ASM, SRA_ESCROW_ASM};
use smartcrowd_pool::Pool;
use smartcrowd_telemetry::{counter, gauge};
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::isa::Op;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Candidates dispatched per parallel batch.
const BATCH: usize = 64;
/// Candidate evaluations the shrinker may spend per counterexample.
const SHRINK_BUDGET: usize = 2_000;
/// Counterexamples kept per oracle kind (first found wins).
const MAX_REPORTED: usize = 1;

/// What one fuzz run varies: CI and the nightly job set each field.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; the entire run is a function of it.
    pub seed: u64,
    /// Total candidate executions (seed corpus included).
    pub execs: u64,
    /// Operations for the native-contract differential (0 disables it).
    pub differential_ops: u64,
    /// Self-test bug to plant, if any.
    pub planted: Option<PlantedBug>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            execs: 2_000,
            differential_ops: 200,
            planted: None,
        }
    }
}

/// A shrunk counterexample, ready to be committed as a regression test.
#[derive(Debug, Clone)]
pub struct MinimizedCase {
    /// The minimized failing input (empty for native divergences, which
    /// are sequence-level, not input-level).
    pub input: FuzzInput,
    /// The violation the input reproduces.
    pub violation: Violation,
    /// Shrinker evaluations spent.
    pub shrink_runs: usize,
}

impl MinimizedCase {
    /// Renders a ready-to-commit `#[test]` for input-level violations
    /// (`None` for native divergences — those reproduce from a seed, not
    /// an input).
    pub fn regression_test(&self) -> Option<String> {
        if matches!(self.violation, Violation::NativeDivergence { .. }) {
            return None;
        }
        Some(format!(
            "/// {violation}\n#[test]\nfn fuzz_regression_{kind}_{id}() {{\n    \
             replay(\"{code}\", \"{calldata}\");\n}}\n",
            violation = self.violation,
            kind = self.violation.kind().replace('-', "_"),
            id = self.input.id(),
            code = self.input.code_hex(),
            calldata = self.input.calldata_hex(),
        ))
    }
}

/// The final state of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the run used.
    pub seed: u64,
    /// Executions performed (excluding shrinker and oracle re-runs).
    pub execs: u64,
    /// Parallel batches dispatched.
    pub rounds: u64,
    /// Corpus size at the end of the run.
    pub corpus: usize,
    /// Distinct covered slots `(jmp, read, write)` across the run.
    pub covered: (usize, usize, usize),
    /// Native-differential operations compared (0 when disabled).
    pub differential_ops: u64,
    /// Programs whose `Unbounded { witness_block }` gas witness was
    /// never executed by any run in the whole campaign. Not a proof of
    /// unsoundness (the verdict only claims *some* unbounded path
    /// exists), but a phantom witness would hide a missed `Bounded`
    /// proof, so the count is surfaced for triage.
    pub suspicious_witnesses: usize,
    /// Shrunk counterexamples, in discovery order.
    pub violations: Vec<MinimizedCase>,
}

impl FuzzReport {
    /// `true` when every oracle held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the stable human-readable report (byte-identical for
    /// identical configs — no timestamps, no wall-clock).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scvm-fuzz report");
        let _ = writeln!(out, "  seed:         {}", self.seed);
        let _ = writeln!(out, "  execs:        {}", self.execs);
        let _ = writeln!(out, "  rounds:       {}", self.rounds);
        let _ = writeln!(out, "  corpus:       {}", self.corpus);
        let _ = writeln!(
            out,
            "  coverage:     jmp={} read={} write={}",
            self.covered.0, self.covered.1, self.covered.2
        );
        let _ = writeln!(out, "  differential: {} ops", self.differential_ops);
        let _ = writeln!(
            out,
            "  suspicious:   {} unexecuted gas witnesses",
            self.suspicious_witnesses
        );
        let _ = writeln!(out, "  violations:   {}", self.violations.len());
        for v in &self.violations {
            let _ = writeln!(out, "\n[{}] {}", v.violation.kind(), v.violation);
            if !v.input.code.is_empty() || !v.input.calldata.is_empty() {
                let _ = writeln!(
                    out,
                    "  input: {} instructions, code={} calldata={}",
                    v.input.instruction_count(),
                    v.input.code_hex(),
                    v.input.calldata_hex()
                );
                let _ = writeln!(out, "  shrink runs: {}", v.shrink_runs);
            }
            if let Some(test) = v.regression_test() {
                let _ = writeln!(out, "  regression test:\n{test}");
            }
        }
        out
    }
}

/// Hand-picked starting corpus: the in-repo production contracts plus
/// small programs touching every opcode family, so round zero already
/// exercises jumps, storage, memory, crypto and value transfer.
fn seed_corpus() -> Vec<FuzzInput> {
    let srcs = [
        "PUSH 2\nPUSH 3\nADD\nRETURNVAL\n",
        "PUSH 7\nPUSH 0\nSSTORE\nPUSH 0\nSLOAD\nRETURNVAL\n",
        "PUSH 5\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n",
        "PUSH 42\nPUSH 0\nMSTORE\nPUSH 32\nPUSH 0\nKECCAK\nRETURNVAL\n",
        "PUSH 0\nCALLDATALOAD\nPUSH 0\nEQ\nPUSH @a\nJUMPI\nPUSH 1\nREVERT\na:\nJUMPDEST\nSTOP\n",
        "CALLER\nPUSH 3\nSSTORE\nCALLVALUE\nPUSH 4\nSSTORE\nSTOP\n",
        "PUSH 9\nPUSH 3\nDIV\nPUSH 100\nLOG\nRETURNVAL\n",
    ];
    let mut corpus: Vec<FuzzInput> = srcs
        .iter()
        .map(|s| FuzzInput::from_code(assemble(s).expect("seed program assembles")))
        .collect();
    for asm in [SRA_ESCROW_ASM, REPORT_REGISTRY_ASM] {
        let mut input = FuzzInput::from_code(assemble(asm).expect("production contract assembles"));
        // Word 0 selects the contract's dispatch arm; start on `init`.
        input.calldata = vec![0u8; 32];
        corpus.push(input);
    }
    corpus
}

/// Shrink axis: drop one whole instruction (every position proposed).
fn axis_drop_instruction(c: &FuzzInput) -> Vec<FuzzInput> {
    let bounds = c.boundaries();
    bounds
        .iter()
        .enumerate()
        .map(|(i, &pc)| {
            let end = bounds.get(i + 1).copied().unwrap_or(c.code.len());
            let mut s = c.clone();
            s.code.drain(pc..end);
            s
        })
        .collect()
}

/// Shrink axis: truncate the tail, shortest surviving prefix first.
fn axis_truncate(c: &FuzzInput) -> Vec<FuzzInput> {
    let mut out: Vec<FuzzInput> = c
        .boundaries()
        .into_iter()
        .skip(1)
        .map(|pc| {
            let mut s = c.clone();
            s.code.truncate(pc);
            s
        })
        .collect();
    // Propose aggressive cuts (short prefixes) before timid ones.
    out.reverse();
    out
}

/// Shrink axis: simplify push immediates toward zero.
fn axis_simplify_immediates(c: &FuzzInput) -> Vec<FuzzInput> {
    let mut out = Vec::new();
    for pc in c.boundaries() {
        let Ok(op) = Op::from_byte(c.code[pc]) else {
            continue;
        };
        let width = op.immediate_len();
        if width == 0 || c.code[pc + 1..pc + 1 + width].iter().all(|&b| b == 0) {
            continue;
        }
        let mut s = c.clone();
        s.code[pc + 1..pc + 1 + width].fill(0);
        out.push(s);
    }
    out
}

/// Shrink axis: discard calldata (all of it, then halves).
fn axis_shrink_calldata(c: &FuzzInput) -> Vec<FuzzInput> {
    if c.calldata.is_empty() {
        return Vec::new();
    }
    let mut empty = c.clone();
    empty.calldata.clear();
    let mut half = c.clone();
    half.calldata.truncate(c.calldata.len() / 2);
    vec![empty, half]
}

/// Bumps the per-oracle violation counter (labels must be literals).
fn count_violation(kind: &str) {
    match kind {
        "gas-bound" => counter!("vm.fuzz.violations", "oracle" => "gas-bound").inc(),
        "clean-trap" => counter!("vm.fuzz.violations", "oracle" => "clean-trap").inc(),
        "phantom-fault" => counter!("vm.fuzz.violations", "oracle" => "phantom-fault").inc(),
        "storage-effect" => counter!("vm.fuzz.violations", "oracle" => "storage-effect").inc(),
        "safety-verdict" => counter!("vm.fuzz.violations", "oracle" => "safety-verdict").inc(),
        _ => counter!("vm.fuzz.violations", "oracle" => "native-divergence").inc(),
    }
}

/// The coverage-guided differential fuzzer.
#[derive(Debug, Clone, Default)]
pub struct Fuzzer {
    /// Run parameters.
    pub config: FuzzConfig,
}

impl Fuzzer {
    /// Builds a fuzzer with the given config.
    pub fn new(config: FuzzConfig) -> Self {
        Fuzzer { config }
    }

    /// Minimizes one counterexample with the chaos shrinking engine: the
    /// judge replays the candidate and accepts it only when the *same
    /// oracle kind* still fires.
    fn shrink(&self, input: FuzzInput, violation: Violation) -> MinimizedCase {
        let kind = violation.kind();
        let planted = self.config.planted;
        let mut judge =
            move |c: &FuzzInput| run_case(c, planted).violation.filter(|v| v.kind() == kind);
        let shrunk = greedy_fixpoint(
            input,
            violation,
            SHRINK_BUDGET,
            &[
                &axis_truncate,
                &axis_drop_instruction,
                &axis_simplify_immediates,
                &axis_shrink_calldata,
            ],
            &mut judge,
        );
        counter!("vm.fuzz.shrink_runs").add(shrunk.runs as u64);
        MinimizedCase {
            input: shrunk.best,
            violation: shrunk.info,
            shrink_runs: shrunk.runs,
        }
    }

    /// Runs the fuzzer to completion on `pool`.
    pub fn run(&self, pool: &Pool) -> FuzzReport {
        let cfg = &self.config;
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut corpus = seed_corpus();
        let mut accum = smartcrowd_vm::CoverageAccumulator::new();
        // Discovery order, capped per kind; BTreeMap keeps render stable.
        let mut found: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut minimized: Vec<MinimizedCase> = Vec::new();
        // Per-program gas witnesses: code id → whether any run entered
        // the witness block. Entries still `false` at the end of the
        // campaign are the suspicious-witness report.
        let mut witnesses: BTreeMap<String, bool> = BTreeMap::new();

        let mut execs = 0u64;
        let mut rounds = 0u64;
        while execs < cfg.execs {
            let want = (cfg.execs - execs).min(BATCH as u64) as usize;
            // Round zero replays the seed corpus itself (it is the
            // baseline coverage); later rounds are pure mutation.
            let candidates: Vec<FuzzInput> = if rounds == 0 {
                let mut c = corpus.clone();
                c.truncate(want);
                while c.len() < want {
                    c.push(mutate(&corpus, &mut rng));
                }
                c
            } else {
                (0..want).map(|_| mutate(&corpus, &mut rng)).collect()
            };

            let outcomes = pool.par_map(&candidates, |c| run_case(c, cfg.planted));

            // Sequential merge: corpus growth and violation recording
            // happen in candidate order, independent of thread count.
            for (candidate, outcome) in candidates.iter().zip(outcomes) {
                if accum.add(&outcome.coverage) && rounds > 0 {
                    corpus.push(candidate.clone());
                }
                if let Some((_, executed)) = outcome.gas_witness {
                    let seen = witnesses.entry(candidate.code_id()).or_insert(false);
                    *seen |= executed;
                }
                if let Some(v) = outcome.violation {
                    let seen = found.entry(v.kind()).or_insert(0);
                    if *seen < MAX_REPORTED {
                        *seen += 1;
                        count_violation(v.kind());
                        minimized.push(self.shrink(candidate.clone(), v));
                    }
                }
            }
            execs += candidates.len() as u64;
            rounds += 1;
            counter!("vm.fuzz.execs").add(candidates.len() as u64);
            counter!("vm.fuzz.rounds").inc();
            gauge!("vm.fuzz.corpus").set(corpus.len() as i64);
        }

        // Native-contract differential (sequence-level oracle).
        if cfg.differential_ops > 0 {
            if let Err(v) = native::differential(cfg.seed, cfg.differential_ops, cfg.planted) {
                count_violation(v.kind());
                minimized.push(MinimizedCase {
                    input: FuzzInput::from_code(Vec::new()),
                    violation: v,
                    shrink_runs: 0,
                });
            }
        }

        let covered = accum.covered();
        gauge!("vm.cov.jmp_edges").set(covered.0 as i64);
        gauge!("vm.cov.read_slots").set(covered.1 as i64);
        gauge!("vm.cov.write_slots").set(covered.2 as i64);
        let suspicious_witnesses = witnesses.values().filter(|executed| !**executed).count();
        gauge!("vm.fuzz.suspicious_witnesses").set(suspicious_witnesses as i64);

        FuzzReport {
            seed: cfg.seed,
            execs,
            rounds,
            corpus: corpus.len(),
            covered,
            differential_ops: cfg.differential_ops,
            suspicious_witnesses,
            violations: minimized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            execs: 192,
            differential_ops: 40,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn clean_run_finds_no_violations() {
        let report = Fuzzer::new(quick_config(1)).run(&Pool::new(1));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.execs, 192);
        assert!(report.covered.0 > 0, "jump coverage must accumulate");
        assert!(report.corpus >= seed_corpus().len());
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let a = Fuzzer::new(quick_config(7)).run(&Pool::new(1));
        let b = Fuzzer::new(quick_config(7)).run(&Pool::new(4));
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn report_is_identical_across_repeated_runs() {
        let pool = Pool::new(2);
        let a = Fuzzer::new(quick_config(9)).run(&pool);
        let b = Fuzzer::new(quick_config(9)).run(&pool);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let pool = Pool::new(1);
        let a = Fuzzer::new(quick_config(1)).run(&pool);
        let b = Fuzzer::new(quick_config(2)).run(&pool);
        // Coverage or corpus must differ somewhere; identical runs from
        // different seeds would mean the seed is ignored.
        assert!(
            a.corpus != b.corpus || a.covered != b.covered,
            "seeds 1 and 2 produced identical exploration"
        );
    }

    #[test]
    fn planted_gas_bug_is_caught_and_shrunk_small() {
        let config = FuzzConfig {
            planted: Some(PlantedBug::GasBoundHalved),
            differential_ops: 0,
            ..quick_config(3)
        };
        let report = Fuzzer::new(config).run(&Pool::new(2));
        let case = report
            .violations
            .iter()
            .find(|c| c.violation.kind() == "gas-bound")
            .expect("halved gas bounds must starve some accepted program");
        assert!(
            case.input.instruction_count() <= 10,
            "shrunk to {} instructions: {}",
            case.input.instruction_count(),
            case.input.code_hex()
        );
        assert!(case.regression_test().is_some());
    }

    #[test]
    fn suspicious_witnesses_are_aggregated_per_program() {
        // Seeding the run with a calldata-gated unbounded loop that the
        // empty-calldata case never enters: its witness must show up in
        // the count, and the render line must carry it.
        let src = "PUSH 0\nCALLDATALOAD\nPUSH @loop\nJUMPI\nSTOP\n\
                   loop:\nPUSH 1\nPUSH @loop\nJUMPI\nSTOP\n";
        let gated = FuzzInput::from_code(assemble(src).unwrap());
        let out = run_case(&gated, None);
        assert!(matches!(out.gas_witness, Some((_, false))));

        let report = Fuzzer::new(quick_config(11)).run(&Pool::new(1));
        let line = format!(
            "  suspicious:   {} unexecuted gas witnesses",
            report.suspicious_witnesses
        );
        assert!(report.render().contains(&line), "{}", report.render());
    }

    #[test]
    fn planted_escrow_drift_is_caught() {
        let config = FuzzConfig {
            planted: Some(PlantedBug::EscrowPayoutDrift),
            execs: 64, // differential oracle does the work here
            differential_ops: 300,
            ..quick_config(5)
        };
        let report = Fuzzer::new(config).run(&Pool::new(1));
        assert!(
            report
                .violations
                .iter()
                .any(|c| c.violation.kind() == "native-divergence"),
            "payout drift must diverge: {:?}",
            report.violations
        );
    }
}
