//! The five workloads, the one table of their sizes, and the closed loop
//! that drives them.
//!
//! Load shape: one driver thread calls the program and waits for each
//! call to return; the program's own `smartcrowd_pool::global()` workers
//! are the only other threads. A run sets up (all client work: keys,
//! signatures, warm verification, pre-mining), then repeats one fixed
//! unit of work — a *repetition* — until `--seconds` is used up, so every
//! repetition does identical work and rates compare like for like. No
//! crate ever learns a workload's name.

pub mod durable_commit;
pub mod fleet_gossip;
pub mod ingest_cold;
pub mod lifecycle;
pub mod relay_warm;

use crate::stats;
use crate::trace::{Span, SpanId, Tracer, ROOT};
use smartcrowd_chain::mempool::Mempool;
use smartcrowd_chain::record::Record;
use smartcrowd_chain::Block;
use smartcrowd_crypto::Digest;
use smartcrowd_telemetry::{buckets, global, Counter, Histogram, TimeSource};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Every size of every workload. `FULL` is what the benchmark runs;
/// `SMOKE` (about 1/50) is what `cargo test` runs.
///
/// ISSUE 11 sized single timed phases for 15–25 s each; the acceptance
/// driver caps a whole run (set-up included) near 25 s and wants
/// `--seconds` honoured, so the set sizes below are cut to repeat at
/// many times inside that budget (a run reports the better end of its
/// repetitions, which needs ten or so of them): `ingest_cold` 8192→512
/// records, `relay_warm` 2048→1024, `durable_commit` 4000→1000 blocks
/// and 512→256 reads, `lifecycle` 64→2 releases per platform,
/// `fleet_gossip` unchanged. The shape of each workload (burst, block
/// and cache sizes) is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct signing keys behind the transfer records.
    pub senders: usize,
    /// Payload bytes of a small transfer record.
    pub transfer_payload: usize,
    /// Records per `insert_batch` burst.
    pub burst: usize,
    /// Records per sealed block (`ingest_cold`, `relay_warm`).
    pub block_records: usize,
    /// Mempool capacity when nothing should evict.
    pub pool_capacity: usize,
    /// `ingest_cold`: records per repetition.
    pub ingest_records: usize,
    /// `relay_warm`: records in the pre-verified set.
    pub relay_records: usize,
    /// `relay_warm`: filling passes per repetition; one evicting pass
    /// (capacity `relay_records / 2`, ascending fees) follows them.
    pub relay_fill_passes: usize,
    /// `durable_commit`: blocks committed per repetition.
    pub durable_blocks: usize,
    /// `durable_commit`: records per block.
    pub durable_block_records: usize,
    /// `durable_commit`: payload bytes per record.
    pub durable_payload: usize,
    /// `durable_commit`: body cache while committing, and for the
    /// thrashing read passes.
    pub durable_cache: usize,
    /// `durable_commit`: checkpoint heights between snapshots.
    pub durable_snapshot_interval: u64,
    /// `durable_commit`: reopens through `state.snap` per repetition.
    pub reopen_snapshot: usize,
    /// `durable_commit`: full-replay reopens per repetition.
    pub reopen_full: usize,
    /// `durable_commit`: heights read per pass, and `find_record` lookups.
    pub reads: usize,
    /// `durable_commit`: body cache that fits every sampled height.
    pub read_cache_fit: usize,
    /// `lifecycle`: systems released per repetition (one fresh platform).
    pub releases: usize,
    /// `lifecycle`: detectors reporting on every release.
    pub detectors: usize,
    /// `lifecycle`: blocks mined after each report wave (> finality).
    pub confirm_blocks: usize,
    /// `fleet_gossip`: provider nodes.
    pub nodes: usize,
    /// `fleet_gossip`: records injected per repetition.
    pub fleet_records: usize,
    /// `fleet_gossip`: records per mined block.
    pub fleet_block_records: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        senders: 32,
        transfer_payload: 48,
        burst: 512,
        block_records: 256,
        pool_capacity: 4096,
        ingest_records: 512,
        relay_records: 1024,
        relay_fill_passes: 3,
        durable_blocks: 1000,
        durable_block_records: 4,
        durable_payload: 2048,
        durable_cache: 64,
        durable_snapshot_interval: 128,
        reopen_snapshot: 3,
        reopen_full: 1,
        reads: 256,
        read_cache_fit: 1024,
        releases: 2,
        detectors: 16,
        confirm_blocks: 8,
        nodes: 5,
        fleet_records: 1024,
        fleet_block_records: 64,
    };

    /// About 1/50 of [`Sizes::FULL`], for the smoke tests.
    #[cfg(test)]
    pub const SMOKE: Sizes = Sizes {
        senders: 4,
        transfer_payload: 48,
        burst: 10,
        block_records: 5,
        pool_capacity: 4096,
        ingest_records: 20,
        relay_records: 20,
        relay_fill_passes: 1,
        durable_blocks: 40,
        durable_block_records: 2,
        durable_payload: 256,
        durable_cache: 4,
        durable_snapshot_interval: 8,
        reopen_snapshot: 2,
        reopen_full: 1,
        reads: 8,
        read_cache_fit: 64,
        releases: 1,
        detectors: 2,
        confirm_blocks: 8,
        nodes: 5,
        fleet_records: 20,
        fleet_block_records: 4,
    };
}

/// One repetition's headline numbers.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall time of the timed phase `records_per_s` is taken over.
    pub wall_s: f64,
    /// Records on the final canonical chain (every node's, for a fleet).
    pub records: u64,
    /// Whether spans were recorded during it (set by [`drive`]).
    pub traced: bool,
    /// Median submit→commit latency of its records (set by [`drive`]).
    pub p50_ms: f64,
}

impl Rep {
    /// A repetition's result as a workload reports it.
    pub fn new(wall_s: f64, records: u64) -> Rep {
        Rep {
            wall_s,
            records,
            traced: false,
            p50_ms: 0.0,
        }
    }
}

/// Everything the repetitions of one run accumulate.
#[derive(Debug, Default)]
pub struct Acc {
    /// One entry per repetition.
    pub reps: Vec<Rep>,
    /// Submit→commit latency of every committed record, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Operations attempted (records offered, reopens, reads, checks).
    pub attempted: u64,
    /// Operations that errored, were dropped, or missed a check.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// Named sample series for workload-specific metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Seed-determined counts; must come out the same every repetition.
    pub counts: BTreeMap<&'static str, u64>,
    /// Signature-cache hits at the ingest boundary.
    pub ingest_hits: u64,
    /// Signature-cache misses at the ingest boundary.
    pub ingest_misses: u64,
}

impl Acc {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations with a description.
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(what());
        }
    }

    /// One checked operation: attempted, and failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(1, what);
        }
    }

    /// Appends to a named sample series.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Records a count that only the seed and the code determine; a
    /// repetition that disagrees with an earlier one is a failure.
    pub fn exact(&mut self, name: &'static str, value: u64) {
        let first = *self.counts.entry(name).or_insert(value);
        self.expect(first == value, || {
            format!("{name} was {first} in an earlier repetition, now {value}")
        });
    }

    /// Median of a sample series (0 when absent).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Better-end decile of a sample series (0 when absent).
    pub fn best(&self, name: &str, lower_is_better: bool) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| stats::best_decile(v, lower_is_better))
    }
}

/// Cheap reads of the program's public telemetry at span boundaries.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    hit: &'static Counter,
    miss: &'static Counter,
    sig_par_us: &'static Histogram,
    /// `sigcache::contains` cost from the micro-section (0 untraced).
    pub lookup_ns: f64,
    /// `sigcache::insert` cost from the micro-section (0 untraced).
    pub insert_ns: f64,
}

/// Telemetry readings taken before an ingest call.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    hit: u64,
    miss: u64,
    sig_par: Option<(u64, u64)>,
}

/// The program's counter registered under `name`.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name, &[])
}

impl Probe {
    /// Handles on the counters the harness reads.
    pub fn new(lookup_ns: f64, insert_ns: f64) -> Self {
        Probe {
            hit: counter("chain.sigcache.hit"),
            miss: counter("chain.sigcache.miss"),
            sig_par_us: global().histogram(
                "chain.mempool.batch.sig_par.time_us",
                &[],
                buckets::TIME_US,
            ),
            lookup_ns,
            insert_ns,
        }
    }

    /// Readings before an ingest call.
    pub fn mark(&self, t: &Tracer) -> Mark {
        Mark {
            hit: self.hit.get(),
            miss: self.miss.get(),
            sig_par: t.on().then(|| {
                let h = self.sig_par_us.snapshot();
                (h.count, h.sum)
            }),
        }
    }

    /// After an ingest call, still inside its span: counts the cache
    /// outcome, and in a traced repetition splits the call. The program
    /// times its own signature pass (`chain.mempool.batch.sig_par`, wall
    /// clock on in traced repetitions); that time becomes a
    /// `chain.sigcache.verify_batch` child, and the part of it that is
    /// not cache bookkeeping (lookups and inserts at their micro-section
    /// cost) becomes its `crypto.ecdsa.recover` child.
    pub fn ingested(&self, t: &mut Tracer, span: SpanId, since: Mark, acc: &mut Acc) {
        let hits = self.hit.get() - since.hit;
        let misses = self.miss.get() - since.miss;
        acc.ingest_hits += hits;
        acc.ingest_misses += misses;
        let Some((count, sum)) = since.sig_par else {
            return;
        };
        let h = self.sig_par_us.snapshot();
        if h.count == count {
            return;
        }
        let verify_ns = (h.sum - sum) * 1_000;
        let verify = t.measured(
            span,
            "chain.sigcache.verify_batch",
            verify_ns,
            hits + misses,
        );
        if misses > 0 {
            let bookkeeping =
                (hits + misses) as f64 * self.lookup_ns + misses as f64 * self.insert_ns;
            let crypto_ns = (verify_ns as f64 - bookkeeping).max(0.0) as u64;
            t.measured(verify, "crypto.ecdsa.recover", crypto_ns, misses);
        }
    }
}

/// One workload: seeded set-up, then identical repetitions.
pub trait Workload: Sized {
    /// All client work, from the seed. Leaves the process-wide signature
    /// cache in the state the repetitions expect.
    fn setup(seed: u64, sizes: &Sizes) -> Self;

    /// sha256 over the encoded generated inputs.
    fn inputs_digest(&self) -> &str;

    /// One repetition: untimed preparation, the timed phase(s) under
    /// root spans, then the correctness checks.
    fn repetition(&self, t: &mut Tracer, probe: &Probe, acc: &mut Acc);
}

/// An open timed phase: a root span plus the wall clock for the
/// untraced run.
#[derive(Debug)]
pub struct Phase {
    span: SpanId,
    start: Instant,
}

impl Phase {
    /// Starts the clock.
    pub fn open(t: &mut Tracer) -> Phase {
        Phase {
            span: t.enter(ROOT),
            start: Instant::now(),
        }
    }

    /// Stops the clock and returns the phase's wall seconds.
    pub fn close(self, t: &mut Tracer) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        t.exit(self.span, 0);
        wall
    }
}

/// Checks a finished chain against what was offered, and turns commit
/// instants into per-record latencies.
///
/// `expected` maps every record that must be on the chain to the group
/// (burst, injection, submit call) it was handed over in; `handed[g]` is
/// when that call started; `stored[h - 1]` is when the call that stored
/// the block at height `h` returned. Each expected record must appear
/// exactly once and nothing else may appear. Returns the records found.
pub fn settle<'a>(
    acc: &mut Acc,
    expected: &HashMap<Digest, usize>,
    handed: &[Instant],
    stored: &[Instant],
    blocks: impl Iterator<Item = &'a Block>,
) -> u64 {
    let mut seen: HashSet<Digest> = HashSet::with_capacity(expected.len());
    let mut on_chain = 0u64;
    for block in blocks {
        let height = block.header().height as usize;
        if height == 0 {
            continue;
        }
        for record in block.records() {
            on_chain += 1;
            let id = record.id();
            match (expected.get(&id), stored.get(height - 1)) {
                (Some(&group), Some(&at)) if seen.insert(id) => {
                    let ms = at.duration_since(handed[group]).as_secs_f64() * 1e3;
                    acc.latency_ms.push(ms);
                }
                _ => acc.fail(1, || {
                    format!("unexpected or repeated record at height {height}")
                }),
            }
        }
    }
    acc.attempt(expected.len() as u64);
    let missing = expected.len() as u64 - seen.len() as u64;
    if missing > 0 {
        acc.fail(missing, || {
            format!("{missing} offered records never committed")
        });
    }
    on_chain
}

/// Admits one burst through `Mempool::insert_batch` under a span and
/// counts rejected records as failures.
pub fn ingest_burst(
    pool: &mut Mempool,
    burst: Vec<Record>,
    span_name: &'static str,
    t: &mut Tracer,
    probe: &Probe,
    acc: &mut Acc,
) {
    let n = burst.len() as u64;
    let span = t.enter(span_name);
    let since = probe.mark(t);
    let verdicts = pool.insert_batch(burst);
    probe.ingested(t, span, since, acc);
    t.exit(span, n);
    let rejected = verdicts.iter().filter(|v| v.is_err()).count() as u64;
    if rejected > 0 {
        acc.fail(rejected, || {
            format!("{rejected} records rejected at admission")
        });
    }
}

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Set-ups to time at least (the median is `setup_s`). With more
    /// than one asked for, short set-ups are repeated until they add up
    /// to [`SETUP_BUDGET_S`] (at most [`MAX_SETUPS`] times): a 30 ms
    /// set-up timed three times does not repeat within a tenth.
    pub setups: usize,
    /// Workload sizes.
    pub sizes: Sizes,
}

/// Seconds of set-up a run times before it settles for the median.
pub const SETUP_BUDGET_S: f64 = 2.5;
/// Most set-ups a run times.
pub const MAX_SETUPS: usize = 40;

/// What a run measured, before metrics are derived from it.
#[derive(Debug)]
pub struct Outcome {
    /// Median set-up wall time.
    pub setup_s: f64,
    /// Peak resident set after set-up and the first repetition, MiB.
    /// Later repetitions redo the same work on fresh structures; what
    /// grows after the first is the harness's own sample store, which
    /// would make the figure depend on how many repetitions fit.
    pub peak_rss_mb: f64,
    /// Digest of the generated inputs.
    pub inputs_digest: String,
    /// Accumulated repetition results.
    pub acc: Acc,
    /// Spans of the traced repetitions.
    pub spans: Vec<Span>,
}

/// Sets up `W` (several times, for a steady `setup_s`), then repeats it
/// until the budget is used: a repetition starts only while the time
/// used plus an average repetition still fits. A traced run alternates
/// untraced and traced repetitions, so that the ratio of their walls is
/// the tracing overhead measured within one process.
pub fn drive<W: Workload>(cfg: &RunConfig, probe: &Probe) -> Outcome {
    let mut acc = Acc::default();
    let mut setups_s = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    let mut workload = None;
    loop {
        drop(workload.take());
        let start = Instant::now();
        let w = W::setup(cfg.seed, &cfg.sizes);
        setups_s.push(start.elapsed().as_secs_f64());
        digests.push(w.inputs_digest().to_string());
        workload = Some(w);
        let more = cfg.setups > 1
            && setups_s.iter().sum::<f64>() < SETUP_BUDGET_S
            && setups_s.len() < MAX_SETUPS;
        if setups_s.len() >= cfg.setups && !more {
            break;
        }
    }
    let workload = workload.expect("at least one set-up");
    acc.expect(digests.iter().all(|d| *d == digests[0]), || {
        "set-up is not a pure function of the seed".to_string()
    });

    let mut tracer = Tracer::new(false);
    let mut peak_rss_mb = 0.0;
    let min_reps = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    loop {
        let done = acc.reps.len();
        let used = start.elapsed().as_secs_f64();
        let fits = used + used / done.max(1) as f64 <= cfg.seconds;
        let pair_open = cfg.trace && done % 2 == 1;
        if done >= min_reps && !pair_open && !fits {
            break;
        }
        let traced = cfg.trace && done % 2 == 1;
        let latencies_before = acc.latency_ms.len();
        tracer.set_on(traced);
        tracer.set_rep(done as u32);
        smartcrowd_telemetry::set_time_source(if traced {
            TimeSource::Wall
        } else {
            TimeSource::Off
        });
        workload.repetition(&mut tracer, probe, &mut acc);
        if done == 0 {
            peak_rss_mb = crate::env::peak_rss_mb();
        }
        let p50_ms = stats::median(&acc.latency_ms[latencies_before..]);
        match acc.reps.get_mut(done) {
            Some(rep) => (rep.traced, rep.p50_ms) = (traced, p50_ms),
            None => {
                acc.fail(1, || "repetition recorded no result".to_string());
                break;
            }
        }
    }
    smartcrowd_telemetry::set_time_source(TimeSource::Off);
    Outcome {
        setup_s: stats::median(&setups_s),
        peak_rss_mb,
        inputs_digest: digests.swap_remove(0),
        acc,
        spans: tracer.into_spans(),
    }
}

/// The workload names, in report order.
pub fn names() -> impl Iterator<Item = &'static str> {
    crate::metrics::WORKLOADS.iter().map(|w| w.0)
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunConfig, probe: &Probe) -> Option<Outcome> {
    Some(match name {
        "ingest_cold" => drive::<ingest_cold::IngestCold>(cfg, probe),
        "relay_warm" => drive::<relay_warm::RelayWarm>(cfg, probe),
        "durable_commit" => drive::<durable_commit::DurableCommit>(cfg, probe),
        "lifecycle" => drive::<lifecycle::Lifecycle>(cfg, probe),
        "fleet_gossip" => drive::<fleet_gossip::FleetGossip>(cfg, probe),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunResult;
    use crate::trace;
    use std::sync::Mutex;

    /// The workloads share process-wide state (signature cache, telemetry
    /// time source, scratch directory), so the smoke runs take turns.
    static TURN: Mutex<()> = Mutex::new(());

    fn smoke(name: &str, seed: u64, trace: bool) -> Outcome {
        let _turn = TURN.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = RunConfig {
            seed,
            seconds: 0.0,
            trace,
            setups: 1,
            sizes: Sizes::SMOKE,
        };
        run(name, &cfg, &Probe::new(30.0, 60.0)).expect("known workload")
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for name in names() {
            let outcome = smoke(name, 7, false);
            let acc = &outcome.acc;
            assert_eq!(acc.failed, 0, "{name}: {:?}", acc.errors);
            assert!(acc.attempted > 0 && !acc.latency_ms.is_empty(), "{name}");
            assert!(
                acc.reps.iter().all(|r| r.records > 0 && r.wall_s > 0.0),
                "{name}"
            );
            let result = RunResult::from_outcome(name, 7, false, &outcome, &BTreeMap::new());
            assert!(result.correct, "{name}");
            for metric in crate::metrics::gated(name) {
                let value = result.metrics.get(metric.name).copied();
                assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{name}: {} = {value:?}",
                    metric.name
                );
            }
        }
    }

    #[test]
    fn traced_smoke_runs_attribute_their_time() {
        for name in names() {
            let outcome = smoke(name, 7, true);
            assert_eq!(outcome.acc.failed, 0, "{name}: {:?}", outcome.acc.errors);
            assert_eq!(
                outcome.acc.reps.len(),
                2,
                "{name}: one untraced, one traced"
            );
            let shares = trace::layer_shares(&outcome.spans);
            let sum: f64 = shares.values().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}: shares sum to {sum}");
            let result = RunResult::from_outcome(name, 7, true, &outcome, &BTreeMap::new());
            let named: Vec<&str> = crate::metrics::PER_LAYER.iter().map(|p| p.0).collect();
            assert_eq!(
                result
                    .metrics
                    .keys()
                    .map(String::as_str)
                    .collect::<HashSet<_>>(),
                named.into_iter().collect()
            );
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for name in names() {
            let (a, b, c) = (
                smoke(name, 7, false),
                smoke(name, 7, false),
                smoke(name, 8, false),
            );
            assert_eq!(a.inputs_digest, b.inputs_digest, "{name}");
            assert_ne!(a.inputs_digest, c.inputs_digest, "{name}");
            assert_eq!(a.acc.counts, b.acc.counts, "{name}");
        }
    }
}
