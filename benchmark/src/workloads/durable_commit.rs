//! `durable_commit`: the only workload where `chain::storage` does the
//! work — WAL and log fsync, index rewrite, checkpoint, prune, snapshot,
//! page-in — and crypto does none (`commit` checks no signatures). One
//! repetition writes, recovers and reads one fresh store, so a change
//! that speeds commit but slows reopen or reads shows in the same run.
//!
//! `commit` is not O(1) in chain length; the per-quarter medians and
//! `commit_growth_ratio` keep that on the record instead of averaging it
//! away. `fsync` hits the OS cache in this sandbox: the latencies are the
//! sandbox's, not a device's.

use super::{settle, Acc, Phase, Probe, Rep, Sizes, Workload};
use crate::inputs::{self, InputsDigest};
use crate::trace::Tracer;
use crate::{spanned, stats};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{
    Block, BlockId, ChainQuery, Difficulty, DurableStore, Ether, StoreConfig, CONFIRMATION_DEPTH,
};
use smartcrowd_crypto::{Address, Digest};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Generated inputs of `durable_commit`.
pub struct DurableCommit {
    sizes: Sizes,
    genesis: Block,
    /// Pre-mined blocks in wire form, height 1 first.
    wire: Vec<Vec<u8>>,
    ids: Vec<BlockId>,
    /// Record id → index of the block that carries it.
    block_of: HashMap<Digest, usize>,
    /// Distinct confirmed heights outside the tail an open warms.
    heights: Vec<u64>,
    /// One record id per sampled height, with that height.
    lookups: Vec<(Digest, u64)>,
    payload_bytes: u64,
    block_bytes: u64,
    digest: String,
}

/// Scratch space of this process under `benchmark/out/`.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-{}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for DurableCommit {
    fn setup(seed: u64, sizes: &Sizes) -> Self {
        let keys = inputs::keypairs(seed, "durable_commit", sizes.senders);
        let mut rng = inputs::rng(seed, "durable_commit");
        let per_block = sizes.durable_block_records;
        let total = sizes.durable_blocks * per_block;
        let payloads: Vec<(usize, Vec<u8>)> = (0..total)
            .map(|i| (i, inputs::bytes(&mut rng, sizes.durable_payload)))
            .collect();
        let mut records = smartcrowd_pool::global()
            .par_map(&payloads, |(i, payload)| {
                Record::signed(
                    RecordKind::DetailedReport,
                    payload.clone(),
                    Ether::from_milliether(11),
                    *i as u64,
                    &keys[i % keys.len()],
                )
            })
            .into_iter();
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let miner = Address::from_label("durable-commit");
        let (mut wire, mut ids, mut block_of) = (Vec::new(), Vec::new(), HashMap::new());
        let mut lookup_at: HashMap<u64, Digest> = HashMap::new();
        let mut parent = genesis.clone();
        for b in 0..sizes.durable_blocks {
            let batch: Vec<Record> = records.by_ref().take(per_block).collect();
            batch.iter().for_each(|r| {
                block_of.insert(r.id(), b);
            });
            lookup_at.insert(b as u64 + 1, batch[0].id());
            let ts = parent.header().timestamp + 15;
            let block = Block::assemble(&parent, batch, ts, Difficulty::from_u64(1), miner);
            wire.push(block.encode());
            ids.push(block.id());
            parent = block;
        }
        // Heights that are confirmed and that an open via snapshot has
        // not already paged in (it replays the tail past the snapshot).
        let span = (sizes.durable_blocks as u64)
            .saturating_sub(CONFIRMATION_DEPTH + 1 + 2 * sizes.durable_snapshot_interval)
            .max(1);
        let mut pool: Vec<u64> = (1..=span).collect();
        let heights: Vec<u64> = (0..sizes.reads.min(pool.len()))
            .map(|_| pool.swap_remove(rng.next_below(pool.len() as u64) as usize))
            .collect();
        let mut digest = InputsDigest::new("durable_commit");
        wire.iter().for_each(|w| digest.add(w));
        heights.iter().for_each(|h| digest.add(&h.to_be_bytes()));
        DurableCommit {
            sizes: *sizes,
            genesis,
            lookups: heights.iter().map(|h| (lookup_at[h], *h)).collect(),
            heights,
            payload_bytes: (total * sizes.durable_payload) as u64,
            block_bytes: wire.iter().map(|w| w.len() as u64).sum(),
            wire,
            ids,
            block_of,
            digest: digest.finish(),
        }
    }

    fn inputs_digest(&self) -> &str {
        &self.digest
    }

    fn repetition(&self, t: &mut Tracer, _probe: &Probe, acc: &mut Acc) {
        // One directory per repetition, all removed when the run ends:
        // this filesystem is mounted with online discard, and deleting
        // 9 MB between repetitions lands TRIMs in the next one's fsyncs.
        let dir = scratch_dir().join(format!("durable-{}", acc.reps.len()));
        let _ = std::fs::remove_dir_all(&dir);
        self.run_in(&dir, t, acc);
    }
}

impl Drop for DurableCommit {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(scratch_dir());
    }
}

impl DurableCommit {
    fn config(&self, cache_capacity: usize, snapshots: bool) -> StoreConfig {
        StoreConfig {
            cache_capacity,
            snapshot_interval: if snapshots {
                self.sizes.durable_snapshot_interval
            } else {
                0
            },
        }
    }

    /// Reads every sampled height once and checks each block; returns the
    /// body cache's (hits, misses) over the pass. The cold pass samples
    /// each read, the others their mean (a warm read is too short to
    /// bracket with two clock reads).
    fn read_pass(
        &self,
        store: &DurableStore,
        span: &'static str,
        series: &'static str,
        t: &mut Tracer,
        acc: &mut Acc,
    ) -> (u64, u64) {
        let hits = super::counter("chain.storage.cache.hits");
        let misses = super::counter("chain.storage.cache.misses");
        let (h0, m0) = (hits.get(), misses.get());
        let per_read = series == "read_cold_us";
        let id = t.enter(span);
        let at = Instant::now();
        for &h in &self.heights {
            let one = per_read.then(Instant::now);
            let block = store.canonical_block_at(h);
            if let Some(one) = one {
                acc.sample(series, one.elapsed().as_secs_f64() * 1e6);
            }
            let right = block.is_some_and(|b| b.id() == self.ids[h as usize - 1]);
            acc.expect(right, || {
                format!("read at height {h} returned the wrong block")
            });
        }
        if !per_read {
            acc.sample(
                series,
                at.elapsed().as_secs_f64() * 1e6 / self.heights.len() as f64,
            );
        }
        t.exit(id, self.heights.len() as u64);
        (hits.get() - h0, misses.get() - m0)
    }

    fn run_in(&self, dir: &Path, t: &mut Tracer, acc: &mut Acc) {
        let s = &self.sizes;
        let blocks: Vec<Block> = self
            .wire
            .iter()
            .map(|w| Block::decode(w).expect("pre-mined blocks decode"))
            .collect();
        let opened =
            DurableStore::open_with(dir, &self.genesis, self.config(s.durable_cache, true));
        let Ok(mut store) = opened else {
            acc.fail(1, || format!("fresh store did not open: {opened:?}"));
            return;
        };

        // Write path: one commit per pre-mined block.
        let (mut handed, mut stored) = (Vec::new(), Vec::new());
        let phase = Phase::open(t);
        for block in blocks {
            handed.push(Instant::now());
            let committed = spanned!(t, "chain.storage.commit", 1, store.commit(block));
            stored.push(Instant::now());
            acc.expect(committed.is_ok(), || {
                format!("commit refused: {committed:?}")
            });
        }
        let wall_s = phase.close(t);
        let commit_ms: Vec<f64> = handed
            .iter()
            .zip(&stored)
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect();
        let quarters: Vec<f64> = commit_ms
            .chunks(commit_ms.len().div_ceil(4).max(1))
            .map(stats::median)
            .collect();
        for (name, q) in [
            "commit_ms.q1",
            "commit_ms.q2",
            "commit_ms.q3",
            "commit_ms.q4",
        ]
        .into_iter()
        .zip(&quarters)
        {
            acc.sample(name, *q);
        }
        if let (Some(first), Some(last)) = (quarters.first(), quarters.last()) {
            acc.sample("commit_growth_ratio", last / first);
        }
        acc.sample("commit_ms_p50", stats::median(&commit_ms));
        acc.samples
            .entry("commit_ms")
            .or_default()
            .extend(&commit_ms);
        acc.sample("commit_blocks_per_s", commit_ms.len() as f64 / wall_s);
        acc.exact("disk_bytes", dir_bytes(dir));
        acc.exact("payload_bytes", self.payload_bytes);
        acc.sample("block_bytes", self.block_bytes as f64);
        let (live_tip, live_height) = (store.best_tip(), store.best_height());

        // Maintenance the commits above trigger on a cadence, timed alone.
        let phase = Phase::open(t);
        for _ in 0..2 {
            let at = Instant::now();
            let done = spanned!(t, "chain.storage.write_snapshot", 1, store.write_snapshot());
            acc.sample("write_snapshot_ms", at.elapsed().as_secs_f64() * 1e3);
            acc.expect(done.is_ok(), || format!("write_snapshot failed: {done:?}"));
            let at = Instant::now();
            let done = spanned!(t, "chain.storage.prune", 1, store.prune());
            acc.sample("prune_ms", at.elapsed().as_secs_f64() * 1e3);
            acc.expect(done.is_ok(), || format!("prune failed: {done:?}"));
        }
        phase.close(t);
        drop(store);

        // Recovery: reopens via `state.snap`, then by full replay. The
        // last two snapshot opens stay open as the read handles.
        let mut handles = Vec::new();
        let phase = Phase::open(t);
        for i in 0..s.reopen_snapshot + s.reopen_full {
            let via_snapshot = i < s.reopen_snapshot;
            let thrash = i + 2 == s.reopen_snapshot;
            let cache = if thrash {
                s.durable_cache
            } else {
                s.read_cache_fit
            };
            let (span, series) = if via_snapshot {
                ("chain.storage.reopen_snapshot", "reopen_snapshot_ms")
            } else {
                ("chain.storage.reopen_full", "reopen_full_ms")
            };
            let at = Instant::now();
            let reopened = spanned!(
                t,
                span,
                1,
                DurableStore::open_with(dir, &self.genesis, self.config(cache, via_snapshot))
            );
            acc.sample(series, at.elapsed().as_secs_f64() * 1e3);
            let landed = reopened.as_ref().is_ok_and(|r| {
                r.best_tip() == live_tip
                    && r.best_height() == live_height
                    && r.last_recovery().snapshot_loaded == via_snapshot
            });
            acc.expect(landed, || {
                format!("reopen (snapshot: {via_snapshot}) missed the live tip")
            });
            if let (true, Ok(handle)) = (via_snapshot, reopened) {
                handles.push(handle);
            }
        }
        phase.close(t);
        let (Some(fit), Some(thrash)) = (handles.pop(), handles.pop()) else {
            acc.fail(1, || "no read handles survived the reopens".to_string());
            return;
        };

        // Reads: a cold pass and a pass that fits the cache, two passes
        // over a working set larger than the cache, and record lookups.
        let mut page_ins = 0;
        let phase_span = Phase::open(t);
        let mut pass = |store: &DurableStore, span, series, t: &mut Tracer, acc: &mut Acc| {
            let (hits, misses) = self.read_pass(store, span, series, t, acc);
            page_ins += misses;
            hits as f64 / (hits + misses).max(1) as f64
        };
        pass(&fit, "chain.storage.read_cold", "read_cold_us", t, acc);
        let fit_ratio = pass(&fit, "chain.storage.read_warm", "read_warm_us", t, acc);
        pass(
            &thrash,
            "chain.storage.read_thrash",
            "read_thrash_us",
            t,
            acc,
        );
        let thrash_ratio = pass(
            &thrash,
            "chain.storage.read_thrash",
            "read_thrash_us",
            t,
            acc,
        );
        let at = Instant::now();
        let id = t.enter("chain.storage.find_record");
        for (record, height) in &self.lookups {
            let found = fit.find_record(record);
            acc.expect(found.is_some_and(|l| l.height == *height), || {
                format!("find_record missed a record at height {height}")
            });
        }
        t.exit(id, self.lookups.len() as u64);
        acc.sample(
            "find_record_us",
            at.elapsed().as_secs_f64() * 1e6 / self.lookups.len().max(1) as f64,
        );
        phase_span.close(t);
        acc.sample("cache_hit_ratio.fit", fit_ratio);
        acc.sample("cache_hit_ratio.thrash", thrash_ratio);
        acc.exact("page_ins", page_ins);

        // Every committed record is on the recovered chain exactly once.
        let chain = fit.canonical_blocks();
        let on_chain = settle(acc, &self.block_of, &handed, &stored, chain.iter());
        acc.exact("records_committed", on_chain);
        acc.exact("blocks_committed", fit.best_height());
        acc.reps.push(Rep::new(wall_s, on_chain));
    }
}
