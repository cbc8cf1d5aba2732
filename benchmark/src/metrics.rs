//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same tables for the acceptance driver; a unit test keeps
//! the two from drifting apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ingest_cold",
        "fresh uniquely-signed records through the single-node funnel: every record pays one ECDSA recovery, so crypto is ~all of the work",
    ),
    (
        "relay_warm",
        "pre-verified records relayed miner to receiver incl. evicting passes: crypto ~0, so mempool, codec, Merkle, validation and store each move the number",
    ),
    (
        "durable_commit",
        "pre-mined 8 KiB blocks into a fresh DurableStore, then reopens and cold/warm/thrashing reads: only chain::storage works, crypto does none",
    ),
    (
        "lifecycle",
        "paper Phases 1-4 on one Platform (release, R-dagger, R-star, payouts): the only path through vm, AutoVerif and Platform; serial and signature-bound",
    ),
    (
        "fleet_gossip",
        "5 ProviderNodes over GossipNet with pre-verified records and round-robin mining: message counts and N-fold block handling dominate",
    ),
];

/// An end-to-end metric: measured with tracing off, gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined for all five; none is ever 0. The bounds on the three
/// timings are three times the widest run-to-run spread measured on the
/// shared sandbox (benchmark/README.md, *Steadiness*).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "submit_to_commit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// User-visible numbers of one workload only. The driver's contract has
/// no per-workload end-to-end metrics, so it sees these as per-layer
/// (`chain.storage.*`); `compare` still gates them with these bounds.
pub const DURABLE_END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "chain.storage.commit_blocks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "chain.storage.commit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "chain.storage.reopen_snapshot_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "chain.storage.reopen_full_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "chain.storage.read_cold_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "chain.storage.disk_bytes_per_payload_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
];

/// A per-layer metric: printed by the traced run, never gated.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Per-layer metrics in report order. A workload that does not reach a
/// layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    ("crypto.ecdsa.recover_us", "us", Lower),
    ("crypto.ecdsa.verify_us", "us", Lower),
    ("crypto.ecdsa.sign_us", "us", Lower),
    ("crypto.keccak256.mb_per_s", "MB/s", Higher),
    ("crypto.sha256.mb_per_s", "MB/s", Higher),
    ("crypto.merkle.build_us_per_leaf", "us", Lower),
    ("chain.sigcache.verify_batch_s", "s", Lower),
    ("chain.sigcache.hit_ratio", "ratio", Higher),
    ("chain.sigcache.lookup_us", "us", Lower),
    ("chain.mempool.insert_batch_s", "s", Lower),
    ("chain.mempool.insert_us_per_record", "us", Lower),
    ("chain.mempool.evict_us_per_op", "us", Lower),
    ("chain.mempool.take_best_s", "s", Lower),
    ("chain.mempool.take_best_us_per_record", "us", Lower),
    ("chain.mempool.remove_included_s", "s", Lower),
    ("chain.block.assemble_s", "s", Lower),
    ("chain.block.assemble_us_per_record", "us", Lower),
    ("chain.codec.encode_s", "s", Lower),
    ("chain.codec.decode_s", "s", Lower),
    ("chain.codec.bytes_per_record", "B", Lower),
    ("chain.validate.validate_block_s", "s", Lower),
    ("chain.validate.us_per_record", "us", Lower),
    ("chain.store.insert_s", "s", Lower),
    ("chain.store.insert_us_per_block", "us", Lower),
    ("chain.storage.commit_blocks_per_s", "1/s", Higher),
    ("chain.storage.commit_s", "s", Lower),
    ("chain.storage.commit_ms_p50", "ms", Lower),
    ("chain.storage.commit_ms_p99", "ms", Lower),
    ("chain.storage.commit_ms_max", "ms", Lower),
    ("chain.storage.commit_ms_p50.q1", "ms", Lower),
    ("chain.storage.commit_ms_p50.q2", "ms", Lower),
    ("chain.storage.commit_ms_p50.q3", "ms", Lower),
    ("chain.storage.commit_ms_p50.q4", "ms", Lower),
    ("chain.storage.commit_growth_ratio", "ratio", Lower),
    ("chain.storage.write_snapshot_ms", "ms", Lower),
    ("chain.storage.prune_ms", "ms", Lower),
    ("chain.storage.reopen_snapshot_ms", "ms", Lower),
    ("chain.storage.reopen_full_ms", "ms", Lower),
    ("chain.storage.read_cold_us", "us", Lower),
    ("chain.storage.read_warm_us", "us", Lower),
    ("chain.storage.read_thrash_us", "us", Lower),
    ("chain.storage.find_record_us", "us", Lower),
    ("chain.storage.cache_hit_ratio.fit", "ratio", Higher),
    ("chain.storage.cache_hit_ratio.thrash", "ratio", Higher),
    ("chain.storage.page_ins", "count", Lower),
    ("chain.storage.bytes_per_block_byte", "ratio", Lower),
    ("chain.storage.disk_bytes_per_payload_byte", "ratio", Lower),
    ("vm.escrow_deploy_us", "us", Lower),
    ("vm.escrow_payout_us", "us", Lower),
    ("vm.registry_submit_us", "us", Lower),
    ("vm.gas_per_payout", "count", Lower),
    ("detect.autoverif_us", "us", Lower),
    ("detect.system_build_us", "us", Lower),
    ("core.platform.release_system_ms", "ms", Lower),
    ("core.platform.submit_initial_ms", "ms", Lower),
    ("core.platform.submit_detailed_ms", "ms", Lower),
    ("core.platform.mine_block_ms", "ms", Lower),
    ("core.platform.payouts", "count", Higher),
    ("core.node.handle_batch_s", "s", Lower),
    ("core.node.handle_record_us", "us", Lower),
    ("core.node.handle_block_ms", "ms", Lower),
    ("core.node.mine_ms", "ms", Lower),
    ("core.node.records_dropped", "count", Lower),
    ("net.gossip.broadcast_us", "us", Lower),
    ("net.gossip.drain_us_per_delivery", "us", Lower),
    ("net.gossip.deliveries_per_record", "ratio", Lower),
    ("net.gossip.rounds_per_rep", "count", Lower),
    ("telemetry.counter_inc_ns", "ns", Lower),
    ("telemetry.snapshot_ms", "ms", Lower),
    ("pool.threads", "count", Higher),
    ("pool.par_map_overhead_us", "us", Lower),
    ("stage.crypto.share", "ratio", Lower),
    ("stage.chain.sigcache.share", "ratio", Lower),
    ("stage.chain.mempool.share", "ratio", Lower),
    ("stage.chain.block.share", "ratio", Lower),
    ("stage.chain.codec.share", "ratio", Lower),
    ("stage.chain.validate.share", "ratio", Lower),
    ("stage.chain.store.share", "ratio", Lower),
    ("stage.chain.storage.share", "ratio", Lower),
    ("stage.core.platform.share", "ratio", Lower),
    ("stage.core.node.share", "ratio", Lower),
    ("stage.net.share", "ratio", Lower),
    ("stage.unattributed.share", "ratio", Lower),
    ("trace.overhead_ratio", "ratio", Lower),
    ("failed_ops_share", "ratio", Lower),
    ("submit_to_commit_ms_p99", "ms", Lower),
];

/// The unit of a metric the harness knows, for printing.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Every metric `compare` gates for `workload`: the universal end-to-end
/// set plus, for `durable_commit`, its own user-visible numbers.
pub fn gated(workload: &str) -> Vec<EndToEnd> {
    let mut out = END_TO_END.to_vec();
    if workload == "durable_commit" {
        out.extend_from_slice(DURABLE_END_TO_END);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{field, number, text};

    /// `BENCHMARK.json` states these tables for the acceptance driver.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| match field(&doc, key) {
            Some(serde_json::Value::Array(rows)) => rows.clone(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        };
        let names = |key: &str| -> Vec<String> {
            rows(key)
                .iter()
                .map(|r| text(r, "name").expect("name"))
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        for (row, (_, why)) in rows("workloads").iter().zip(WORKLOADS) {
            assert_eq!(text(row, "why").as_deref(), Some(*why));
            assert!(why.len() <= 200);
        }
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (row, m) in rows("end_to_end").iter().zip(END_TO_END) {
            assert_eq!(text(row, "unit").as_deref(), Some(m.unit));
            assert_eq!(text(row, "better").as_deref(), Some(m.better.word()));
            assert_eq!(field(row, "bound").and_then(number), Some(m.bound));
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (row, m) in rows("per_layer").iter().zip(PER_LAYER) {
            assert_eq!(text(row, "unit").as_deref(), Some(m.1));
            assert_eq!(text(row, "better").as_deref(), Some(m.2.word()));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for m in DURABLE_END_TO_END {
            assert!(PER_LAYER.iter().any(|p| p.0 == m.name), "{}", m.name);
        }
    }
}
