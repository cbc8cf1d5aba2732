//! Kill-loop workhorse for `scripts/crash_loop.sh`.
//!
//! Two modes over one durable store directory:
//!
//! - `store_writer --dir DIR --grow N` — open (seeding genesis on a
//!   fresh directory), then commit N record-bearing blocks. The script
//!   SIGKILLs this mid-commit, so any instruction boundary in the
//!   append-then-fsync protocol can be the crash point.
//! - `store_writer --dir DIR --verify MIN` — reopen the directory
//!   (running recovery), print the recovered best height to stdout, and
//!   fail unless it is at least MIN: a kill must never lose a height the
//!   previous cycle reported durable.
//!
//! Optional tuning, for exercising the paged store under pressure:
//! `--cache N` bounds the evictable block-body cache and
//! `--snapshot-interval N` sets the checkpoint-snapshot cadence
//! (0 disables snapshots).
//!
//! The genesis is deterministic (difficulty 1), so every invocation
//! agrees on the chain the directory holds.

use smartcrowd::chain::pow::Miner;
use smartcrowd::chain::record::{Record, RecordKind};
use smartcrowd::chain::storage::{ChainQuery, StoreConfig};
use smartcrowd::chain::{Block, Difficulty, DurableStore};
use smartcrowd::core::economics::REPORT_FEE;
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::Address;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: store_writer --dir DIR (--grow N | --verify MIN) [--cache N] [--snapshot-interval N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("store_writer: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn store_config(args: &[String]) -> Result<StoreConfig, String> {
    let mut config = StoreConfig::default();
    if let Some(cache) = flag_value(args, "--cache") {
        config.cache_capacity = cache.parse().map_err(|_| USAGE.to_string())?;
    }
    if let Some(interval) = flag_value(args, "--snapshot-interval") {
        config.snapshot_interval = interval.parse().map_err(|_| USAGE.to_string())?;
    }
    Ok(config)
}

fn run(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag_value(args, "--dir").ok_or(USAGE)?);
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let config = store_config(args)?;
    if let Some(n) = flag_value(args, "--grow") {
        let n: u64 = n.parse().map_err(|_| USAGE.to_string())?;
        grow(&dir, &genesis, n, config)
    } else if let Some(min) = flag_value(args, "--verify") {
        let min: u64 = min.parse().map_err(|_| USAGE.to_string())?;
        verify(&dir, &genesis, min, config)
    } else {
        Err(USAGE.to_string())
    }
}

fn grow(dir: &Path, genesis: &Block, n: u64, config: StoreConfig) -> Result<(), String> {
    let mut store = DurableStore::open_with(dir, genesis, config).map_err(|e| e.to_string())?;
    let miner = Miner::new(Address::from_label("crash-loop"));
    for _ in 0..n {
        let parent = store.best_block();
        let height = parent.header().height + 1;
        let kp = KeyPair::from_seed(&height.to_be_bytes());
        let record = Record::signed(
            RecordKind::InitialReport,
            height.to_be_bytes().to_vec(),
            REPORT_FEE,
            height,
            &kp,
        );
        let block = miner
            .mine_next(&parent, vec![record], parent.header().timestamp + 15)
            .map_err(|e| e.to_string())?;
        store.commit(block).map_err(|e| e.to_string())?;
    }
    println!("{}", store.best_height());
    Ok(())
}

fn verify(dir: &Path, genesis: &Block, min: u64, config: StoreConfig) -> Result<(), String> {
    let store = DurableStore::open_with(dir, genesis, config).map_err(|e| e.to_string())?;
    let height = store.best_height();
    println!("{height}");
    if height < min {
        return Err(format!(
            "recovered height {height} is below the previously durable height {min}"
        ));
    }
    Ok(())
}
