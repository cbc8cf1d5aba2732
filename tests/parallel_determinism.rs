//! Thread-count determinism: a seeded validation workload must produce
//! byte-identical results — chain tips AND the full telemetry snapshot —
//! whether it runs on one worker or eight. This is the contract that lets
//! the chaos harness and the economics experiments fan out on the pool
//! without giving up reproducibility (DESIGN.md §13).
//!
//! Owns process-global state (the telemetry registry and the signature
//! cache), so it lives in its own integration-test binary.

use smartcrowd::chain::pow::Miner;
use smartcrowd::chain::record::{Record, RecordKind};
use smartcrowd::chain::validate::{validate_block_with, AcceptAll};
use smartcrowd::chain::{Block, ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::crypto::Address;
use smartcrowd::pool::Pool;
use smartcrowd::telemetry;

/// Records per block: wide enough that Merkle-leaf hashing and the
/// signature fan-out both take their parallel paths (thresholds 64/16).
const WIDTH: u64 = 70;

fn record(seed: u64) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::Transfer,
        vec![seed as u8],
        Ether::from_wei(seed as u128),
        seed,
        &kp,
    )
}

/// One seeded workload: two wide blocks mined, each validated twice (the
/// second pass exercises the warm signature cache) and inserted. Returns
/// the final tip plus the rendered telemetry table.
fn seeded_run(pool: &Pool) -> (String, String) {
    telemetry::global().reset();
    smartcrowd::chain::sigcache::reset();
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("det"));
    let mut parent = genesis;
    for height in 0..2u64 {
        let records: Vec<Record> = (0..WIDTH).map(|i| record(height * WIDTH + i)).collect();
        let block = miner
            .mine_next(&parent, records, parent.header().timestamp + 15)
            .unwrap();
        validate_block_with(&store, &block, &AcceptAll, pool).unwrap();
        validate_block_with(&store, &block, &AcceptAll, pool).unwrap();
        store.insert(block.clone()).unwrap();
        parent = block;
    }
    let tip = format!("{:?}", store.best_tip());
    let table = telemetry::global().snapshot().render_table();
    (tip, table)
}

#[test]
fn same_seed_runs_are_identical_across_thread_counts() {
    let (tip_1, table_1) = seeded_run(&Pool::new(1));
    let (tip_8, table_8) = seeded_run(&Pool::new(8));
    assert_eq!(tip_1, tip_8, "chain tip must not depend on thread count");
    assert_eq!(
        table_1, table_8,
        "telemetry snapshot must be byte-identical across thread counts"
    );
    // The run actually took the cached/parallel paths it claims to test.
    assert!(
        table_8.contains("chain.sigcache.hit"),
        "expected sigcache hits in:\n{table_8}"
    );
    assert!(
        table_8.contains("pool.tasks"),
        "expected pool fan-out in:\n{table_8}"
    );
}
