//! Chain statistics: the aggregate view dashboards and experiments read.

use crate::amount::Ether;
use crate::storage::ChainQuery;
use smartcrowd_crypto::Address;
use std::collections::BTreeMap;

/// A summary of the canonical chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    /// Canonical height (genesis = 0).
    pub height: u64,
    /// Total blocks stored (all forks).
    pub total_blocks: usize,
    /// Canonical blocks per miner.
    pub blocks_by_miner: BTreeMap<Address, u64>,
    /// Canonical records per kind.
    pub records_by_kind: BTreeMap<&'static str, u64>,
    /// Sum of record fees on the canonical chain.
    pub total_fees: Ether,
    /// Mean inter-block time in seconds (0 for < 2 blocks).
    pub mean_block_interval: f64,
    /// Records in finally-confirmed blocks.
    pub confirmed_records: u64,
}

/// Computes statistics over a store's canonical chain. Works over any
/// [`ChainQuery`] backend.
pub fn chain_stats<Q: ChainQuery + ?Sized>(store: &Q) -> ChainStats {
    let mut blocks_by_miner: BTreeMap<Address, u64> = BTreeMap::new();
    let mut records_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_fees = Ether::ZERO;
    let mut confirmed_records = 0u64;
    let mut timestamps = Vec::new();
    for block in store.canonical_blocks() {
        timestamps.push(block.header().timestamp);
        if block.header().height > 0 {
            *blocks_by_miner.entry(block.header().miner).or_insert(0) += 1;
        }
        let block_confirmed = store.is_confirmed(&block.id());
        for record in block.records() {
            *records_by_kind.entry(record.kind().name()).or_insert(0) += 1;
            total_fees += record.fee();
            if block_confirmed {
                confirmed_records += 1;
            }
        }
    }
    let mean_block_interval = if timestamps.len() >= 2 {
        (timestamps[timestamps.len() - 1] - timestamps[0]) as f64 / (timestamps.len() - 1) as f64
    } else {
        0.0
    };
    ChainStats {
        height: store.best_height(),
        total_blocks: store.block_count(),
        blocks_by_miner,
        records_by_kind,
        total_fees,
        mean_block_interval,
        confirmed_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use crate::record::{Record, RecordKind};
    use crate::store::ChainStore;
    use smartcrowd_crypto::keys::KeyPair;

    fn store_with_activity() -> ChainStore {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let miners = [
            Miner::new(Address::from_label("a")),
            Miner::new(Address::from_label("b")),
        ];
        let mut parent = genesis;
        for i in 0..10u64 {
            let kp = KeyPair::from_seed(&i.to_be_bytes());
            let kind = if i % 2 == 0 {
                RecordKind::InitialReport
            } else {
                RecordKind::Sra
            };
            let record = Record::signed(kind, vec![i as u8], Ether::from_milliether(11), i, &kp);
            let block = miners[(i % 2) as usize]
                .mine_next(&parent, vec![record], parent.header().timestamp + 15)
                .unwrap();
            store.insert(block.clone()).unwrap();
            parent = block;
        }
        store
    }

    #[test]
    fn stats_aggregate_the_canonical_chain() {
        let store = store_with_activity();
        let stats = chain_stats(&store);
        assert_eq!(stats.height, 10);
        assert_eq!(stats.total_blocks, 11);
        assert_eq!(stats.blocks_by_miner.len(), 2);
        assert_eq!(stats.blocks_by_miner.values().sum::<u64>(), 10);
        assert_eq!(stats.records_by_kind["initial-report"], 5);
        assert_eq!(stats.records_by_kind["sra"], 5);
        assert_eq!(stats.total_fees, Ether::from_milliether(110));
        assert!((stats.mean_block_interval - 15.0).abs() < 1e-9);
        // Blocks 1..=4 are final at height 10 → 4 confirmed records.
        assert_eq!(stats.confirmed_records, 4);
    }

    #[test]
    fn genesis_only_store() {
        let store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let stats = chain_stats(&store);
        assert_eq!(stats.height, 0);
        assert!(stats.blocks_by_miner.is_empty());
        assert!(stats.records_by_kind.is_empty());
        assert_eq!(stats.mean_block_interval, 0.0);
    }
}
