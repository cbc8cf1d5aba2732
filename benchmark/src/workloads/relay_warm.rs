//! `relay_warm`: the post-gossip path every node runs on every block it
//! receives. The record set was verified once in set-up (through the real
//! `sigcache::verify_batch`), so crypto does almost nothing and the
//! mempool, codec, Merkle assembly, structural validation, the store
//! index and telemetry overhead each move the number.
//!
//! One repetition is a fixed cycle of passes over the set, each with a
//! fresh miner pool, receiver pool and receiver store: the miner and the
//! receiver both ingest the gossip bursts; the miner seals blocks
//! (`take_best` → `assemble` → `encode`), the receiver handles them
//! (`decode` into fresh instances → `validate_block` → `insert` →
//! `remove_included`). The last pass of the cycle runs both pools at half
//! the set size with fees ascending, so every insert of its second half
//! evicts — the mempool used three ways (fill, evict, select) in one
//! number, and a gain for one use that costs another shows.

use super::{ingest_burst, settle, Acc, Phase, Probe, Rep, Sizes, Workload};
use crate::inputs::{self, InputsDigest};
use crate::spanned;
use crate::trace::Tracer;
use smartcrowd_chain::mempool::Mempool;
use smartcrowd_chain::record::Record;
use smartcrowd_chain::validate::{validate_block, AcceptAll};
use smartcrowd_chain::{sigcache, Block, ChainStore, Difficulty};
use smartcrowd_crypto::{Address, Digest};
use std::collections::HashMap;
use std::time::Instant;

/// Generated inputs of `relay_warm`.
pub struct RelayWarm {
    sizes: Sizes,
    wire: Vec<Vec<u8>>,
    /// Input indices by ascending fee (the evicting pass's offer order).
    by_fee: Vec<usize>,
    ids: Vec<Digest>,
    digest: String,
}

impl Workload for RelayWarm {
    fn setup(seed: u64, sizes: &Sizes) -> Self {
        let keys = inputs::keypairs(seed, "relay_warm", sizes.senders);
        let mut rng = inputs::rng(seed, "relay_warm");
        let drafts = inputs::drafts(
            &mut rng,
            sizes.relay_records,
            keys.len(),
            sizes.transfer_payload,
        );
        let records = inputs::sign_transfers(&drafts, &keys);
        let wire = inputs::to_wire(&records);
        // The one verification these records ever get.
        sigcache::reset();
        let refs: Vec<&Record> = records.iter().collect();
        let verdicts = sigcache::verify_batch(&refs, smartcrowd_pool::global());
        assert!(
            verdicts.iter().all(Result::is_ok),
            "generated records verify"
        );
        let mut by_fee: Vec<usize> = (0..records.len()).collect();
        by_fee.sort_by_key(|&i| (records[i].fee(), std::cmp::Reverse(records[i].id())));
        let mut digest = InputsDigest::new("relay_warm");
        wire.iter().for_each(|w| digest.add(w));
        RelayWarm {
            sizes: *sizes,
            ids: records.iter().map(Record::id).collect(),
            wire,
            by_fee,
            digest: digest.finish(),
        }
    }

    fn inputs_digest(&self) -> &str {
        &self.digest
    }

    fn repetition(&self, t: &mut Tracer, probe: &Probe, acc: &mut Acc) {
        let s = &self.sizes;
        let input_order: Vec<usize> = (0..self.wire.len()).collect();
        let (hits, misses) = (acc.ingest_hits, acc.ingest_misses);
        let (mut wall_s, mut records) = (0.0, 0);
        for pass in 0..=s.relay_fill_passes {
            let evicting = pass == s.relay_fill_passes;
            let (order, capacity) = if evicting {
                (&self.by_fee, self.wire.len() / 2)
            } else {
                (&input_order, s.pool_capacity)
            };
            let (w, r) = self.pass(order, capacity, evicting, t, probe, acc);
            wall_s += w;
            records += r;
        }
        // The design of this workload: every record was verified before.
        let (hits, misses) = (acc.ingest_hits - hits, acc.ingest_misses - misses);
        acc.expect(misses == 0 && hits > 0, || {
            format!("warm relay saw {misses} cache misses, {hits} hits")
        });
        acc.exact("records_committed", records);
        acc.reps.push(Rep::new(wall_s, records));
    }
}

impl RelayWarm {
    /// One pass over the set in `order` with pools of `capacity`; returns
    /// its wall seconds and the records on the receiver's chain.
    fn pass(
        &self,
        order: &[usize],
        capacity: usize,
        evicting: bool,
        t: &mut Tracer,
        probe: &Probe,
        acc: &mut Acc,
    ) -> (f64, u64) {
        let s = &self.sizes;
        let fresh = |order: &[usize]| -> Vec<Vec<Record>> {
            order
                .chunks(s.burst)
                .map(|c| {
                    c.iter()
                        .map(|&i| Record::decode(&self.wire[i]).expect("generated records decode"))
                        .collect()
                })
                .collect()
        };
        let (miner_bursts, receiver_bursts) = (fresh(order), fresh(order));
        // Records that survive: everything, or — offered by ascending fee
        // into half the room — the later, better-paying half.
        let burst_of: HashMap<Digest, usize> = order
            .iter()
            .enumerate()
            .skip(order.len().saturating_sub(capacity))
            .map(|(pos, &i)| (self.ids[i], pos / s.burst))
            .collect();
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut miner_pool = Mempool::new(capacity);
        let mut receiver_pool = Mempool::new(capacity);
        let miner = Address::from_label("relay-warm");
        let (mut handed, mut stored) = (Vec::new(), Vec::new());

        let phase = Phase::open(t);
        for (mine, theirs) in miner_bursts.into_iter().zip(receiver_bursts) {
            handed.push(Instant::now());
            let name = if evicting && miner_pool.len() >= capacity {
                "chain.mempool.insert_batch.evicting"
            } else {
                "chain.mempool.insert_batch"
            };
            ingest_burst(&mut miner_pool, mine, name, t, probe, acc);
            ingest_burst(&mut receiver_pool, theirs, name, t, probe, acc);
        }
        let mut tip = store.best_block().clone();
        while !miner_pool.is_empty() {
            let batch = spanned!(
                t,
                "chain.mempool.take_best",
                s.block_records,
                miner_pool.take_best(s.block_records)
            );
            let n = batch.len();
            let block = spanned!(t, "chain.block.assemble", n, {
                let ts = tip.header().timestamp + 15;
                Block::assemble(&tip, batch, ts, Difficulty::from_u64(1), miner)
            });
            let bytes = spanned!(t, "chain.codec.encode", n, block.encode());
            acc.sample("block_wire_bytes_per_record", bytes.len() as f64 / n as f64);
            let received = spanned!(t, "chain.codec.decode", n, Block::decode(&bytes));
            let Ok(received) = received else {
                acc.fail(n as u64, || "relayed block did not decode".to_string());
                break;
            };
            let valid = spanned!(
                t,
                "chain.validate.validate_block",
                n,
                validate_block(&store, &received, &AcceptAll)
            );
            spanned!(
                t,
                "chain.mempool.remove_included",
                n,
                receiver_pool.remove_included(&received)
            );
            let inserted = spanned!(t, "chain.store.insert", 1, store.insert(received));
            stored.push(Instant::now());
            acc.expect(valid.is_ok() && inserted.is_ok(), || {
                format!("relayed block refused: {valid:?} / {inserted:?}")
            });
            tip = block;
        }
        let wall_s = phase.close(t);

        acc.expect(receiver_pool.is_empty(), || {
            format!("{} records left in the receiver pool", receiver_pool.len())
        });
        let on_chain = settle(acc, &burst_of, &handed, &stored, store.canonical_blocks());
        (wall_s, on_chain)
    }
}
