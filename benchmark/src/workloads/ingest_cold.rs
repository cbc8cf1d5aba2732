//! `ingest_cold`: fresh, uniquely-signed small `Transfer` records through
//! the single-node funnel. The signature cache starts empty, so every
//! record pays one ECDSA recovery inside `insert_batch` and crypto is
//! nearly all of the work — this is where a faster `recover` must show,
//! and where mempool, Merkle and store work is invisible by design.

use super::{ingest_burst, settle, Acc, Phase, Probe, Rep, Sizes, Workload};
use crate::inputs::{self, InputsDigest};
use crate::spanned;
use crate::trace::Tracer;
use smartcrowd_chain::mempool::Mempool;
use smartcrowd_chain::validate::{validate_block, AcceptAll};
use smartcrowd_chain::{sigcache, Block, ChainStore, Difficulty};
use smartcrowd_crypto::{Address, Digest};
use std::collections::HashMap;
use std::time::Instant;

/// Generated inputs of `ingest_cold`.
pub struct IngestCold {
    sizes: Sizes,
    wire: Vec<Vec<u8>>,
    /// Record id → index of the burst that carries it.
    burst_of: HashMap<Digest, usize>,
    digest: String,
}

impl Workload for IngestCold {
    fn setup(seed: u64, sizes: &Sizes) -> Self {
        let keys = inputs::keypairs(seed, "ingest_cold", sizes.senders);
        let mut rng = inputs::rng(seed, "ingest_cold");
        let drafts = inputs::drafts(
            &mut rng,
            sizes.ingest_records,
            keys.len(),
            sizes.transfer_payload,
        );
        let records = inputs::sign_transfers(&drafts, &keys);
        let wire = inputs::to_wire(&records);
        let mut digest = InputsDigest::new("ingest_cold");
        wire.iter().for_each(|w| digest.add(w));
        IngestCold {
            sizes: *sizes,
            burst_of: records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.id(), i / sizes.burst))
                .collect(),
            wire,
            digest: digest.finish(),
        }
    }

    fn inputs_digest(&self) -> &str {
        &self.digest
    }

    fn repetition(&self, t: &mut Tracer, probe: &Probe, acc: &mut Acc) {
        let s = &self.sizes;
        sigcache::reset();
        let records = inputs::from_wire(&self.wire);
        let bursts: Vec<_> = records.chunks(s.burst).map(<[_]>::to_vec).collect();
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut pool = Mempool::new(s.pool_capacity);
        let miner = Address::from_label("ingest-cold");
        let (mut handed, mut stored) = (Vec::new(), Vec::new());
        let (hits, misses) = (acc.ingest_hits, acc.ingest_misses);

        let phase = Phase::open(t);
        let last = bursts.len() - 1;
        for (i, burst) in bursts.into_iter().enumerate() {
            handed.push(Instant::now());
            ingest_burst(
                &mut pool,
                burst,
                "chain.mempool.insert_batch",
                t,
                probe,
                acc,
            );
            while pool.len() >= s.block_records || (i == last && !pool.is_empty()) {
                let batch = spanned!(
                    t,
                    "chain.mempool.take_best",
                    s.block_records,
                    pool.take_best(s.block_records)
                );
                let n = batch.len();
                let block = spanned!(t, "chain.block.assemble", n, {
                    let parent = store.best_block();
                    let ts = parent.header().timestamp + 15;
                    Block::assemble(parent, batch, ts, Difficulty::from_u64(1), miner)
                });
                let valid = spanned!(
                    t,
                    "chain.validate.validate_block",
                    n,
                    validate_block(&store, &block, &AcceptAll)
                );
                let inserted = spanned!(t, "chain.store.insert", 1, store.insert(block));
                stored.push(Instant::now());
                acc.expect(valid.is_ok() && inserted.is_ok(), || {
                    format!("sealed block refused: {valid:?} / {inserted:?}")
                });
            }
        }
        let wall_s = phase.close(t);

        let on_chain = settle(
            acc,
            &self.burst_of,
            &handed,
            &stored,
            store.canonical_blocks(),
        );
        acc.exact("records_committed", on_chain);
        acc.exact("blocks_committed", store.best_height());
        // The design of this workload: no record has been seen before.
        let (hits, misses) = (acc.ingest_hits - hits, acc.ingest_misses - misses);
        acc.expect(hits == 0 && misses == self.wire.len() as u64, || {
            format!("cold ingest saw {hits} cache hits, {misses} misses")
        });
        acc.reps.push(Rep::new(wall_s, on_chain));
    }
}
