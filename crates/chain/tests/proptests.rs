//! Property-based tests for the blockchain substrate: codec totality,
//! record integrity, fork-choice invariants and mempool ordering.

use proptest::prelude::*;
use smartcrowd_chain::block::Block;
use smartcrowd_chain::codec::{Decoder, Encoder};
use smartcrowd_chain::mempool::Mempool;
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;

fn arb_kind() -> impl Strategy<Value = RecordKind> {
    prop_oneof![
        Just(RecordKind::Transfer),
        Just(RecordKind::Sra),
        Just(RecordKind::InitialReport),
        Just(RecordKind::DetailedReport),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Totality: arbitrary bytes either decode or error, never panic.
        let _ = Record::decode(&bytes);
        let _ = Block::decode(&bytes);
        let _ = smartcrowd_chain::header::BlockHeader::decode(&bytes);
        let mut dec = Decoder::new(&bytes);
        let _ = dec.take_bytes();
        let _ = dec.take_str();
    }

    #[test]
    fn record_roundtrip(
        kind in arb_kind(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        fee in any::<u64>(),
        nonce in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let r = Record::signed(kind, payload, Ether::from_wei(fee as u128), nonce, &kp);
        let back = Record::decode(&r.encode()).unwrap();
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(back.id(), r.id());
        prop_assert!(back.verify_signature().is_ok());
    }

    #[test]
    fn record_payload_bitflip_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip_bit in 0usize..64,
        seed in any::<u64>(),
    ) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let r = Record::signed(
            RecordKind::DetailedReport,
            payload.clone(),
            Ether::ZERO,
            0,
            &kp,
        );
        let mut bytes = r.encode();
        let payload_start = 1 + 20 + 8;
        let bit = flip_bit % (payload.len() * 8);
        bytes[payload_start + bit / 8] ^= 1 << (bit % 8);
        let tampered = Record::decode(&bytes).unwrap();
        prop_assert!(tampered.verify_signature().is_err());
    }

    #[test]
    fn codec_roundtrip(
        nums in proptest::collection::vec(any::<u64>(), 0..16),
        blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 0..8
        ),
        text in "[a-zA-Z0-9 ]{0,40}",
    ) {
        let mut enc = Encoder::new();
        for n in &nums {
            enc.put_u64(*n);
        }
        for b in &blobs {
            enc.put_bytes(b);
        }
        enc.put_str(&text);
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        for n in &nums {
            prop_assert_eq!(dec.take_u64().unwrap(), *n);
        }
        for b in &blobs {
            prop_assert_eq!(dec.take_bytes().unwrap(), b.as_slice());
        }
        prop_assert_eq!(dec.take_str().unwrap(), text.as_str());
        prop_assert!(dec.expect_end().is_ok());
    }

    #[test]
    fn fork_choice_maximizes_work(lengths in proptest::collection::vec(1u64..6, 2..6)) {
        // Build several forks from genesis, one block longer or shorter
        // than another at the pinned difficulty; the heaviest wins, and
        // the first-seen of equal work keeps the tip.
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let mut best = (0u64, genesis.id());
        for (i, length) in lengths.iter().enumerate() {
            let miner = Miner::new(Address::from_label(&format!("m{i}")));
            let mut parent = genesis.clone();
            for _ in 0..*length {
                let block = miner
                    .mine_next(&parent, vec![], parent.header().timestamp + 15 + i as u64)
                    .unwrap();
                store.insert(block.clone()).unwrap();
                parent = block;
            }
            if *length > best.0 {
                best = (*length, parent.id());
            }
        }
        let tip_work = store.work_of(&store.best_tip()).unwrap();
        prop_assert_eq!(tip_work, 1 + best.0 as u128);
        prop_assert_eq!(store.best_tip(), best.1);
    }

    #[test]
    fn confirmations_monotone_under_extension(extra in 1u64..12) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let miner = Miner::new(Address::from_label("m"));
        let first = miner
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        let first_id = first.id();
        store.insert(first.clone()).unwrap();
        let mut last_conf = store.confirmations(&first_id);
        let mut parent = first;
        for _ in 0..extra {
            let b = miner
                .mine_next(&parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            store.insert(b.clone()).unwrap();
            parent = b;
            let conf = store.confirmations(&first_id);
            prop_assert_eq!(conf, last_conf + 1);
            last_conf = conf;
        }
        prop_assert_eq!(store.is_confirmed(&first_id), last_conf > 6);
    }

    #[test]
    fn mempool_take_best_is_sorted_and_complete(
        fees in proptest::collection::vec(1u64..1000, 1..20)
    ) {
        let mut pool = Mempool::new(64);
        for (i, fee) in fees.iter().enumerate() {
            let kp = KeyPair::from_seed(&(i as u64).to_be_bytes());
            let r = Record::signed(
                RecordKind::Transfer,
                vec![i as u8],
                Ether::from_wei(*fee as u128),
                i as u64,
                &kp,
            );
            pool.insert(r).unwrap();
        }
        let taken = pool.take_best(fees.len());
        prop_assert_eq!(taken.len(), fees.len());
        for w in taken.windows(2) {
            prop_assert!(w[0].fee() >= w[1].fee());
        }
        prop_assert!(pool.is_empty());
    }

    #[test]
    fn sim_rng_statistics(seed in any::<u64>()) {
        // For any seed: unit-interval uniforms and positive exponentials.
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..256 {
            let u = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&u));
            prop_assert!(rng.next_exponential(15.35) > 0.0);
        }
    }

    #[test]
    fn block_roundtrip_with_records(count in 0usize..8, seed in any::<u64>()) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let records: Vec<Record> = (0..count)
            .map(|i| {
                let kp = KeyPair::from_seed(&(seed ^ i as u64).to_be_bytes());
                Record::signed(RecordKind::Transfer, vec![i as u8], Ether::ZERO, i as u64, &kp)
            })
            .collect();
        let miner = Miner::new(Address::from_label("m"));
        let block = miner
            .mine_next(&genesis, records, genesis.header().timestamp + 15)
            .unwrap();
        let back = Block::decode(&block.encode()).unwrap();
        prop_assert_eq!(back.id(), block.id());
        prop_assert!(back.validate_structure().is_ok());
    }
}
