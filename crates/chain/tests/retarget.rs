//! Integration: Ethereum-style difficulty retargeting tracks hash-rate
//! changes, keeping block times near the protocol target instead of
//! drifting — the mechanism that would hold SmartCrowd's 15 s block time
//! steady as providers join or leave.

use smartcrowd_chain::block::Block;
use smartcrowd_chain::difficulty::Difficulty;
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{ChainQuery, ChainStore};
use smartcrowd_crypto::Address;

/// Nonce search attempts are geometric with mean `D`; sample them directly
/// (exponential approximation) instead of simulating each hash.
fn sample_attempts(rng: &mut SimRng, difficulty: u128) -> f64 {
    rng.next_exponential(difficulty as f64).max(1.0)
}

#[test]
fn retargeting_tracks_a_hash_rate_change() {
    let mut rng = SimRng::seed_from_u64(3);
    let mut difficulty = Difficulty::from_u128(1 << 20);
    let rate_low = 100_000.0; // attempts per second
    let rate_high = 800_000.0; // 8× more hardware joins mid-experiment
    let blocks_per_phase = 40_000;

    let mut mean_interval_end_of_phase = Vec::new();
    let mut difficulty_end_of_phase = Vec::new();
    for phase in 0..2 {
        let rate = if phase == 0 { rate_low } else { rate_high };
        let mut recent = Vec::new();
        for _ in 0..blocks_per_phase {
            let interval = (sample_attempts(&mut rng, difficulty.value()) / rate).max(0.25);
            difficulty = Difficulty::retarget(difficulty, interval.round() as u64);
            recent.push(interval);
            if recent.len() > 2000 {
                recent.remove(0);
            }
        }
        mean_interval_end_of_phase.push(recent.iter().sum::<f64>() / recent.len() as f64);
        difficulty_end_of_phase.push(difficulty.value());
    }

    // Difficulty rose to absorb the extra hash rate…
    assert!(
        difficulty_end_of_phase[1] > difficulty_end_of_phase[0] * 4,
        "difficulty: {} → {}",
        difficulty_end_of_phase[0],
        difficulty_end_of_phase[1]
    );
    // …and the block time returned to the same equilibrium band (the
    // homestead rule equilibrates where E[1 − Δt/10] = 0, i.e. ≈ 10 s
    // mean interval under geometric variance).
    let drift = (mean_interval_end_of_phase[1] - mean_interval_end_of_phase[0]).abs();
    assert!(
        drift < mean_interval_end_of_phase[0] * 0.25,
        "block time equilibria should match: {:?}",
        mean_interval_end_of_phase
    );
}

#[test]
fn real_miner_seals_across_a_retarget_step() {
    // End-to-end: mine real blocks while the difficulty retargets between
    // them; the store accepts each block at its own declared difficulty.
    let genesis = Block::genesis(Difficulty::from_u64(16));
    let mut store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("m")).with_max_attempts(10_000_000);
    let mut parent = genesis;
    let mut difficulty = Difficulty::from_u64(16);
    for i in 0..12u64 {
        // Alternate fast/slow observed intervals to push retarget both ways.
        let interval = if i % 2 == 0 { 1 } else { 120 };
        difficulty = Difficulty::retarget(difficulty, interval);
        let block = miner
            .mine_next_at(
                &parent,
                vec![],
                parent.header().timestamp + interval,
                difficulty,
            )
            .unwrap();
        store.insert(block.clone()).unwrap();
        parent = block;
    }
    assert_eq!(store.best_height(), 12);
    // Total work reflects the varying difficulties, not just block count.
    let work = store.work_of(&store.best_tip()).unwrap();
    assert!(work > 12, "work {work} accumulates difficulty, not count");
}
