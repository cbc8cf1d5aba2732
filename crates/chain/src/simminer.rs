//! Simulated-clock mining: PoW statistics without the hashing.
//!
//! Real PoW block production is a memoryless race: block arrivals are
//! exponentially distributed with the network's mean block time (the
//! paper's measured [`PAPER_BLOCK_TIME_SECS`]), and the
//! probability that provider `i` wins a given block equals its hash-power
//! share `ζ_i` (§VI-B). [`SimMiner`] samples exactly that process on a
//! simulated clock, which lets the 10/20/30-minute economics experiments of
//! Figs. 4–6 run in milliseconds while preserving every statistic the paper
//! measures: block counts per provider, inter-block times (Fig. 3(b)),
//! reward shares (Fig. 3(a)) and the probabilistic deviations the paper
//! remarks on ("discovering a Nonce of a block … is probabilistic").
//!
//! Slots sampled here are sealed at difficulty 1 (so
//! [`crate::block::Block::validate_structure`] passes without a hash
//! search); the *timing* comes from the sampled race.

use crate::difficulty::PAPER_BLOCK_TIME_SECS;
use crate::rng::SimRng;
use smartcrowd_crypto::Address;

/// The top-5 Ethereum miner hash-power proportions the paper configures its
/// five provider nodes with (§VII, Fig. 3(a)).
pub const PAPER_HASH_POWERS: [f64; 5] = [0.2630, 0.2210, 0.1490, 0.1125, 0.1010];

/// One provider participating in the mining race.
#[derive(Debug, Clone)]
pub struct SimParticipant {
    /// Reward address.
    pub address: Address,
    /// Relative hash power (any positive scale; normalized internally).
    pub hash_power: f64,
}

/// A sampled block-production event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningEvent {
    /// Index of the winning participant.
    pub winner: usize,
    /// Seconds since the previous block.
    pub interval: f64,
}

/// Hash-power-weighted exponential mining race on a simulated clock.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::simminer::{SimMiner, SimParticipant};
/// use smartcrowd_crypto::Address;
///
/// let sim = SimMiner::new(
///     vec![
///         SimParticipant { address: Address::from_label("a"), hash_power: 3.0 },
///         SimParticipant { address: Address::from_label("b"), hash_power: 1.0 },
///     ],
///     42,
/// );
/// let mut sim = sim;
/// let e = sim.next_event();
/// assert!(e.interval > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimMiner {
    participants: Vec<SimParticipant>,
    cumulative: Vec<f64>,
    rng: SimRng,
    clock: f64,
}

impl SimMiner {
    /// Creates a race over `participants` with the given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty or any hash power is non-positive.
    pub fn new(participants: Vec<SimParticipant>, seed: u64) -> Self {
        assert!(!participants.is_empty(), "need at least one participant");
        let total: f64 = participants.iter().map(|p| p.hash_power).sum();
        assert!(
            participants.iter().all(|p| p.hash_power > 0.0),
            "hash powers must be positive"
        );
        let mut cumulative = Vec::with_capacity(participants.len());
        let mut acc = 0.0;
        for p in &participants {
            acc += p.hash_power / total;
            cumulative.push(acc);
        }
        // Guard against rounding: the last bucket always catches.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        SimMiner {
            participants,
            cumulative,
            rng: SimRng::seed_from_u64(seed),
            clock: 0.0,
        }
    }

    /// Convenience constructor for the paper's 5-provider setup.
    pub fn paper_setup(seed: u64) -> Self {
        let participants = PAPER_HASH_POWERS
            .iter()
            .enumerate()
            .map(|(i, &hp)| SimParticipant {
                address: Address::from_label(&format!("provider-{i}")),
                hash_power: hp,
            })
            .collect();
        SimMiner::new(participants, seed)
    }

    /// The current simulated time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Samples the next block-production event and advances the clock.
    pub fn next_event(&mut self) -> MiningEvent {
        // Exponential inter-arrival with the paper's mean block time.
        let interval = self.rng.next_exponential(PAPER_BLOCK_TIME_SECS);
        self.clock += interval;
        // Hash-power-weighted winner.
        let winner = self.rng.pick_cumulative(&self.cumulative);
        // Simulated seconds → integer µs: deterministic under the seed.
        smartcrowd_telemetry::histogram!(
            "chain.miner.interval_us",
            smartcrowd_telemetry::buckets::TIME_US
        )
        .observe((interval * 1e6) as u64);
        MiningEvent { winner, interval }
    }

    /// Samples an event and resolves it to the block slot it opens on a
    /// parent stamped `parent_timestamp`: the winner's reward address and
    /// the child's timestamp on the simulated clock. The caller seals the
    /// block (difficulty 1, so no hash search is needed).
    pub fn next_slot(&mut self, parent_timestamp: u64) -> (Address, u64) {
        let event = self.next_event();
        let miner = self.participants[event.winner].address;
        let timestamp = parent_timestamp + self.clock_delta_secs(event.interval);
        smartcrowd_telemetry::counter!("chain.miner.blocks_mined").inc();
        (miner, timestamp)
    }

    fn clock_delta_secs(&self, interval: f64) -> u64 {
        interval.ceil().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::difficulty::Difficulty;

    #[test]
    fn winner_shares_converge_to_hash_power() {
        let mut sim = SimMiner::paper_setup(7);
        let n = 20_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[sim.next_event().winner] += 1;
        }
        for (i, &hp) in PAPER_HASH_POWERS.iter().enumerate() {
            let expected = hp / PAPER_HASH_POWERS.iter().sum::<f64>();
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "participant {i}: observed {observed:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn mean_interval_converges() {
        let mut sim = SimMiner::paper_setup(11);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| sim.next_event().interval).sum();
        let mean = total / n as f64;
        assert!(
            (mean - PAPER_BLOCK_TIME_SECS).abs() < 0.5,
            "mean interval {mean}"
        );
    }

    #[test]
    fn intervals_are_positive_and_clock_advances() {
        let mut sim = SimMiner::paper_setup(3);
        let mut last_clock = 0.0;
        for _ in 0..100 {
            let e = sim.next_event();
            assert!(e.interval > 0.0);
            assert!(sim.clock() > last_clock);
            last_clock = sim.clock();
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = SimMiner::paper_setup(99);
        let mut b = SimMiner::paper_setup(99);
        for _ in 0..50 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimMiner::paper_setup(1);
        let mut b = SimMiner::paper_setup(2);
        let same = (0..20).filter(|_| a.next_event() == b.next_event()).count();
        assert!(same < 20);
    }

    #[test]
    fn slots_chain_and_validate() {
        let mut sim = SimMiner::paper_setup(5);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut parent = genesis;
        for _ in 0..10 {
            let (miner, timestamp) = sim.next_slot(parent.header().timestamp);
            assert!(timestamp > parent.header().timestamp);
            assert!(sim.participants.iter().any(|p| p.address == miner));
            let block = Block::assemble(&parent, vec![], timestamp, Difficulty::from_u64(1), miner);
            assert!(block.validate_structure().is_ok());
            assert_eq!(block.header().prev, parent.id());
            parent = block;
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_participants_panics() {
        let _ = SimMiner::new(vec![], 0);
    }
}
