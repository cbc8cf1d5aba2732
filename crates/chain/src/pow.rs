//! Real proof-of-work mining: the nonce search of §II.
//!
//! "Participants attempt to find a random number that will be used to make
//! the hash of an entire block meet some requirements, which is related to
//! the computing capability of participants." [`Miner::seal`] does exactly
//! that: it increments the header nonce until the block id falls below the
//! difficulty target. The economics experiments use the statistically
//! equivalent [`crate::simminer`] instead so 30-minute runs finish in
//! milliseconds; this module is exercised by the feasibility benches and the
//! block-time cross-check of Fig. 3(b).

use crate::block::Block;
use crate::error::ChainError;
use crate::record::Record;
use smartcrowd_crypto::Address;

/// Default bound on nonce attempts before [`Miner::seal`] gives up.
pub(crate) const DEFAULT_MAX_ATTEMPTS: u64 = 50_000_000;

/// A proof-of-work miner for one IoT provider.
#[derive(Debug, Clone)]
pub struct Miner {
    address: Address,
    max_attempts: u64,
}

impl Miner {
    /// Creates a miner crediting rewards to `address`.
    pub fn new(address: Address) -> Self {
        Miner {
            address,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
        }
    }

    /// Overrides the attempt bound (useful in tests).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u64) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// The reward address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Seals a pre-assembled block by searching for a satisfying nonce,
    /// starting from `start_nonce` (lets cooperating threads partition the
    /// search space).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MiningExhausted`] when no nonce within the
    /// attempt budget meets the target.
    pub fn seal(&self, mut block: Block, start_nonce: u64) -> Result<Block, ChainError> {
        let difficulty = block.header().difficulty;
        for i in 0..self.max_attempts {
            let nonce = start_nonce.wrapping_add(i);
            block.header_mut().nonce = nonce;
            if difficulty.target_met(block.id().as_digest()) {
                return Ok(block);
            }
        }
        Err(ChainError::MiningExhausted {
            attempts: self.max_attempts,
        })
    }

    /// Assembles and seals the next block on `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MiningExhausted`] when the attempt budget runs
    /// out.
    pub fn mine_next(
        &self,
        parent: &Block,
        records: Vec<Record>,
        timestamp: u64,
    ) -> Result<Block, ChainError> {
        let block = Block::assemble(
            parent,
            records,
            timestamp,
            parent.header().difficulty,
            self.address,
        );
        self.seal(block, 0)
    }

    /// Counts the attempts needed to seal (for hash-rate calibration).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::MiningExhausted`] when the attempt budget runs
    /// out.
    pub fn measure_attempts(&self, block: Block) -> Result<(Block, u64), ChainError> {
        let difficulty = block.header().difficulty;
        let mut block = block;
        for i in 0..self.max_attempts {
            block.header_mut().nonce = i;
            if difficulty.target_met(block.id().as_digest()) {
                return Ok((block, i + 1));
            }
        }
        Err(ChainError::MiningExhausted {
            attempts: self.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::GENESIS_TIMESTAMP;
    use crate::difficulty::Difficulty;

    #[test]
    fn seals_at_trivial_difficulty() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let miner = Miner::new(Address::from_label("p"));
        let b = miner
            .mine_next(&genesis, vec![], GENESIS_TIMESTAMP + 10)
            .unwrap();
        assert!(b.validate_structure().is_ok());
        assert_eq!(b.header().miner, miner.address());
    }

    #[test]
    fn seals_at_moderate_difficulty() {
        // Difficulty 4096: expected ~4096 attempts, bounded at 200k.
        let genesis = Block::genesis(Difficulty::from_u64(4096));
        let miner = Miner::new(Address::from_label("p")).with_max_attempts(200_000);
        let b = miner
            .mine_next(&genesis, vec![], GENESIS_TIMESTAMP + 10)
            .unwrap();
        assert!(b.header().meets_target());
        assert!(b.validate_structure().is_ok());
    }

    #[test]
    fn gives_up_when_exhausted() {
        let genesis = Block::genesis(Difficulty::from_u128(u128::MAX));
        let miner = Miner::new(Address::from_label("p")).with_max_attempts(100);
        let err = miner
            .mine_next(&genesis, vec![], GENESIS_TIMESTAMP + 10)
            .unwrap_err();
        assert_eq!(err, ChainError::MiningExhausted { attempts: 100 });
    }

    #[test]
    fn measured_attempts_scale_with_difficulty() {
        // Statistical smoke test: average attempts at D=256 should exceed
        // average at D=16 across a few samples.
        let miner = Miner::new(Address::from_label("p")).with_max_attempts(1_000_000);
        let mut total_low = 0u64;
        let mut total_high = 0u64;
        for i in 0..8u64 {
            let g_low = Block::genesis(Difficulty::from_u64(16));
            let child = Block::assemble(
                &g_low,
                vec![],
                GENESIS_TIMESTAMP + 10 + i,
                Difficulty::from_u64(16),
                Address::from_label("p"),
            );
            total_low += miner.measure_attempts(child).unwrap().1;
            let g_high = Block::genesis(Difficulty::from_u64(256));
            let child = Block::assemble(
                &g_high,
                vec![],
                GENESIS_TIMESTAMP + 10 + i,
                Difficulty::from_u64(256),
                Address::from_label("p"),
            );
            total_high += miner.measure_attempts(child).unwrap().1;
        }
        assert!(
            total_high > total_low,
            "D=256 attempts {total_high} should exceed D=16 attempts {total_low}"
        );
    }

    #[test]
    fn start_nonce_partitions_search() {
        let genesis = Block::genesis(Difficulty::from_u64(64));
        let miner = Miner::new(Address::from_label("p")).with_max_attempts(100_000);
        let block = Block::assemble(
            &genesis,
            vec![],
            GENESIS_TIMESTAMP + 10,
            Difficulty::from_u64(64),
            Address::from_label("p"),
        );
        let a = miner.seal(block.clone(), 0).unwrap();
        let b = miner.seal(block, 1_000_000).unwrap();
        assert!(a.header().meets_target());
        assert!(b.header().meets_target());
        assert!(b.header().nonce >= 1_000_000);
    }
}
