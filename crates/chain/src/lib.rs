//! # SmartCrowd blockchain substrate
//!
//! A from-scratch proof-of-work blockchain implementing the architecture of
//! the paper's Fig. 2: blocks linked by `PreBlockID`/`CurBlockID`, each
//! carrying a timestamp, a nonce sought by miners, and ω records organized
//! in a Merkle tree. The substrate replaces the Ethereum/geth private chain
//! the authors prototyped on (§VII) — see `DESIGN.md` for the substitution
//! argument.
//!
//! The crate is record-agnostic: a [`record::Record`] carries an opaque
//! payload plus kind tag, so the SmartCrowd core can store SRAs, initial
//! reports `R†` and detailed reports `R*` without this crate depending on
//! protocol types.
//!
//! Two miners are provided:
//!
//! - [`pow::Miner`] performs the real nonce search against a 256-bit target
//!   (`hash(block) < 2^256 / difficulty`), exactly the consensus the paper
//!   uses ("participants attempt to find a random number that will be used
//!   to make the hash of an entire block meet some requirements", §II).
//! - [`simminer::SimMiner`] reproduces PoW *statistics* (a hash-power
//!   weighted exponential race) on a simulated clock, so 30-minute economics
//!   experiments (Figs. 4–6) run in milliseconds.
//!
//! # Example
//!
//! ```
//! use smartcrowd_chain::block::Block;
//! use smartcrowd_chain::difficulty::Difficulty;
//! use smartcrowd_chain::pow::Miner;
//! use smartcrowd_chain::store::ChainStore;
//! use smartcrowd_crypto::Address;
//!
//! let genesis = Block::genesis(Difficulty::from_u64(1));
//! let mut store = ChainStore::new(genesis.clone());
//! let miner = Miner::new(Address::from_label("provider-1"));
//! let block = miner
//!     .mine_next(&genesis, vec![], 1_700_000_001)
//!     .expect("difficulty 1 always mines");
//! store.insert(block).unwrap();
//! assert_eq!(store.best_height(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The unwrap/expect wall (configured in the workspace clippy.toml): a panic
// in consensus-critical code can split the replicated state machine, so
// library code must surface failures as typed errors. Tests are exempt.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod amount;
pub mod block;
mod chain_index;
pub mod codec;
pub mod difficulty;
pub mod error;
pub mod header;
pub mod mempool;
pub mod pow;
pub mod record;
pub mod rng;
pub mod sigcache;
pub mod simminer;
pub mod stats;
pub mod storage;
pub mod store;
pub mod validate;

pub use amount::Ether;
pub use block::Block;
pub use difficulty::Difficulty;
pub use error::ChainError;
pub use header::{BlockHeader, BlockId};
pub use record::{Record, RecordKind};
pub use storage::{ChainBackend, ChainQuery, DurableStore, StorageError, StoreConfig};
pub use store::ChainStore;

/// Number of descendant blocks required before a block is final, matching
/// the paper ("this block recording detection results will be finally
/// confirmed when 6 newly generated blocks are linked", §V-C).
pub const CONFIRMATION_DEPTH: u64 = 6;
