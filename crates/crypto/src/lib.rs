//! # SmartCrowd cryptographic substrate
//!
//! From-scratch implementations of every cryptographic primitive the
//! SmartCrowd protocol relies on (paper §V, §VII):
//!
//! - [`sha256`] — FIPS 180-2 SHA-256 (the paper's blockchain background
//!   cites SHA-256 for address generation).
//! - [`keccak`] — Keccak-256, the "SHA-3" used by Ethereum and by the
//!   paper's prototype for report identifiers and signatures.
//! - [`hmac`] — HMAC-SHA256, needed by RFC 6979 deterministic nonces.
//! - [`u256`] / [`field`] / [`scalar`] / [`point`] — 256-bit integer and
//!   secp256k1 curve arithmetic. **All of it is variable-time**: branches,
//!   table indices and loop counts depend on secret scalars. This is the
//!   substrate of a simulation, not side-channel-hardened signing.
//! - [`ecdsa`] — ECDSA over secp256k1 with RFC 6979 nonces, the signature
//!   scheme of the paper's prototype ("SmartCrowd supports ECDSA signature
//!   and hashing function SHA-3 ... using secp256k1 curve").
//! - [`keys`] / [`address`] — long-lived keypairs (`pk`/`sk` of every IoT
//!   entity, §V-A) and Ethereum-style 20-byte wallet addresses (`W_{D_i}`).
//! - [`merkle`] — the Merkle-tree record organisation of SmartCrowd blocks
//!   (Fig. 2: "organized based on the Merkle tree structure").
//! - [`digest_map`] — the keyed hash every id-keyed map and set uses.
//!
//! # Example
//!
//! ```
//! use smartcrowd_crypto::keys::KeyPair;
//! use smartcrowd_crypto::keccak::keccak256;
//!
//! let kp = KeyPair::from_seed(b"detector-1");
//! let digest = keccak256(b"initial report");
//! let sig = kp.sign(&digest);
//! assert!(kp.public().verify(&digest, &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod address;
pub mod digest_map;
pub mod ecdsa;
pub mod error;
pub mod field;
pub mod hex;
pub mod hmac;
pub mod keccak;
pub mod keys;
pub mod merkle;
pub mod point;
pub mod scalar;
pub mod sha256;
pub mod u256;

pub use address::Address;
pub use digest_map::{DigestMap, DigestSet};
pub use ecdsa::Signature;
pub use error::CryptoError;
pub use keys::{KeyPair, PrivateKey, PublicKey};
pub use merkle::MerkleTree;
pub use u256::U256;

/// A 32-byte digest, the universal hash output type of the platform.
pub type Digest = [u8; 32];
