//! # SmartCrowd
//!
//! A from-scratch Rust reproduction of *SmartCrowd: Decentralized and
//! Automated Incentives for Distributed IoT System Detection* (Wu et al.,
//! ICDCS 2019) — a blockchain-powered platform that crowdsources IoT
//! firmware security detection with automatic, contract-escrowed
//! incentives.
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`crypto`] — ECDSA/secp256k1, Keccak-256, SHA-256, Merkle
//!   trees (all implemented in this workspace);
//! - [`chain`] — the PoW blockchain substrate (blocks, fork choice,
//!   6-block confirmation, real and simulated-clock miners);
//! - [`vm`] — the SCVM smart-contract engine (gas-metered stack machine
//!   plus assembler);
//! - [`net`] — deterministic gossip networking with fault injection;
//! - [`detect`] — the IoT detection substrate (synthetic vulnerability
//!   library, firmware corpus, scanners, `AutoVerif`);
//! - [`core`] — the SmartCrowd protocol itself (insuranced SRAs, two-phase
//!   reports, Algorithm 1, incentive equations, attack scenarios, the
//!   end-to-end [`core::platform::Platform`]);
//! - [`sim`] — the experiment simulator and parameter sweeps;
//! - [`pool`] — the zero-dependency scoped thread pool with deterministic
//!   fan-out/join that the chain, chaos and bench layers parallelize on;
//! - [`telemetry`] — zero-dependency metrics and spans instrumenting every
//!   layer above (see `OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use smartcrowd::core::platform::{Platform, PlatformConfig};
//! use smartcrowd::core::report::{create_report_pair, Findings};
//! use smartcrowd::chain::rng::SimRng;
//! use smartcrowd::chain::Ether;
//! use smartcrowd::crypto::keys::KeyPair;
//! use smartcrowd::detect::system::IoTSystem;
//! use smartcrowd::detect::vulnerability::VulnId;
//!
//! // Boot the platform with the paper's 5-provider configuration.
//! let mut platform = Platform::new(PlatformConfig::paper());
//!
//! // A provider releases a (vulnerable) firmware image with an insurance.
//! let mut rng = SimRng::seed_from_u64(7);
//! let system = IoTSystem::build(
//!     "smart-cam", "1.0", platform.library(), vec![VulnId(3)], &mut rng,
//! ).unwrap();
//! let sra_id = platform
//!     .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
//!     .unwrap();
//!
//! // A detector finds the flaw and walks the two-phase protocol.
//! let detector = KeyPair::from_seed(b"doc-detector");
//! platform.fund(detector.address(), Ether::from_ether(10));
//! let (initial, detailed) =
//!     create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(3)], "found"));
//! platform.submit_initial(&detector, initial).unwrap();
//! platform.mine_blocks(8);             // R† reaches 6-block finality
//! platform.submit_detailed(&detector, detailed).unwrap();
//! let payouts = platform.mine_blocks(8); // R* finalizes → escrow pays
//! assert_eq!(payouts[0].amount, Ether::from_ether(25));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smartcrowd_chain as chain;
pub use smartcrowd_core as core;
pub use smartcrowd_crypto as crypto;
pub use smartcrowd_detect as detect;
pub use smartcrowd_net as net;
pub use smartcrowd_pool as pool;
pub use smartcrowd_sim as sim;
pub use smartcrowd_telemetry as telemetry;
pub use smartcrowd_vm as vm;
