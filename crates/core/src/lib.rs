//! # SmartCrowd — decentralized and automated incentives for distributed
//! # IoT system detection
//!
//! This crate is the paper's primary contribution (Wu et al., ICDCS 2019):
//! a blockchain-powered vulnerability-detection platform with three
//! properties —
//!
//! 1. **strong detection incentives** — detectors earn `in† = μ·n·ρ`
//!    automatically when their reports confirm (Eq. 7);
//! 2. **built-in accountability** — providers escrow an insurance with
//!    every release and forfeit it when vulnerabilities surface (Eq. 9);
//! 3. **authoritative references** — consumers query the chain for the
//!    complete, consistent detection history of any release.
//!
//! ## Module map
//!
//! | Paper concept | Module |
//! |---|---|
//! | One signed-payload envelope: the id is the Keccak of the preimage, the signature the signer's over it (`Δ_id`/`P_Sign`, `ID†`/`D†_Sign`, `ID*`/`D*_Sign`) | [`signed`] |
//! | Insuranced SRA `Δ` (Eq. 1–2), decentralized verification (§V-A) | [`sra`] |
//! | Two-phase reports `R†`/`R*` (Eq. 3–5, §V-B) | [`report`] |
//! | Incentive equations (Eq. 7–10, §V-D) | [`incentive`] |
//! | Theoretical model & VPB (Eq. 11–14, §VI-B, Fig. 5); the §VII parameter set | [`economics`] |
//! | SmartCrowd contracts (the 350-line Solidity analogue, §VII) | [`contracts`] |
//! | Provider / detector / consumer roles (§IV-A) | [`provider`], [`detector`], [`consumer`] |
//! | Adversary model & defences (§III-A, §VI-A) | [`attacks`] |
//! | The protocol core: admit / check-block / seal / replay; Algorithm 1, `AutoVerif` and detector isolation (§V-C, Phase #3) | [`protocol`] |
//! | Settlement: fees, block rewards, report metering, escrow open / payout / refund folded over the confirmed chain (§V-D, Phase #4) | [`settlement`] |
//! | End-to-end platform facade: the core + mining race + client-side preconditions | [`platform`] |
//! | A distributed provider node: the core + gossip glue (Phase #3 fault tolerance) | [`node`] |
//! | Retrospective detection (SmartRetro, the paper's reference 46) | [`retro`] |
//! | The consumer-facing authoritative reference | [`mod@reference`] |
//!
//! # Example
//!
//! ```
//! use smartcrowd_core::platform::{Platform, PlatformConfig};
//!
//! let mut platform = Platform::new(PlatformConfig::paper());
//! assert_eq!(platform.providers().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod consumer;
pub mod contracts;
pub mod detector;
pub mod economics;
pub mod error;
pub mod incentive;
pub mod node;
pub mod platform;
pub mod protocol;
pub mod provider;
pub mod reference;
pub mod report;
pub mod retro;
pub mod settlement;
pub mod signed;
pub mod sra;

pub use error::CoreError;
pub use report::{DetailedReport, Findings, InitialReport};
pub use sra::Sra;
