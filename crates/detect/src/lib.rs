//! # SmartCrowd IoT detection substrate
//!
//! The paper outsources "IoT system detection" to distributed detectors who
//! run scanners over released firmware/apps and report what they find
//! (§I, §V-B). The authors used real apps and real third-party services
//! (VirusTotal, Quixxi, …, Table I) plus Python detector scripts; neither is
//! available here, so this crate builds the synthetic equivalent and keeps
//! the entire detection code path real:
//!
//! - [`library`] — a CVE/NVD-like synthetic vulnerability database (the
//!   paper's §VIII suggests exactly this: "construct their own
//!   vulnerability/virus libraries, for example, integrating the published
//!   CVE, NVD, and SecurityFocus");
//! - [`system`] — an IoT firmware generator that *physically embeds*
//!   vulnerability signatures in an image, so scanning is a real byte
//!   search, not a coin flip;
//! - [`scanner`] — scanner models with per-engine signature coverage and
//!   false positives, reproducing the partial-overlap phenomenon of
//!   Table I;
//! - [`capability`] — the detection-capability model `DC_i` and the total
//!   capability `DC_T = Σ DC_i·ρ_i` of Eq. 11;
//! - [`autoverif`] — the `AutoVerif()` engine of Eq. 6 that IoT providers
//!   run against detailed reports;
//! - [`corpus`] — the Table-I experiment setup: two apps, six third-party
//!   scanner profiles calibrated to the published counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoverif;
pub mod capability;
pub mod corpus;
pub mod error;
pub mod library;
pub mod scanner;
pub mod scoring;
pub mod system;
pub mod vulnerability;

pub use autoverif::AutoVerifier;
pub use capability::DetectionCapability;
pub use error::DetectError;
pub use library::VulnLibrary;
pub use scanner::{ScanReport, Scanner};
pub use system::IoTSystem;
pub use vulnerability::{Severity, VulnId, Vulnerability};
