//! The authoritative reference: SmartCrowd's consumer-facing product.
//!
//! "SmartCrowd's blockchain provides an authoritative, complete and
//! consistent reference for IoT system vulnerabilities, allowing IoT
//! consumers to better understand any possible security issues of the IoT
//! systems that they are about to deploy" (§I). This module assembles that
//! reference: a per-system dossier across all released versions, with the
//! confirmed detection history, severity profile, escrow status, and a
//! per-version deployment recommendation.

use crate::consumer::{advise, Recommendation, RiskTolerance};
use crate::platform::Platform;
use crate::sra::SraId;
use smartcrowd_detect::vulnerability::VulnId;
use std::collections::BTreeMap;

/// One version's entry in a dossier.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionEntry {
    /// The release's `Δ_id`.
    pub sra_id: SraId,
    /// Version string `U_v`.
    pub version: String,
    /// Confirmed vulnerabilities, in id order.
    pub vulnerabilities: Vec<VulnId>,
    /// `(high, medium, low)` severity counts.
    pub severity_counts: (usize, usize, usize),
    /// Remaining escrow in ether (0 when settled or exhausted).
    pub escrow_remaining_eth: f64,
    /// Whether the detection window has been closed.
    pub settled: bool,
    /// The consumer recommendation under the dossier's tolerance.
    pub recommendation: Recommendation,
}

/// A complete per-system security dossier.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemDossier {
    /// The system name `U_n`.
    pub name: String,
    /// Entries in release order (by version string order of appearance).
    pub versions: Vec<VersionEntry>,
}

impl SystemDossier {
    /// The most recently released version entry.
    pub fn latest(&self) -> Option<&VersionEntry> {
        self.versions.last()
    }
}

/// Builds dossiers for every system name released on the platform.
pub fn build_reference(
    platform: &Platform,
    tolerance: RiskTolerance,
) -> BTreeMap<String, SystemDossier> {
    let mut by_name: BTreeMap<String, SystemDossier> = BTreeMap::new();
    for sra_id in platform.released_sras() {
        let Some(sra) = platform.sra(&sra_id) else {
            continue;
        };
        let advisory = advise(platform, &sra_id, tolerance);
        let entry = VersionEntry {
            sra_id,
            version: sra.version().to_string(),
            vulnerabilities: advisory.vulnerabilities.clone(),
            severity_counts: advisory.severity_counts,
            escrow_remaining_eth: platform
                .escrow_balance(&sra_id)
                .map(|e| e.as_f64())
                .unwrap_or(0.0),
            settled: platform.is_settled(&sra_id),
            recommendation: advisory.recommendation,
        };
        by_name
            .entry(sra.name().to_string())
            .or_insert_with(|| SystemDossier {
                name: sra.name().to_string(),
                versions: Vec::new(),
            })
            .versions
            .push(entry);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economics::DETECTION_WINDOW;
    use crate::platform::PlatformConfig;
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_chain::Ether;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::system::IoTSystem;

    fn release(p: &mut Platform, name: &str, version: &str, vulns: Vec<VulnId>) -> SraId {
        let mut rng = SimRng::seed_from_u64(version.len() as u64 ^ 0x5ee);
        let system = IoTSystem::build(name, version, p.library(), vulns, &mut rng).unwrap();
        p.release_system(0, system, Ether::from_ether(500), Ether::from_ether(20))
            .unwrap()
    }

    fn dossier_for(p: &Platform, name: &str) -> Option<SystemDossier> {
        build_reference(p, RiskTolerance::default()).remove(name)
    }

    fn confirm(p: &mut Platform, sra_id: SraId, vulns: Vec<VulnId>) {
        let d = KeyPair::from_seed(b"ref-detector");
        p.fund(d.address(), Ether::from_ether(10));
        let (i, r) = create_report_pair(&d, sra_id, Findings::new(vulns, "ref"));
        p.submit_initial(&d, i).unwrap();
        p.mine_blocks(8);
        p.submit_detailed(&d, r).unwrap();
        p.mine_blocks(8);
    }

    #[test]
    fn dossier_spans_versions_and_recommends_cleanest() {
        let mut p = Platform::new(PlatformConfig::paper());
        let v1 = release(&mut p, "cam-fw", "1.0", vec![VulnId(1), VulnId(2)]);
        confirm(&mut p, v1, vec![VulnId(1), VulnId(2)]);
        let _v2 = release(&mut p, "cam-fw", "2.0", vec![]);
        p.mine_blocks(8);

        let dossier = dossier_for(&p, "cam-fw").unwrap();
        assert_eq!(dossier.versions.len(), 2);
        let latest = dossier.latest().unwrap();
        assert_eq!(latest.version, "2.0");
        assert!(latest.vulnerabilities.is_empty());
        assert_eq!(latest.recommendation, Recommendation::Deploy);
        // Version 1.0 shows its confirmed history.
        assert_eq!(dossier.versions[0].vulnerabilities.len(), 2);
    }

    #[test]
    fn reference_separates_distinct_systems() {
        let mut p = Platform::new(PlatformConfig::paper());
        release(&mut p, "cam-fw", "1.0", vec![]);
        release(&mut p, "lock-fw", "3.1", vec![]);
        let reference = build_reference(&p, RiskTolerance::default());
        assert_eq!(reference.len(), 2);
        assert!(reference.contains_key("cam-fw"));
        assert!(reference.contains_key("lock-fw"));
        assert!(dossier_for(&p, "ghost-fw").is_none());
    }

    #[test]
    fn escrow_and_settlement_are_visible() {
        let mut p = Platform::new(PlatformConfig::paper());
        let id = release(&mut p, "cam-fw", "1.0", vec![]);
        p.mine_blocks(8); // the escrow opens when the SRA is final
        let before = dossier_for(&p, "cam-fw").unwrap();
        assert!(!before.versions[0].settled);
        assert!((before.versions[0].escrow_remaining_eth - 500.0).abs() < 1e-9);
        // The SRA was sealed in block 1: its window closes when that block
        // has DETECTION_WINDOW confirmations.
        p.mine_blocks((DETECTION_WINDOW - p.store().best_height()) as usize);
        let after = dossier_for(&p, "cam-fw").unwrap();
        assert!(after.versions[0].settled);
        assert_eq!(after.versions[0].escrow_remaining_eth, 0.0);
        let refunded = p.settlement().escrows()[&id].refunded;
        assert_eq!(refunded, Some(Ether::from_ether(500)));
    }

    #[test]
    fn empty_platform_has_empty_reference() {
        let p = Platform::new(PlatformConfig::paper());
        assert!(build_reference(&p, RiskTolerance::default()).is_empty());
    }
}
