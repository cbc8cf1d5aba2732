//! Simulation configuration.

use smartcrowd_chain::Ether;
use smartcrowd_core::economics::{INCENTIVE_PER_VULN, INSURANCE, VULNS_PER_RELEASE};
use smartcrowd_core::platform::PlatformConfig;

/// Full configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The platform (provider funding, seed).
    pub platform: PlatformConfig,
    /// Simulated wall-clock duration in seconds.
    pub duration_secs: f64,
    /// Mean period between SRAs (`θ` of §VI-B), seconds.
    pub sra_period_secs: f64,
    /// Which provider index releases systems (the paper picks the 14.90 %
    /// provider for the detector experiment).
    pub releasing_provider: usize,
    /// Probability a release is vulnerable (VP).
    pub vulnerability_proportion: f64,
    /// Vulnerabilities planted when vulnerable.
    pub vulns_per_release: usize,
    /// Insurance per release.
    pub insurance: Ether,
    /// Per-vulnerability incentive `μ`.
    pub incentive_per_vuln: Ether,
    /// Number of detectors (capabilities scale 1..=n like the paper's
    /// thread counts).
    pub detectors: usize,
    /// RNG seed for the run (releases, scans).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's §VII experiment defaults: 5 providers, the 14.90 %
    /// provider releasing every 10 minutes with 1000-ether insurance,
    /// 8 thread-scaled detectors.
    pub fn paper() -> Self {
        SimConfig {
            platform: PlatformConfig::paper(),
            duration_secs: 600.0,
            sra_period_secs: 600.0,
            releasing_provider: 2, // the 14.90 % node
            vulnerability_proportion: 0.038,
            vulns_per_release: VULNS_PER_RELEASE as usize,
            insurance: INSURANCE,
            incentive_per_vuln: INCENTIVE_PER_VULN,
            detectors: 8,
            seed: 2019,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper();
        assert_eq!(c.detectors, 8);
        assert_eq!(c.releasing_provider, 2);
        assert!((c.vulnerability_proportion - 0.038).abs() < 1e-12);
        assert_eq!(c.insurance, Ether::from_ether(1000));
    }
}
