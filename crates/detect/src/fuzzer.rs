//! Dynamic analysis: a seeded fuzzing campaign.
//!
//! §VIII: "SmartCrowd enables incentives not only for static detection,
//! but also for dynamic or fuzzy testing as long as IoT detectors or
//! providers have these detection capabilities." This module models the
//! dynamic path: instead of matching known signatures, a fuzzer feeds
//! generated inputs to the firmware and discovers planted vulnerabilities
//! probabilistically — including ones *no* scanner has a signature for.
//!
//! Each vulnerability has a deterministic trigger difficulty derived from
//! its id: an execution triggers an undiscovered vulnerability with
//! probability `1/difficulty`, giving the familiar diminishing-returns
//! discovery curve of real fuzzing campaigns.

use crate::library::VulnLibrary;
use crate::system::IoTSystem;
use crate::vulnerability::{Severity, VulnId};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_crypto::keccak::keccak256;

/// Trigger difficulty of a vulnerability (expected executions to hit it).
/// Derived from the id so campaigns are reproducible; range 50–5000,
/// skewed harder for higher severities (deep bugs are harder to reach).
pub(crate) fn trigger_difficulty(library: &VulnLibrary, id: VulnId) -> u64 {
    let digest = keccak256(format!("fuzz-difficulty-{}", id.0).as_bytes());
    let base = 50 + u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % 1950;
    match library.get(id).map(|v| v.severity) {
        Some(Severity::High) => base * 2,
        Some(Severity::Medium) => base + base / 2,
        _ => base,
    }
}

/// One discovery event in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discovery {
    /// Execution index at which the vulnerability triggered.
    pub execution: u64,
    /// What was found.
    pub vuln: VulnId,
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Discoveries in execution order.
    pub discoveries: Vec<Discovery>,
    /// Total executions spent.
    pub executions: u64,
}

impl CampaignReport {
    /// The found vulnerability ids, in discovery order.
    pub fn found(&self) -> Vec<VulnId> {
        self.discoveries.iter().map(|d| d.vuln).collect()
    }

    /// Fraction of the target's planted vulnerabilities discovered.
    pub fn coverage(&self, target: &IoTSystem) -> f64 {
        if target.ground_truth().is_empty() {
            return 1.0;
        }
        self.discoveries.len() as f64 / target.ground_truth().len() as f64
    }
}

/// A fuzzing engine.
///
/// # Example
///
/// ```
/// use smartcrowd_detect::fuzzer::Fuzzer;
/// use smartcrowd_detect::{IoTSystem, VulnLibrary};
/// use smartcrowd_detect::vulnerability::VulnId;
/// use smartcrowd_chain::rng::SimRng;
///
/// let lib = VulnLibrary::synthetic(50, 1);
/// let mut rng = SimRng::seed_from_u64(2);
/// let sys = IoTSystem::build("fw", "1", &lib, vec![VulnId(1)], &mut rng).unwrap();
/// let report = Fuzzer::new(7).campaign(&sys, &lib, 100_000);
/// assert_eq!(report.found(), vec![VulnId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct Fuzzer {
    rng: SimRng,
}

impl Fuzzer {
    /// Creates a fuzzer with a campaign seed.
    pub fn new(seed: u64) -> Self {
        Fuzzer {
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Runs up to `budget` executions against `target`, stopping early when
    /// everything planted has triggered.
    pub fn campaign(
        &mut self,
        target: &IoTSystem,
        library: &VulnLibrary,
        budget: u64,
    ) -> CampaignReport {
        let mut remaining: Vec<(VulnId, u64)> = target
            .ground_truth()
            .iter()
            .map(|&id| (id, trigger_difficulty(library, id)))
            .collect();
        let mut report = CampaignReport::default();
        for execution in 0..budget {
            if remaining.is_empty() {
                break;
            }
            report.executions = execution + 1;
            // Each execution independently probes every live bug.
            let mut triggered = Vec::new();
            for (idx, (_, difficulty)) in remaining.iter().enumerate() {
                if self.rng.next_bool(1.0 / *difficulty as f64) {
                    triggered.push(idx);
                }
            }
            for idx in triggered.into_iter().rev() {
                let (vuln, _) = remaining.remove(idx);
                report.discoveries.push(Discovery { execution, vuln });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vulns: Vec<VulnId>) -> (VulnLibrary, IoTSystem) {
        let lib = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(3);
        let sys = IoTSystem::build("fw", "1", &lib, vulns, &mut rng).unwrap();
        (lib, sys)
    }

    #[test]
    fn finds_everything_with_ample_budget() {
        let (lib, sys) = setup((1..=5).map(VulnId).collect());
        let report = Fuzzer::new(1).campaign(&sys, &lib, 500_000);
        let mut found = report.found();
        found.sort();
        assert_eq!(found, (1..=5).map(VulnId).collect::<Vec<_>>());
        assert!((report.coverage(&sys) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn finds_nothing_in_clean_firmware() {
        let (lib, sys) = setup(vec![]);
        let report = Fuzzer::new(1).campaign(&sys, &lib, 10_000);
        assert!(report.found().is_empty());
        assert_eq!(report.coverage(&sys), 1.0, "vacuous coverage");
        assert_eq!(report.executions, 0, "stops immediately");
    }

    #[test]
    fn tiny_budget_finds_less_than_huge_budget() {
        let (lib, sys) = setup((1..=10).map(VulnId).collect());
        let small = Fuzzer::new(2).campaign(&sys, &lib, 50);
        let large = Fuzzer::new(2).campaign(&sys, &lib, 200_000);
        assert!(small.discoveries.len() <= large.discoveries.len());
        assert_eq!(large.discoveries.len(), 10);
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let (lib, sys) = setup((1..=4).map(VulnId).collect());
        let a = Fuzzer::new(9).campaign(&sys, &lib, 100_000);
        let b = Fuzzer::new(9).campaign(&sys, &lib, 100_000);
        assert_eq!(a.discoveries, b.discoveries);
        let c = Fuzzer::new(10).campaign(&sys, &lib, 100_000);
        assert_ne!(a.discoveries, c.discoveries);
    }

    #[test]
    fn difficulty_is_stable_and_severity_weighted() {
        let lib = VulnLibrary::synthetic(500, 1);
        for id in (1..=20).map(VulnId) {
            assert_eq!(trigger_difficulty(&lib, id), trigger_difficulty(&lib, id));
            let d = trigger_difficulty(&lib, id);
            assert!((50..=5000).contains(&d), "difficulty {d} out of range");
        }
        // On average, High entries are harder than Low ones.
        let mean = |sev: Severity| {
            let ids = lib.ids_by_severity(sev);
            ids.iter()
                .map(|&i| trigger_difficulty(&lib, i))
                .sum::<u64>() as f64
                / ids.len() as f64
        };
        assert!(mean(Severity::High) > mean(Severity::Low));
    }

    #[test]
    fn fuzzing_finds_bugs_signature_scanners_cannot() {
        // A scanner with zero coverage finds nothing; the fuzzer needs no
        // signatures at all — the §VIII dynamic-testing story.
        use crate::scanner::Scanner;
        let (lib, sys) = setup(vec![VulnId(7)]);
        let mut rng = SimRng::seed_from_u64(4);
        let blind = Scanner::new("blind", []);
        assert!(blind.scan(&sys, &lib, &mut rng).found.is_empty());
        let report = Fuzzer::new(5).campaign(&sys, &lib, 200_000);
        assert_eq!(report.found(), vec![VulnId(7)]);
    }

    #[test]
    fn discovery_curve_has_diminishing_returns() {
        // The first half of the findings should arrive in far fewer
        // executions than the second half (geometric race).
        let (lib, sys) = setup((1..=20).map(VulnId).collect());
        let report = Fuzzer::new(6).campaign(&sys, &lib, 1_000_000);
        assert_eq!(report.discoveries.len(), 20);
        let mid = report.discoveries[9].execution;
        let last = report.discoveries[19].execution;
        assert!(
            last > mid * 2,
            "tail discoveries should be much slower: mid={mid}, last={last}"
        );
    }
}
