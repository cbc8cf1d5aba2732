//! Scanner models.
//!
//! A [`Scanner`] knows the signatures of a *subset* of the vulnerability
//! library — its signature coverage — and finds a planted vulnerability iff
//! it both knows the signature and the per-scan detection roll succeeds.
//! Independent coverage subsets are exactly why real services "share very
//! limited commonality" (Table I): VirusTotal and Quixxi disagree because
//! they know different signatures, not because scanning is random.

use crate::library::VulnLibrary;
use crate::system::IoTSystem;
use crate::vulnerability::{Severity, VulnId};
use smartcrowd_chain::rng::SimRng;
use std::collections::BTreeSet;

/// What one scan produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Name of the scanner that produced the report.
    pub scanner: String,
    /// Scanned system name/version.
    pub system: String,
    /// Vulnerabilities found, in id order.
    pub found: Vec<VulnId>,
    /// Spurious findings (false positives), in id order.
    pub false_positives: Vec<VulnId>,
}

impl ScanReport {
    /// All reported ids (true and false findings merged, sorted).
    pub fn reported(&self) -> Vec<VulnId> {
        let mut all: Vec<VulnId> = self
            .found
            .iter()
            .chain(&self.false_positives)
            .copied()
            .collect();
        all.sort();
        all.dedup();
        all
    }

    /// Counts findings by severity bucket `(high, medium, low)` — one row
    /// of Table I.
    pub fn severity_counts(&self, library: &VulnLibrary) -> (usize, usize, usize) {
        let mut high = 0;
        let mut medium = 0;
        let mut low = 0;
        for id in self.reported() {
            match library.get(id).map(|v| v.severity) {
                Some(Severity::High) => high += 1,
                Some(Severity::Medium) => medium += 1,
                Some(Severity::Low) => low += 1,
                None => {}
            }
        }
        (high, medium, low)
    }
}

/// A detection engine with partial signature coverage.
///
/// # Example
///
/// ```
/// use smartcrowd_detect::{Scanner, VulnLibrary, IoTSystem};
/// use smartcrowd_detect::vulnerability::VulnId;
/// use smartcrowd_chain::rng::SimRng;
///
/// let lib = VulnLibrary::synthetic(20, 1);
/// let mut rng = SimRng::seed_from_u64(2);
/// let sys = IoTSystem::build("fw", "1", &lib, vec![VulnId(1), VulnId(2)], &mut rng).unwrap();
/// let scanner = Scanner::new("demo", [VulnId(1)]);
/// let report = scanner.scan(&sys, &lib, &mut rng);
/// assert_eq!(report.found, vec![VulnId(1)]); // knows 1, not 2
/// ```
#[derive(Debug, Clone)]
pub struct Scanner {
    name: String,
    coverage: BTreeSet<VulnId>,
    detection_rate: f64,
    false_positive_rate: f64,
}

impl Scanner {
    /// A scanner that always finds what its coverage lets it see.
    pub fn new(name: &str, coverage: impl IntoIterator<Item = VulnId>) -> Self {
        Scanner {
            name: name.to_string(),
            coverage: coverage.into_iter().collect(),
            detection_rate: 1.0,
            false_positive_rate: 0.0,
        }
    }

    /// The scanner name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The known signatures.
    pub fn coverage(&self) -> &BTreeSet<VulnId> {
        &self.coverage
    }

    /// Scans a system: byte-searches the image for each known signature,
    /// then applies the detection/false-positive rolls.
    pub fn scan(&self, system: &IoTSystem, library: &VulnLibrary, rng: &mut SimRng) -> ScanReport {
        let mut found = Vec::new();
        let mut false_positives = Vec::new();
        for id in &self.coverage {
            let Some(vuln) = library.get(*id) else {
                continue;
            };
            if system.contains_signature(&vuln.signature()) {
                if rng.next_bool(self.detection_rate) {
                    found.push(*id);
                }
            } else if rng.next_bool(self.false_positive_rate) {
                false_positives.push(*id);
            }
        }
        found.sort();
        false_positives.sort();
        ScanReport {
            scanner: self.name.clone(),
            system: format!("{} v{}", system.name(), system.version()),
            found,
            false_positives,
        }
    }

    /// Overlap of two scanners' coverage (|A ∩ B| / |A ∪ B|), quantifying
    /// the Table-I commonality.
    pub(crate) fn coverage_jaccard(&self, other: &Scanner) -> f64 {
        if self.coverage.is_empty() && other.coverage.is_empty() {
            return 1.0;
        }
        let intersection = self.coverage.intersection(&other.coverage).count();
        let union = self.coverage.union(&other.coverage).count();
        intersection as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VulnLibrary, IoTSystem, SimRng) {
        let lib = VulnLibrary::synthetic(50, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let sys = IoTSystem::build(
            "fw",
            "1.0",
            &lib,
            vec![VulnId(1), VulnId(2), VulnId(3)],
            &mut rng,
        )
        .unwrap();
        (lib, sys, rng)
    }

    #[test]
    fn full_coverage_finds_everything() {
        let (lib, sys, mut rng) = setup();
        let scanner = Scanner::new("full", (1..=50).map(VulnId));
        let r = scanner.scan(&sys, &lib, &mut rng);
        assert_eq!(r.found, vec![VulnId(1), VulnId(2), VulnId(3)]);
        assert!(r.false_positives.is_empty());
    }

    #[test]
    fn zero_coverage_finds_nothing() {
        let (lib, sys, mut rng) = setup();
        let scanner = Scanner::new("blind", []);
        let r = scanner.scan(&sys, &lib, &mut rng);
        assert!(r.found.is_empty());
        assert!(r.reported().is_empty());
    }

    #[test]
    fn partial_coverage_partial_findings() {
        let (lib, sys, mut rng) = setup();
        let scanner = Scanner::new("partial", [VulnId(2), VulnId(40)]);
        let r = scanner.scan(&sys, &lib, &mut rng);
        assert_eq!(r.found, vec![VulnId(2)]);
    }

    #[test]
    fn severity_counts_bucket_correctly() {
        let (lib, sys, mut rng) = setup();
        let scanner = Scanner::new("full", (1..=50).map(VulnId));
        let r = scanner.scan(&sys, &lib, &mut rng);
        let (h, m, l) = r.severity_counts(&lib);
        assert_eq!(h + m + l, 3);
    }

    #[test]
    fn jaccard_overlap() {
        let a = Scanner::new("a", [VulnId(1), VulnId(2)]);
        let b = Scanner::new("b", [VulnId(2), VulnId(3)]);
        assert!((a.coverage_jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        let c = Scanner::new("c", []);
        assert_eq!(c.coverage_jaccard(&Scanner::new("d", [])), 1.0);
        assert_eq!(a.coverage_jaccard(&c), 0.0);
    }
}
