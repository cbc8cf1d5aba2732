//! The detector role (§IV-A).
//!
//! A [`Detector`] is lightweight: it holds keys and a scanner, never a
//! blockchain. It downloads a released image, verifies `U_h`, scans, and
//! produces the two-phase report pair. The paper's §VII-B experiment runs
//! eight detectors whose capability scales with their thread count;
//! [`DetectorFleet::paper_fleet`] reproduces that setup with signature
//! coverage proportional to capability.

use crate::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use crate::sra::Sra;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_detect::capability::DetectionCapability;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::scanner::Scanner;
use smartcrowd_detect::system::IoTSystem;

/// A lightweight detection participant.
#[derive(Debug, Clone)]
pub struct Detector {
    keypair: KeyPair,
    scanner: Scanner,
}

impl Detector {
    /// Creates a detector with an explicit scanner.
    pub fn new(keypair: KeyPair, scanner: Scanner) -> Self {
        Detector { keypair, scanner }
    }

    /// The detector's signing keys.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The detector's account address (`D_i` and default wallet `W_{D_i}`).
    pub fn address(&self) -> Address {
        self.keypair.address()
    }

    /// The detection engine this detector scans with.
    pub fn scanner(&self) -> &Scanner {
        &self.scanner
    }

    /// Performs the §V-B detection flow against a downloaded image:
    /// check `U_h`, scan, and build the `R†`/`R*` pair. Returns `None`
    /// when the image fails integrity or nothing was found.
    pub fn detect(
        &self,
        sra: &Sra,
        image: &IoTSystem,
        library: &VulnLibrary,
        rng: &mut SimRng,
    ) -> Option<(InitialReport, DetailedReport)> {
        if !sra.image_matches(image.image()) {
            return None; // spoofed or corrupted download
        }
        let report = self.scanner.scan(image, library, rng);
        if report.found.is_empty() {
            return None;
        }
        let findings = Findings::new(
            report.found.clone(),
            &format!("{} findings by {}", report.found.len(), self.scanner.name()),
        );
        Some(create_report_pair(&self.keypair, *sra.id(), findings))
    }
}

/// A fleet of detectors with graded capabilities.
#[derive(Debug, Clone)]
pub struct DetectorFleet {
    detectors: Vec<Detector>,
}

impl DetectorFleet {
    /// A fleet of `count` detectors with linearly graded capabilities:
    /// detector `k` (1-based) gets capability `k/count × base` and a
    /// signature coverage of that fraction of the library.
    pub fn graded(library: &VulnLibrary, count: u32, base_capability: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let detectors = (1..=count)
            .map(|threads| {
                let capability =
                    DetectionCapability::new(base_capability * threads as f64 / count as f64);
                let coverage_size = ((library.len() as f64) * capability.dc).round() as usize;
                let coverage = library
                    .sample_ids(coverage_size.min(library.len()), &mut rng)
                    .expect("coverage fits the library");
                let scanner = Scanner::new(&format!("detector-{threads}t"), coverage);
                let keypair = KeyPair::from_seed(format!("fleet-detector-{threads}").as_bytes());
                Detector::new(keypair, scanner)
            })
            .collect();
        DetectorFleet { detectors }
    }

    /// The paper's eight detectors: threads 1..=8, signature coverage
    /// proportional to `threads/8` of the library, detection rate likewise
    /// thread-scaled (§VII-B: "preset the detection capabilities of
    /// detectors by adjusting thread numbers 1∼8").
    pub fn paper_fleet(library: &VulnLibrary, base_capability: f64, seed: u64) -> Self {
        Self::graded(library, 8, base_capability, seed)
    }

    /// The detectors, weakest (1 thread) first.
    pub fn detectors(&self) -> &[Detector] {
        &self.detectors
    }

    /// Number of detectors (`m`).
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::Ether;
    use smartcrowd_detect::vulnerability::VulnId;

    fn setup() -> (VulnLibrary, IoTSystem, Sra, SimRng) {
        let library = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let vulns: Vec<VulnId> = (1..=20).map(VulnId).collect();
        let system = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();
        let provider = KeyPair::from_seed(b"p");
        let sra = Sra::create(
            &provider,
            system.name(),
            system.version(),
            *system.image_hash(),
            "sim://fw/1",
            Ether::from_ether(1000),
            Ether::from_ether(25),
        );
        (library, system, sra, rng)
    }

    #[test]
    fn detect_produces_verifiable_pair() {
        let (library, system, sra, mut rng) = setup();
        let d = Detector::new(
            KeyPair::from_seed(b"d"),
            Scanner::new("full", (1..=100).map(VulnId)),
        );
        let (initial, detailed) = d.detect(&sra, &system, &library, &mut rng).unwrap();
        assert!(initial.verify().is_ok());
        assert!(detailed.verify_against(&initial).is_ok());
        assert_eq!(detailed.findings().len(), 20);
    }

    #[test]
    fn detect_rejects_tampered_image() {
        let (library, system, sra, mut rng) = setup();
        let repackaged = system.repackaged_with(&library, VulnId(50));
        let d = Detector::new(
            KeyPair::from_seed(b"d"),
            Scanner::new("full", (1..=100).map(VulnId)),
        );
        assert!(d.detect(&sra, &repackaged, &library, &mut rng).is_none());
    }

    #[test]
    fn empty_scan_yields_no_report() {
        let (library, system, sra, mut rng) = setup();
        let d = Detector::new(KeyPair::from_seed(b"d"), Scanner::new("blind", []));
        assert!(d.detect(&sra, &system, &library, &mut rng).is_none());
    }

    #[test]
    fn paper_fleet_capabilities_scale_with_threads() {
        let library = VulnLibrary::synthetic(200, 3);
        let fleet = DetectorFleet::paper_fleet(&library, 0.8, 7);
        assert_eq!(fleet.len(), 8);
        for (i, d) in fleet.detectors().iter().enumerate() {
            assert_eq!(d.scanner().name(), format!("detector-{}t", i + 1));
        }
        // Coverage grows with thread count.
        let sizes: Vec<usize> = fleet
            .detectors()
            .iter()
            .map(|d| {
                let (_, system, _, _) = {
                    let mut rng = SimRng::seed_from_u64(9);
                    let vulns: Vec<VulnId> = (1..=200).map(VulnId).collect();
                    let sys = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();
                    ((), sys, (), ())
                };
                let mut rng = SimRng::seed_from_u64(10);
                let p = KeyPair::from_seed(b"p");
                let sra = Sra::create(
                    &p,
                    "fw",
                    "1",
                    *system.image_hash(),
                    "l",
                    Ether::from_ether(1000),
                    Ether::ZERO,
                );
                d.detect(&sra, &system, &library, &mut rng)
                    .map(|(_, det)| det.findings().len())
                    .unwrap_or(0)
            })
            .collect();
        // The 8-thread detector finds roughly 8x what the 1-thread one does.
        assert!(sizes[7] > sizes[0] * 5, "sizes: {sizes:?}");
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0], "monotone capability: {sizes:?}");
        }
    }

    #[test]
    fn fleet_detectors_have_distinct_identities() {
        let library = VulnLibrary::synthetic(50, 3);
        let fleet = DetectorFleet::paper_fleet(&library, 0.8, 7);
        let mut addrs: Vec<Address> = fleet.detectors().iter().map(|d| d.address()).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 8);
    }
}
