//! Firmware release lifecycle: a vendor ships versions over time, the
//! detector fleet audits each one, and the vendor's balance reflects its
//! release hygiene — the paper's accountability story (§VI-A) end to end.
//!
//! Version 1.0 ships with vulnerabilities (the vendor loses part of its
//! insurance), 2.0 patches them (clean release, full refund at window
//! close), 2.1 regresses with a repackaged-malware-style flaw.
//!
//! Run: `cargo run --release --example firmware_release`

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::Ether;
use smartcrowd::core::consumer::{advise, RiskTolerance};
use smartcrowd::core::detector::DetectorFleet;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;

fn main() {
    println!("== firmware release lifecycle ==\n");
    let mut platform = Platform::new(PlatformConfig::paper());
    let library = platform.library().clone();
    let fleet = DetectorFleet::paper_fleet(&library, 0.95, 7);
    for d in fleet.detectors() {
        platform.fund(d.address(), Ether::from_ether(20));
    }
    let mut rng = SimRng::seed_from_u64(99);
    let vendor = 1; // the 22.10%-HP provider
    let vendor_addr = platform.providers()[vendor].address;

    let releases = [
        (
            "1.0",
            vec![VulnId(5), VulnId(9), VulnId(12)],
            "initial release, 3 bugs",
        ),
        ("2.0", vec![], "patch release, clean"),
        ("2.1", vec![VulnId(40)], "regression: repackaged payload"),
    ];

    for (version, vulns, label) in releases {
        println!("--- releasing smart-lock-fw v{version} ({label}) ---");
        let system = IoTSystem::build("smart-lock-fw", version, &library, vulns, &mut rng)
            .expect("valid vulns");
        let sra_id = platform
            .release_system(
                vendor,
                system,
                Ether::from_ether(500),
                Ether::from_ether(20),
            )
            .expect("vendor funds the release");

        // The fleet audits the release.
        let sra = platform.sra(&sra_id).unwrap().clone();
        let image = platform.download_image(&sra_id).unwrap().clone();
        let mut reveals = Vec::new();
        for detector in fleet.detectors() {
            if let Some((initial, detailed)) = detector.detect(&sra, &image, &library, &mut rng) {
                if platform.submit_initial(detector.keypair(), initial).is_ok() {
                    reveals.push((*detector.keypair(), detailed));
                }
            }
        }
        println!(
            "  {} detectors found something and committed R†",
            reveals.len()
        );
        platform.mine_blocks(8);
        let mut accepted = 0;
        for (kp, detailed) in reveals {
            if platform.submit_detailed(&kp, detailed).is_ok() {
                accepted += 1;
            }
        }
        let payouts = platform.mine_blocks(10);
        println!(
            "  {accepted} detailed reports accepted; {} payouts fired",
            payouts.len()
        );
        let forfeited = platform.forfeited(&sra_id);
        let refunded = platform.settlement().escrows()[&sra_id]
            .refunded
            .expect("window closed");
        println!("  vendor forfeited {forfeited}, refunded {refunded}");

        // A consumer checks the advisory before deploying.
        let advisory = advise(&platform, &sra_id, RiskTolerance::default());
        println!(
            "  consumer advisory for v{version}: {:?} (confirmed: {} vulns, H/M/L = {:?})\n",
            advisory.recommendation,
            advisory.vulnerabilities.len(),
            advisory.severity_counts,
        );
    }

    println!(
        "vendor account after the three releases: {}",
        platform.balance(&vendor_addr)
    );
    println!(
        "accountability: every forfeited ether traces to a confirmed \
         vulnerability on the public chain; clean releases cost only gas."
    );
}
