//! Quickstart: one release, one detector, one automatic payout.
//!
//! Walks the paper's full §IV-B workflow on a single platform:
//! release → initial report → confirmation → detailed report →
//! confirmation → contract-triggered incentive.
//!
//! Run: `cargo run --release --example quickstart`

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::Ether;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, Findings};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;

fn main() {
    println!("== SmartCrowd quickstart ==\n");
    let mut platform = Platform::new(PlatformConfig::paper());
    println!(
        "platform booted: {} providers maintaining the chain",
        platform.providers().len()
    );

    // Phase 1 — an IoT provider releases firmware with an insurance.
    let mut rng = SimRng::seed_from_u64(42);
    let system = IoTSystem::build(
        "smart-camera-fw",
        "2.4.1",
        platform.library(),
        vec![VulnId(17), VulnId(23)],
        &mut rng,
    )
    .expect("library holds these ids");
    let sra_id = platform
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .expect("provider can fund the release");
    println!("\nPhase 1  SRA released: smart-camera-fw v2.4.1, insurance 1000 ETH, μ = 25 ETH");

    // Phase 2a — a detector scans and submits its initial report R†.
    let detector = KeyPair::from_seed(b"quickstart-detector");
    platform.fund(detector.address(), Ether::from_ether(10));
    let findings = Findings::new(vec![VulnId(17), VulnId(23)], "two planted flaws found");
    let (initial, detailed) = create_report_pair(&detector, sra_id, findings);
    platform
        .submit_initial(&detector, initial)
        .expect("initial report admitted");
    println!("\nPhase 2a R† submitted (commitment to the yet-unrevealed findings)");

    // Phase 3 — providers mine; R† reaches 6-block finality.
    platform.mine_blocks(8);
    println!("Phase 3  8 blocks mined; the SRA and R† are final");
    println!(
        "         the confirmed SRA opened its escrow, which holds {}",
        platform.escrow_balance(&sra_id).expect("SRA is final")
    );

    // Phase 2b — the detector reveals R*.
    platform
        .submit_detailed(&detector, detailed)
        .expect("detailed report passes Algorithm 1 + AutoVerif");
    println!("Phase 2b R* revealed and verified by AutoVerif against the artifact");

    // Phase 4 — finality triggers the escrow payout automatically.
    let before = platform.balance(&detector.address());
    let payouts = platform.mine_blocks(8);
    let after = platform.balance(&detector.address());
    println!("\nPhase 4  automatic incentive allocation:");
    for p in &payouts {
        println!(
            "         escrow paid {} for {} vulnerabilities → {}",
            p.amount, p.vulnerabilities, p.wallet
        );
    }
    println!("         detector balance: {before} → {after}");
    let refunded = platform.settlement().escrows()[&sra_id].refunded;
    println!(
        "         window closed: {} refunded to the provider",
        refunded.expect("the same blocks closed the detection window")
    );
    println!(
        "\nconsumers can now query the chain: confirmed vulnerabilities = {:?}",
        platform.confirmed_vulnerabilities(&sra_id)
    );
}
