//! Retrospective detection (the SmartRetro extension, cited as [46]):
//! a zero-day is disclosed months after a firmware shipped; the monitor
//! re-audits every past release, notifies consumers automatically, and a
//! detector claims the still-open bounty through the normal two-phase
//! flow.
//!
//! Run: `cargo run --release --example retrospective_detection`

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::{Ether, CONFIRMATION_DEPTH};
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, Findings};
use smartcrowd::core::retro::RetroMonitor;
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::{Category, Severity, Vulnerability};

fn main() {
    println!("== retrospective detection ==\n");
    let mut platform = Platform::new(PlatformConfig::paper());

    // A latent flaw nobody has a signature for yet. (We must know its
    // identity to plant it; the scanners and the monitor do not.)
    let zero_day = platform.library().next_id();
    platform.publish_vulnerability(Vulnerability {
        id: zero_day,
        severity: Severity::High,
        category: Category::CryptoMisuse,
        description: "ECB-mode session keys (disclosed two years post-release)".into(),
    });

    let mut rng = SimRng::seed_from_u64(2019);
    let affected = IoTSystem::build(
        "smart-plug-fw",
        "3.0",
        platform.library(),
        vec![zero_day],
        &mut rng,
    )
    .unwrap();
    let clean =
        IoTSystem::build("thermostat-fw", "1.2", platform.library(), vec![], &mut rng).unwrap();
    let affected_sra = platform
        .release_system(0, affected, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    platform
        .release_system(1, clean, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    platform.mine_blocks(1);
    println!("two systems released; nobody flags anything (no signatures exist yet)\n");

    // The monitor was checkpointed *before* the disclosure; the last
    // library entry therefore counts as a fresh disclosure.
    let mut monitor = RetroMonitor::from_checkpoint(platform.library().len() - 1);
    println!("…time passes; the vulnerability is disclosed upstream…\n");

    let notifications = monitor.rescan(&platform);
    println!("retro re-scan of all released images:");
    for n in &notifications {
        println!(
            "  ⚠ {} contains {} [{}] — bounty open: {}",
            n.system, n.vuln, n.severity, n.bounty_open
        );
    }
    assert_eq!(notifications.len(), 1, "only the affected system fires");

    // A detector reads the advisory and claims the open bounty, revealing
    // as soon as its R† is final so that R* is sealed inside the window.
    let hunter = KeyPair::from_seed(b"retro-hunter");
    platform.fund(hunter.address(), Ether::from_ether(10));
    let (initial, detailed) = create_report_pair(
        &hunter,
        affected_sra,
        Findings::new(vec![zero_day], "confirmed ECB-mode session keys"),
    );
    platform.submit_initial(&hunter, initial).unwrap();
    platform.mine_blocks(1 + CONFIRMATION_DEPTH as usize);
    platform.submit_detailed(&hunter, detailed).unwrap();
    let payouts = platform.mine_blocks(8);
    println!("\nbounty claimed retroactively:");
    for p in &payouts {
        println!("  escrow paid {} to {}", p.amount, p.wallet);
    }
    println!(
        "\nconsumers that deployed smart-plug-fw v3.0 were notified \
         automatically; the chain now records the finding permanently."
    );
}
