//! Integration: the §VIII dynamic/fuzz-testing path feeding the normal
//! two-phase incentive flow — a detector with *no* signature coverage
//! fuzzes the artifact, discovers a planted vulnerability, reports it and
//! gets paid, end to end.

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::Ether;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, Findings};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::fuzzer::Fuzzer;
use smartcrowd::detect::scanner::Scanner;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;

#[test]
fn fuzzer_earns_bounty_without_signatures() {
    let mut p = Platform::new(PlatformConfig::paper());
    let library = p.library().clone();
    let mut rng = SimRng::seed_from_u64(21);
    let vulns = vec![VulnId(3), VulnId(4)];
    let system = IoTSystem::build("fw", "1", &library, vulns.clone(), &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();

    // A signature scanner with zero coverage sees nothing…
    let image = p.download_image(&sra_id).unwrap().clone();
    let blind = Scanner::new("blind", []);
    assert!(blind.scan(&image, &library, &mut rng).found.is_empty());

    // …but a fuzzing campaign against the same artifact triggers both bugs.
    let mut fuzzer = Fuzzer::new(5);
    let campaign = fuzzer.campaign(&image, &library, 500_000);
    let mut found = campaign.found();
    found.sort();
    assert_eq!(found, vulns);

    // The dynamic findings go through the ordinary two-phase protocol.
    let hunter = KeyPair::from_seed(b"fuzz-hunter");
    p.fund(hunter.address(), Ether::from_ether(10));
    let (initial, detailed) = create_report_pair(
        &hunter,
        sra_id,
        Findings::new(found, "found by fuzzing, no signatures involved"),
    );
    p.submit_initial(&hunter, initial).unwrap();
    p.mine_blocks(8);
    p.submit_detailed(&hunter, detailed).unwrap();
    let payouts = p.mine_blocks(8);
    assert_eq!(payouts.len(), 1);
    assert_eq!(payouts[0].amount, Ether::from_ether(50));
    assert_eq!(payouts[0].wallet, hunter.address());
}

#[test]
fn double_claims_of_one_vulnerability_are_paid_once() {
    // Two detectors find the same bug via different methods; the
    // platform's first-confirmer rule pays only once.
    let mut p = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(22);
    let system = IoTSystem::build("fw", "1", p.library(), vec![VulnId(9)], &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();

    let a = KeyPair::from_seed(b"static-side");
    let b = KeyPair::from_seed(b"fuzz-side");
    for kp in [&a, &b] {
        p.fund(kp.address(), Ether::from_ether(10));
        let (initial, _) = create_report_pair(
            kp,
            sra_id,
            Findings::new(vec![VulnId(9)], "same finding, different wording"),
        );
        p.submit_initial(kp, initial).unwrap();
    }
    p.mine_blocks(8);
    for kp in [&a, &b] {
        let (_, detailed) = create_report_pair(
            kp,
            sra_id,
            Findings::new(vec![VulnId(9)], "same finding, different wording"),
        );
        p.submit_detailed(kp, detailed).unwrap();
    }
    let payouts = p.mine_blocks(10);
    let total: u64 = payouts.iter().map(|pp| pp.vulnerabilities).sum();
    assert_eq!(total, 1, "the vulnerability is paid exactly once");
}

#[test]
fn fuzz_discovery_is_slower_but_broader_than_scanning() {
    let library = smartcrowd::detect::VulnLibrary::synthetic(100, 30);
    let mut rng = SimRng::seed_from_u64(31);
    let vulns: Vec<VulnId> = (1..=10).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();

    // A scanner knowing half the library instantly finds its subset…
    let partial = Scanner::new("partial", (1..=5).map(VulnId));
    let scanned = partial.scan(&system, &library, &mut rng);
    assert_eq!(scanned.found.len(), 5);

    // …the fuzzer eventually finds all ten, including the unknown half.
    let mut fuzzer = Fuzzer::new(32);
    let campaign = fuzzer.campaign(&system, &library, 2_000_000);
    assert_eq!(campaign.discoveries.len(), 10);
    assert!(
        campaign.executions > 100,
        "dynamic testing pays in executions: {}",
        campaign.executions
    );
}
