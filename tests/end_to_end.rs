//! Cross-crate integration: the full SmartCrowd lifecycle with multiple
//! detectors, consumer advisories and the fleet abstraction, end to end.

use smartcrowd::chain::rng::SimRng;
use smartcrowd::chain::Ether;
use smartcrowd::core::consumer::{advise, Recommendation, RiskTolerance};
use smartcrowd::core::detector::DetectorFleet;
use smartcrowd::core::economics::DETECTION_WINDOW;
use smartcrowd::core::platform::{Platform, PlatformConfig};
use smartcrowd::core::report::{create_report_pair, Findings};
use smartcrowd::crypto::keys::KeyPair;
use smartcrowd::detect::system::IoTSystem;
use smartcrowd::detect::vulnerability::VulnId;

fn platform() -> Platform {
    Platform::new(PlatformConfig::paper())
}

#[test]
fn fleet_audits_release_and_splits_bounty() {
    let mut p = platform();
    let library = p.library().clone();
    let fleet = DetectorFleet::paper_fleet(&library, 0.95, 5);
    for d in fleet.detectors() {
        p.fund(d.address(), Ether::from_ether(20));
    }
    let mut rng = SimRng::seed_from_u64(1);
    let vulns: Vec<VulnId> = (1..=12).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns.clone(), &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();

    let sra = p.sra(&sra_id).unwrap().clone();
    let image = p.download_image(&sra_id).unwrap().clone();
    let mut reveals = Vec::new();
    for d in fleet.detectors() {
        if let Some((initial, detailed)) = d.detect(&sra, &image, &library, &mut rng) {
            p.submit_initial(d.keypair(), initial).unwrap();
            reveals.push((*d.keypair(), detailed));
        }
    }
    assert!(reveals.len() >= 4, "most of the fleet finds something");
    p.mine_blocks(8);
    for (kp, detailed) in reveals {
        p.submit_detailed(&kp, detailed).unwrap();
    }
    let payouts = p.mine_blocks(10);
    assert!(!payouts.is_empty());
    // Every planted vulnerability that anyone found is paid exactly once.
    let total_vulns: u64 = payouts.iter().map(|pp| pp.vulnerabilities).sum();
    let confirmed = p.confirmed_vulnerabilities(&sra_id);
    assert_eq!(total_vulns as usize, confirmed.len());
    assert!(confirmed.iter().all(|v| vulns.contains(v)));
    // Forfeit equals μ × confirmed count.
    assert_eq!(
        p.forfeited(&sra_id),
        Ether::from_ether(25).scaled(total_vulns)
    );
}

#[test]
fn settlement_refunds_clean_release() {
    let mut p = platform();
    let mut rng = SimRng::seed_from_u64(2);
    let system = IoTSystem::build("fw", "1", p.library(), vec![], &mut rng).unwrap();
    let provider_addr = p.providers()[1].address;
    let before = p.balance(&provider_addr);
    let sra_id = p
        .release_system(1, system, Ether::from_ether(500), Ether::from_ether(10))
        .unwrap();
    // Sealed in the next block, the SRA's window closes when that block
    // has DETECTION_WINDOW confirmations.
    p.mine_blocks(DETECTION_WINDOW as usize);
    let refunded = |p: &Platform| p.settlement().escrows()[&sra_id].refunded;
    assert_eq!(refunded(&p), Some(Ether::from_ether(500)));
    // Net cost to provider = gas only (its mining income set aside).
    let net = |p: &Platform| p.balance(&provider_addr) - p.mining_income(&provider_addr);
    let spent = before - net(&p);
    assert!(
        spent < Ether::from_milliether(200),
        "only gas spent, got {spent}"
    );
    // The refund fires once.
    p.mine_blocks(DETECTION_WINDOW as usize);
    assert_eq!(refunded(&p), Some(Ether::from_ether(500)));
    assert_eq!(before - net(&p), spent);
}

#[test]
fn consumer_sees_aggregate_not_single_scanner_view() {
    let mut p = platform();
    let library = p.library().clone();
    let mut rng = SimRng::seed_from_u64(3);
    let vulns: Vec<VulnId> = (1..=6).map(VulnId).collect();
    let system = IoTSystem::build("fw", "1", &library, vulns.clone(), &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    // Two detectors with *partial*, different views.
    let a = KeyPair::from_seed(b"partial-a");
    let b = KeyPair::from_seed(b"partial-b");
    p.fund(a.address(), Ether::from_ether(10));
    p.fund(b.address(), Ether::from_ether(10));
    let (ia, da) = create_report_pair(
        &a,
        sra_id,
        Findings::new(vec![VulnId(1), VulnId(2), VulnId(3)], "a's view"),
    );
    let (ib, db) = create_report_pair(
        &b,
        sra_id,
        Findings::new(vec![VulnId(3), VulnId(4), VulnId(5), VulnId(6)], "b's view"),
    );
    p.submit_initial(&a, ia).unwrap();
    p.submit_initial(&b, ib).unwrap();
    p.mine_blocks(8);
    p.submit_detailed(&a, da).unwrap();
    p.submit_detailed(&b, db).unwrap();
    p.mine_blocks(10);
    // The chain aggregates both partial views into the full set.
    let advisory = advise(&p, &sra_id, RiskTolerance::default());
    assert_eq!(advisory.vulnerabilities, vulns);
    assert_ne!(advisory.recommendation, Recommendation::Deploy);
    // Overlapping vuln 3 was paid exactly once.
    let paid: u64 = p.payouts().iter().map(|pp| pp.vulnerabilities).sum();
    assert_eq!(paid, 6);
}

#[test]
fn chain_records_survive_and_index_by_kind() {
    use smartcrowd::chain::record::RecordKind;
    let mut p = platform();
    let mut rng = SimRng::seed_from_u64(4);
    let system = IoTSystem::build("fw", "1", p.library(), vec![VulnId(1)], &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    let d = KeyPair::from_seed(b"d");
    p.fund(d.address(), Ether::from_ether(10));
    let (initial, detailed) = create_report_pair(&d, sra_id, Findings::new(vec![VulnId(1)], "one"));
    p.submit_initial(&d, initial).unwrap();
    p.mine_blocks(8);
    p.submit_detailed(&d, detailed).unwrap();
    p.mine_blocks(8);
    let sras = p.store().records_of_kind(RecordKind::Sra);
    let initials = p.store().records_of_kind(RecordKind::InitialReport);
    let detaileds = p.store().records_of_kind(RecordKind::DetailedReport);
    assert_eq!(sras.len(), 1);
    assert_eq!(initials.len(), 1);
    assert_eq!(detaileds.len(), 1);
    // The SRA payload decodes back into the announcement.
    let decoded = smartcrowd::core::Sra::decode(sras[0].0.payload()).unwrap();
    assert_eq!(decoded.id(), &sra_id);
    assert!(decoded.verify().is_ok());
}

#[test]
fn detector_without_initial_cannot_reveal() {
    let mut p = platform();
    let mut rng = SimRng::seed_from_u64(5);
    let system = IoTSystem::build("fw", "1", p.library(), vec![VulnId(1)], &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();
    let d = KeyPair::from_seed(b"impatient");
    p.fund(d.address(), Ether::from_ether(10));
    let (_, detailed) = create_report_pair(&d, sra_id, Findings::new(vec![VulnId(1)], "one"));
    p.mine_blocks(8);
    let err = p.submit_detailed(&d, detailed).unwrap_err();
    assert_eq!(err, smartcrowd::core::CoreError::InitialNotConfirmed);
}

#[test]
fn double_claims_of_one_vulnerability_are_paid_once() {
    // Two detectors report the same bug; the platform's first-confirmer
    // rule pays only once.
    let mut p = platform();
    let mut rng = SimRng::seed_from_u64(22);
    let system = IoTSystem::build("fw", "1", p.library(), vec![VulnId(9)], &mut rng).unwrap();
    let sra_id = p
        .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
        .unwrap();

    let a = KeyPair::from_seed(b"first-finder");
    let b = KeyPair::from_seed(b"second-finder");
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
