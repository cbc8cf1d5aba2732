//! Economics integration tests: the analytic model (Eq. 7–14) against the
//! end-to-end simulator, plus money-conservation invariants.

use smartcrowd::chain::Ether;
use smartcrowd::core::economics;
use smartcrowd::core::incentive::{
    detector_cost, detector_incentive, provider_incentive, provider_punishment, Proportion,
};
use smartcrowd::sim::config::SimConfig;
use smartcrowd::sim::run::simulate;
use smartcrowd::sim::sweep::{sweep_duration, sweep_vp};

#[test]
fn payouts_equal_forfeits_exactly() {
    // Every ether of punishment lands in a detector wallet: the escrow is
    // a closed loop (no centralized skim).
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 500.0;
    cfg.sra_period_secs = 120.0;
    cfg.vulnerability_proportion = 1.0;
    cfg.vulns_per_release = 6;
    let ledger = simulate(&cfg);
    let earned: f64 = ledger.detector_earnings.values().map(|e| e.as_f64()).sum();
    let forfeited: f64 = ledger.provider_forfeits.values().map(|e| e.as_f64()).sum();
    assert!(earned > 0.0, "the fleet should earn something");
    assert!((earned - forfeited).abs() < 1e-9, "{earned} vs {forfeited}");
}

#[test]
fn income_scales_linearly_with_time() {
    let mut base = SimConfig::paper();
    base.vulnerability_proportion = 0.0;
    base.sra_period_secs = 1e9; // no releases: pure mining income
    let points = sweep_duration(&base, &[600.0, 1800.0]);
    let total = |idx: usize| -> f64 {
        points[idx]
            .ledger
            .provider_income
            .values()
            .filter_map(|s| s.last())
            .map(|s| s.income.as_f64())
            .sum()
    };
    let ratio = total(1) / total(0);
    assert!(
        (ratio - 3.0).abs() < 0.8,
        "3× duration ≈ 3× income, got {ratio:.2}"
    );
}

#[test]
fn forfeits_grow_with_vp() {
    let mut base = SimConfig::paper();
    base.duration_secs = 1200.0;
    base.sra_period_secs = 75.0;
    base.vulns_per_release = 5;
    let points = sweep_vp(&base, &[0.0, 0.5, 1.0]);
    let forfeits: Vec<f64> = points
        .iter()
        .map(|p| {
            p.ledger
                .provider_forfeits
                .values()
                .map(|e| e.as_f64())
                .sum()
        })
        .collect();
    assert_eq!(forfeits[0], 0.0);
    assert!(forfeits[1] > 0.0);
    assert!(forfeits[2] > forfeits[1]);
}

#[test]
fn equations_are_internally_consistent() {
    // Eq. 9 with a single detector reduces to Eq. 7 plus cp.
    let mu = Ether::from_ether(25);
    let cp = Ether::from_milliether(95);
    let single = vec![(4u64, Proportion::new(1, 2))];
    assert_eq!(
        provider_punishment(mu, &single, cp),
        detector_incentive(mu, 4, Proportion::new(1, 2)) + cp
    );
    // Eq. 8 with ω = 0 is pure block reward.
    assert_eq!(
        provider_incentive(3, Ether::from_ether(5), Ether::ZERO, 0),
        Ether::from_ether(15)
    );
    // Eq. 10 at ρ = 0 charges only the submission cost.
    assert_eq!(
        detector_cost(5, Ether::from_milliether(11), Proportion::new(0, 1), mu),
        Ether::from_milliether(55)
    );
}

#[test]
fn analytic_vpb_brackets_measured_income() {
    // The analytic income model and the simulator agree within sampling
    // noise for the reference provider.
    let analytic = economics::provider_income(0.149, 1800.0);
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 1800.0;
    cfg.vulnerability_proportion = 0.0;
    cfg.sra_period_secs = 1e9;
    // Average over a few seeds to tame the race variance.
    let mut measured = 0.0;
    let seeds = [1u64, 2, 3, 4];
    for &s in &seeds {
        let mut c = cfg.clone();
        c.seed = s;
        let ledger = simulate(&c);
        let platform = smartcrowd::core::platform::Platform::new(cfg.platform.clone());
        let addr = platform.providers()[2].address;
        measured += ledger
            .provider_income
            .get(&addr)
            .and_then(|v| v.last())
            .map(|p| p.income.as_f64())
            .unwrap_or(0.0);
    }
    measured /= seeds.len() as f64;
    // Analytic includes fee income (ψ·ω̄); without releases the measured is
    // block rewards only, so compare against the reward-only analytic.
    let reward_only = 0.149 * (1800.0 / 15.35) * 5.0;
    assert!(
        (measured - reward_only).abs() / reward_only < 0.45,
        "measured {measured:.1} vs analytic {reward_only:.1} (full model {analytic:.1})"
    );
}

#[test]
fn detector_cost_is_negligible_fraction_of_earnings() {
    let mut cfg = SimConfig::paper();
    cfg.duration_secs = 900.0;
    cfg.sra_period_secs = 150.0;
    cfg.vulnerability_proportion = 1.0;
    cfg.vulns_per_release = 8;
    let ledger = simulate(&cfg);
    let earned: f64 = ledger.detector_earnings.values().map(|e| e.as_f64()).sum();
    let costs: f64 = ledger.detector_costs.values().map(|e| e.as_f64()).sum();
    assert!(earned > 0.0);
    assert!(
        costs < earned / 50.0,
        "Fig. 6(b): costs ({costs:.3}) must be negligible vs earnings ({earned:.1})"
    );
}

#[test]
fn platform_supply_is_conserved_through_a_busy_run() {
    // Gas, payouts, escrows and refunds only ever MOVE currency; the total
    // supply equals genesis allocations plus minted block rewards at every
    // point of a busy end-to-end run.
    use smartcrowd::chain::rng::SimRng;
    use smartcrowd::core::detector::DetectorFleet;
    use smartcrowd::core::platform::{Platform, PlatformConfig};
    use smartcrowd::detect::system::IoTSystem;

    let mut p = Platform::new(PlatformConfig::paper());
    let library = p.library().clone();
    let fleet = DetectorFleet::paper_fleet(&library, 0.9, 3);
    for d in fleet.detectors() {
        p.fund(d.address(), Ether::from_ether(20));
    }
    let mut rng = SimRng::seed_from_u64(77);
    for round in 0..3u64 {
        let vulns = library.sample_ids(4, &mut rng).unwrap();
        let system =
            IoTSystem::build("audit-fw", &format!("{round}.0"), &library, vulns, &mut rng).unwrap();
        let sra_id = p
            .release_system(
                (round % 5) as usize,
                system,
                Ether::from_ether(500),
                Ether::from_ether(20),
            )
            .unwrap();
        let sra = p.sra(&sra_id).unwrap().clone();
        let image = p.download_image(&sra_id).unwrap().clone();
        let mut reveals = Vec::new();
        for d in fleet.detectors() {
            if let Some((i, det)) = d.detect(&sra, &image, &library, &mut rng) {
                if p.submit_initial(d.keypair(), i).is_ok() {
                    reveals.push((*d.keypair(), det));
                }
            }
        }
        p.mine_blocks(8);
        for (kp, det) in reveals {
            let _ = p.submit_detailed(&kp, det);
        }
        p.mine_blocks(9);
        // The invariant holds after every round, not just at the end.
        let (actual, expected) = p.audit_supply();
        assert_eq!(actual, expected, "round {round}");
    }
}
