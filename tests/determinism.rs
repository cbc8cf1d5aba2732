//! Reproducibility: every stochastic component is a pure function of its
//! seed — the property all experiment claims rest on.

use smartcrowd::chain::ChainQuery;
use smartcrowd::sim::config::SimConfig;
use smartcrowd::sim::run::simulate;

fn quick(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper();
    c.duration_secs = 300.0;
    c.sra_period_secs = 100.0;
    c.vulnerability_proportion = 0.8;
    c.vulns_per_release = 4;
    c.seed = seed;
    c
}

#[test]
fn identical_seeds_identical_runs() {
    let a = simulate(&quick(7));
    let b = simulate(&quick(7));
    assert_eq!(a.blocks_mined, b.blocks_mined);
    assert_eq!(a.releases, b.releases);
    assert_eq!(a.vulnerable_releases, b.vulnerable_releases);
    assert_eq!(a.confirmed_vulnerabilities, b.confirmed_vulnerabilities);
    assert_eq!(a.block_intervals, b.block_intervals);
    assert_eq!(a.detector_earnings, b.detector_earnings);
    assert_eq!(a.provider_forfeits, b.provider_forfeits);
}

#[test]
fn different_seeds_differ() {
    let a = simulate(&quick(1));
    let b = simulate(&quick(2));
    assert_ne!(a.block_intervals, b.block_intervals);
}

#[test]
fn platform_state_is_deterministic() {
    use smartcrowd::core::platform::{Platform, PlatformConfig};
    let run = || {
        let mut p = Platform::new(PlatformConfig::paper());
        for _ in 0..50 {
            p.mine_block();
        }
        (
            p.store().best_tip(),
            p.providers()
                .iter()
                .map(|pr| p.mining_income(&pr.address))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn corpus_and_library_are_seed_stable() {
    use smartcrowd::detect::corpus::Table1Setup;
    let a = Table1Setup::build(11);
    let b = Table1Setup::build(11);
    assert_eq!(a.apps[0].image_hash(), b.apps[0].image_hash());
    assert_eq!(a.apps[1].image_hash(), b.apps[1].image_hash());
    for (x, y) in a.scanners.iter().zip(&b.scanners) {
        assert_eq!(x.coverage(), y.coverage());
    }
}
