//! The main simulation loop.
//!
//! Each iteration mines one block (advancing the simulated clock by the
//! sampled PoW interval) and, around it, drives the protocol: releases on
//! the SRA cadence `θ`, immediate distributed detection with two-phase
//! submission, and reveal-on-confirmation for detailed reports — the §IV-B
//! workflow end to end.
//!
//! Mining income is paid when a block confirms, so the Fig. 4(a) sample
//! of block `h` is taken when the settlement reaches `h`, stamped with the
//! clock at which `h` was mined; the drain's blocks confirm every
//! main-loop block. Insurance a release did not forfeit returns to its
//! provider in the same fold, when its detection window closes.

use crate::config::SimConfig;
use crate::ledger::{IncomeSample, RunLedger};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{ChainQuery, Ether};
use smartcrowd_core::detector::DetectorFleet;
use smartcrowd_core::economics::{DETECTION_WINDOW, DETECTOR_FUNDING};
use smartcrowd_core::platform::Platform;
use smartcrowd_core::provider::{generate_release, ReleasePolicy};
use smartcrowd_core::report::DetailedReport;
use smartcrowd_core::sra::SraId;
use smartcrowd_crypto::{Address, Digest};
use std::collections::VecDeque;

/// Capability of the strongest detector of a run's fleet.
const BASE_CAPABILITY: f64 = 0.9;

struct PendingReveal {
    detector_index: usize,
    initial_record: Digest,
    detailed: DetailedReport,
}

/// Phase #2b: submits the `R*` of every pending reveal whose `R†`
/// confirmed, in the order they wait; the rest keep waiting.
fn reveal_confirmed(
    platform: &mut Platform,
    fleet: &DetectorFleet,
    pending: &mut Vec<PendingReveal>,
) {
    let (ready, waiting): (Vec<_>, Vec<_>) = std::mem::take(pending)
        .into_iter()
        .partition(|reveal| platform.store().record_confirmed(&reveal.initial_record));
    *pending = waiting;
    for reveal in ready {
        let detector = &fleet.detectors()[reveal.detector_index];
        let _ = platform.submit_detailed(detector.keypair(), reveal.detailed);
    }
}

/// Takes the income sample of every block in `unsampled` (height, clock
/// when mined) that the settlement has applied.
fn sample_income(
    platform: &Platform,
    unsampled: &mut VecDeque<(u64, f64)>,
    providers: &[Address],
    ledger: &mut RunLedger,
) {
    let settled = platform.settlement().cursor().0;
    while let Some(&(height, time)) = unsampled.front().filter(|s| s.0 <= settled) {
        debug_assert_eq!(height, settled, "the fold applies one block per seal");
        unsampled.pop_front();
        for addr in providers {
            let series = ledger.provider_income.entry(*addr).or_default();
            let income = platform.mining_income(addr);
            series.push(IncomeSample { time, income });
        }
    }
}

/// Runs one full simulation and returns its ledger.
pub fn simulate(config: &SimConfig) -> RunLedger {
    simulate_full(config).0
}

/// Runs one full simulation, returning both the ledger and the final
/// platform state (for chain export, consumer queries, dashboards).
pub fn simulate_full(config: &SimConfig) -> (RunLedger, Platform) {
    // One seed knob controls the whole run: fold the run seed into the
    // platform's mining-race seed so seed sweeps vary the full trajectory.
    let mut platform_config = config.platform.clone();
    platform_config.seed ^= config.seed.rotate_left(17);
    let mut platform = Platform::new(platform_config);
    let fleet = DetectorFleet::graded(
        platform.library(),
        config.detectors as u32,
        BASE_CAPABILITY,
        config.seed ^ 0xf1ee7,
    );
    let library = platform.library().clone();
    for d in fleet.detectors() {
        platform.fund(d.address(), DETECTOR_FUNDING);
    }
    let mut rng = SimRng::seed_from_u64(config.seed);
    let policy = ReleasePolicy {
        vulnerability_proportion: config.vulnerability_proportion,
        vulns_when_vulnerable: config.vulns_per_release,
    };

    let mut ledger = RunLedger::default();
    let mut pending: Vec<PendingReveal> = Vec::new();
    let mut releases: Vec<(SraId, Address)> = Vec::new();
    let mut next_release = 0.0f64;
    let mut version = 0u64;
    let mut last_clock = 0.0f64;
    let mut unsampled = VecDeque::new();

    let provider_addrs: Vec<Address> = platform.providers().iter().map(|p| p.address).collect();

    while platform.clock() < config.duration_secs {
        // --- Phase #1: release on the SRA cadence θ --------------------
        if platform.clock() >= next_release {
            next_release += config.sra_period_secs;
            version += 1;
            let system = generate_release("iot-fw", version, &policy, &library, &mut rng)
                .expect("library supports the policy");
            let vulnerable = !system.ground_truth().is_empty();
            if let Ok(sra_id) = platform.release_system(
                config.releasing_provider,
                system,
                config.insurance,
                config.incentive_per_vuln,
            ) {
                ledger.releases += 1;
                if vulnerable {
                    ledger.vulnerable_releases += 1;
                }
                let provider_addr = provider_addrs[config.releasing_provider];
                releases.push((sra_id, provider_addr));
                // --- Phase #2a: distributed detection + initial reports ----
                let sra = platform.sra(&sra_id).expect("just released").clone();
                let image = platform
                    .download_image(&sra_id)
                    .expect("image hosted")
                    .clone();
                for (idx, detector) in fleet.detectors().iter().enumerate() {
                    if let Some((initial, detailed)) =
                        detector.detect(&sra, &image, &library, &mut rng)
                    {
                        if let Ok(record_id) = platform.submit_initial(detector.keypair(), initial)
                        {
                            pending.push(PendingReveal {
                                detector_index: idx,
                                initial_record: record_id,
                                detailed,
                            });
                        }
                    }
                }
            }
        }

        // --- Phase #2b: reveal detailed reports once R† confirms -------
        reveal_confirmed(&mut platform, &fleet, &mut pending);

        // --- Phase #3/#4: mine, record, pay, refund --------------------
        let (miner, _) = platform.mine_block();
        *ledger.blocks_by_provider.entry(miner).or_insert(0) += 1;
        ledger.blocks_mined += 1;
        let clock = platform.clock();
        ledger.block_intervals.push(clock - last_clock);
        last_clock = clock;
        unsampled.push_back((platform.store().best_height(), clock));
        sample_income(&platform, &mut unsampled, &provider_addrs, &mut ledger);
    }

    // Drain for one detection window: outstanding reports finalize
    // without new releases.
    for _ in 0..DETECTION_WINDOW {
        reveal_confirmed(&mut platform, &fleet, &mut pending);
        let (miner, _) = platform.mine_block();
        *ledger.blocks_by_provider.entry(miner).or_insert(0) += 1;
        ledger.blocks_mined += 1;
        sample_income(&platform, &mut unsampled, &provider_addrs, &mut ledger);
    }
    debug_assert!(
        unsampled.is_empty(),
        "the drain confirms every main-loop block"
    );

    ledger.final_time = platform.clock();

    // Post-run accounting.
    for payout in platform.payouts() {
        *ledger
            .detector_earnings
            .entry(payout.wallet)
            .or_insert(Ether::ZERO) += payout.amount;
    }
    for d in fleet.detectors() {
        let cost = platform.detector_cost(&d.address());
        if !cost.is_zero() {
            ledger.detector_costs.insert(d.address(), cost);
        }
    }
    for (sra_id, provider_addr) in &releases {
        let forfeited = platform.forfeited(sra_id);
        *ledger
            .provider_forfeits
            .entry(*provider_addr)
            .or_insert(Ether::ZERO) += forfeited;
        if let Some(gas) = platform.release_cost(sra_id) {
            *ledger
                .provider_release_gas
                .entry(*provider_addr)
                .or_insert(Ether::ZERO) += gas;
        }
        ledger.confirmed_vulnerabilities += platform.confirmed_vulnerabilities(sra_id).len() as u64;
    }
    (ledger, platform)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SimConfig {
        let mut c = SimConfig::paper();
        c.duration_secs = 400.0;
        c.sra_period_secs = 100.0;
        c.vulnerability_proportion = 1.0; // always vulnerable: exercises payouts
        c.vulns_per_release = 5;
        c
    }

    #[test]
    fn run_produces_blocks_and_releases() {
        let ledger = simulate(&quick_config());
        // 400 s at a 15.35 s mean plus the 16 drain blocks.
        assert!(ledger.blocks_mined >= 25, "mined {}", ledger.blocks_mined);
        assert!(ledger.releases >= 3);
        assert_eq!(ledger.releases, ledger.vulnerable_releases);
        assert!(ledger.final_time >= 400.0);
    }

    #[test]
    fn vulnerable_releases_produce_payouts_and_forfeits() {
        let ledger = simulate(&quick_config());
        assert!(
            ledger.confirmed_vulnerabilities > 0,
            "fleet should find planted vulns"
        );
        let total_earned: f64 = ledger.detector_earnings.values().map(|e| e.as_f64()).sum();
        assert!(total_earned > 0.0);
        let total_forfeited: f64 = ledger.provider_forfeits.values().map(|e| e.as_f64()).sum();
        // Forfeits equal μ × confirmed vulnerabilities.
        let expected = 25.0 * ledger.confirmed_vulnerabilities as f64;
        assert!(
            (total_forfeited - expected).abs() < 1e-6,
            "forfeits {total_forfeited} vs expected {expected}"
        );
        assert!((total_earned - expected).abs() < 1e-6);
    }

    #[test]
    fn stronger_detectors_earn_more() {
        let mut c = quick_config();
        c.duration_secs = 900.0;
        c.sra_period_secs = 150.0;
        let ledger = simulate(&c);
        // Compare the strongest and weakest earners (fleet order is by
        // seed-derived address; use earnings spread instead of identity).
        let mut earnings: Vec<f64> = ledger
            .detector_earnings
            .values()
            .map(|e| e.as_f64())
            .collect();
        earnings.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(earnings.len() >= 2, "at least two detectors earned");
        let top = earnings.last().unwrap();
        let bottom = earnings.first().unwrap();
        assert!(top > bottom, "capability gradient must show in earnings");
    }

    #[test]
    fn clean_releases_pay_nothing() {
        let mut c = quick_config();
        c.vulnerability_proportion = 0.0;
        let ledger = simulate(&c);
        assert_eq!(ledger.vulnerable_releases, 0);
        assert_eq!(ledger.confirmed_vulnerabilities, 0);
        assert!(ledger.detector_earnings.is_empty());
        let total_forfeited: f64 = ledger.provider_forfeits.values().map(|e| e.as_f64()).sum();
        assert_eq!(total_forfeited, 0.0);
    }

    #[test]
    fn block_time_statistics_match_configuration() {
        let mut c = quick_config();
        c.duration_secs = 6000.0;
        c.vulnerability_proportion = 0.0;
        let ledger = simulate(&c);
        let mean = ledger.mean_block_time();
        assert!((mean - 15.35).abs() < 2.5, "mean block time {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate(&quick_config());
        let b = simulate(&quick_config());
        assert_eq!(a.blocks_mined, b.blocks_mined);
        assert_eq!(a.confirmed_vulnerabilities, b.confirmed_vulnerabilities);
        let mut c = quick_config();
        c.seed ^= 1;
        let d = simulate(&c);
        // Different seed, (almost surely) different trajectory.
        assert!(
            a.block_intervals != d.block_intervals,
            "distinct seeds should differ"
        );
    }

    #[test]
    fn income_series_is_monotone() {
        let ledger = simulate(&quick_config());
        for series in ledger.provider_income.values() {
            for w in series.windows(2) {
                assert!(w[1].income >= w[0].income);
                assert!(w[1].time >= w[0].time);
            }
        }
    }
}

#[cfg(test)]
mod rotation_tests {
    use super::*;

    #[test]
    fn without_rotation_single_provider_releases() {
        let mut c = SimConfig::paper();
        c.duration_secs = 600.0;
        c.sra_period_secs = 100.0;
        c.vulnerability_proportion = 0.0;
        let ledger = simulate(&c);
        assert_eq!(ledger.provider_release_gas.len(), 1);
    }
}
