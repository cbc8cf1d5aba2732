//! The theoretical model of §VI-B and the experimental economics of §VII:
//! balances (Eq. 12–14), the vulnerability-proportion baseline (VPB), and
//! the parameter set the paper's testbed uses.
//!
//! ## Parameters
//!
//! The §VII testbed runs one parameter set, written once here as
//! constants (PROTOCOL.md §9 names each one) and read by every driver:
//! [`crate::platform::Platform`], [`crate::node::ProviderNode`], the
//! simulators and the figure binaries. The chain-level values live with
//! the chain: ϑ is [`PAPER_BLOCK_TIME_SECS`] and the five providers' hash
//! powers are [`smartcrowd_chain::simminer::PAPER_HASH_POWERS`].
//!
//! ## Model
//!
//! A provider that releases one system with insurance `I` and mines with
//! hash-power share `ζ` over a window of `t` seconds:
//!
//! - earns `ζ · (ν + ψ·ω̄) · t/ϑ` from block rewards and recorded-report
//!   fees (Eq. 8 accumulated over `t/ϑ` expected blocks);
//! - pays the release cost `cp` (contract deployment gas);
//! - forfeits, in expectation, `VP · I` of its insurance — the paper's
//!   Fig. 4(b) shows punishment growing linearly in VP and scaling with
//!   the insurance, i.e. the escrow is the punishment pool.
//!
//! The **VPB** is the `VP` at which incentives equal punishments
//! (balance-of-payments, Fig. 5(a)); above it the provider loses money,
//! below it the provider profits — the mechanism that "incentivizes IoT
//! providers to release more non-vulnerable IoT systems".

use crate::incentive::expected;
use smartcrowd_chain::difficulty::PAPER_BLOCK_TIME_SECS;
use smartcrowd_chain::simminer::PAPER_HASH_POWERS;
use smartcrowd_chain::Ether;

/// Block reward `ν` (5 ether in the prototype).
pub const BLOCK_REWARD: Ether = Ether::from_ether(5);
/// Blocks credited per win `χ` (1 in the prototype).
pub(crate) const BLOCKS_PER_WIN: u64 = 1;
/// Per-record transaction fee `ψ` (≈ the 0.011-ether report gas).
pub const REPORT_FEE: Ether = Ether::from_milliether(11);
/// Report submission cost `c` for detectors: the registry call's gas,
/// measured at ≈ 0.011 ether, the same as `ψ`.
pub(crate) const REPORT_COST: Ether = REPORT_FEE;
/// SRA contract deployment cost `cp` (≈ 0.095 ether measured).
pub(crate) const CONTRACT_COST: Ether = Ether::from_milliether(95);
/// Per-vulnerability incentive `μ` the testbed's SRAs preset.
pub const INCENTIVE_PER_VULN: Ether = Ether::from_ether(25);
/// Insurance `I` the testbed's SRAs escrow.
pub const INSURANCE: Ether = Ether::from_ether(1000);
/// Smallest insurance [`crate::platform::Platform`] admits.
pub(crate) const MIN_INSURANCE: Ether = Ether::from_ether(100);
/// Genesis balance of each provider account.
pub const PROVIDER_FUNDING: Ether = Ether::from_ether(5000);
/// Gas money a detector is given on first contact.
pub const DETECTOR_FUNDING: Ether = Ether::from_ether(50);
/// Records sealed into one block at most (bounds `ω`).
pub const BLOCK_CAPACITY: usize = 64;
/// Mean recorded reports per block `ω̄`.
pub(crate) const REPORTS_PER_BLOCK: u64 = 20;
/// Vulnerabilities per vulnerable release `N`.
pub const VULNS_PER_RELEASE: u64 = 10;
/// Detection window: confirmations of an SRA's block, itself counted, at
/// which the settlement refunds what its escrow holds (PROTOCOL.md §8.5).
pub const DETECTION_WINDOW: u64 = 16;

/// Expected mining + fee income for hash share `zeta` over `t` seconds
/// (the Fig. 4(a) curve).
pub fn provider_income(zeta: f64, t_secs: f64) -> f64 {
    let per_block = BLOCK_REWARD.as_f64() * BLOCKS_PER_WIN as f64
        + REPORT_FEE.as_f64() * REPORTS_PER_BLOCK as f64;
    zeta * (t_secs / PAPER_BLOCK_TIME_SECS) * per_block
}

/// Expected punishment for one release with insurance `I` at
/// vulnerability proportion `vp` (the Fig. 4(b) curve): `VP·I + cp`.
pub fn provider_punishment(insurance: Ether, vp: f64) -> f64 {
    vp.clamp(0.0, 1.0) * insurance.as_f64() + CONTRACT_COST.as_f64()
}

/// Provider balance (Eq. 14 instantiated): income − punishment for one
/// release over `t` seconds.
pub fn provider_balance(zeta: f64, t_secs: f64, insurance: Ether, vp: f64) -> f64 {
    provider_income(zeta, t_secs) - provider_punishment(insurance, vp)
}

/// The VPB: the `vp` at which [`provider_balance`] is zero (Fig. 5(a)).
/// Clamped to `[0, 1]`.
pub fn vpb(zeta: f64, t_secs: f64, insurance: Ether) -> f64 {
    let income = provider_income(zeta, t_secs);
    let cp = CONTRACT_COST.as_f64();
    let i = insurance.as_f64();
    if i <= 0.0 {
        return if income > cp { 1.0 } else { 0.0 };
    }
    ((income - cp) / i).clamp(0.0, 1.0)
}

/// Vulnerabilities a release at vulnerability proportion `vp` is expected
/// to carry: `N` at [`reference_vp`], scaling linearly with `vp`.
fn expected_vulns(vp: f64) -> f64 {
    VULNS_PER_RELEASE as f64 * vp.clamp(0.0, 1.0) / reference_vp().max(f64::MIN_POSITIVE)
}

/// Detector incentive expectation for capability share `xi` at
/// vulnerability proportion `vp` (the Fig. 6(a) series): Eq. 7 with the
/// detector's share `xi` of the expected vulnerabilities as `ρ`.
pub(crate) fn detector_income(xi: f64, vp: f64) -> f64 {
    expected::detector_incentive(INCENTIVE_PER_VULN.as_f64(), expected_vulns(vp), xi)
}

/// Detector reporting cost expectation (the Fig. 6(b) bars): Eq. 10 over
/// the `xi` share of the expected vulnerabilities, every report recorded.
pub fn detector_cost(xi: f64, vp: f64) -> f64 {
    let n = expected_vulns(vp) * xi;
    expected::detector_cost(n, REPORT_COST.as_f64(), 1.0, REPORT_FEE.as_f64())
}

/// Detector balance (Eq. 12/13 instantiated): income − cost.
pub fn detector_balance(xi: f64, vp: f64) -> f64 {
    detector_income(xi, vp) - detector_cost(xi, vp)
}

/// The VP at which [`VULNS_PER_RELEASE`] vulnerabilities are expected —
/// the normalization point for the detector model (the paper's reference
/// scenario: VPB of the 14.90 % provider at 10 min, [`INSURANCE`]).
pub fn reference_vp() -> f64 {
    vpb(PAPER_HASH_POWERS[2], 600.0, INSURANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn income_grows_with_time_and_hash_power() {
        // Fig. 4(a): longer participation → more rewards.
        assert!(provider_income(0.149, 1200.0) > provider_income(0.149, 600.0));
        // Higher HP → more rewards.
        assert!(provider_income(0.263, 600.0) > provider_income(0.101, 600.0));
        // Income is linear in ζ.
        let ratio = provider_income(0.2, 600.0) / provider_income(0.1, 600.0);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn punishment_grows_with_vp_and_insurance() {
        // Fig. 4(b): higher VP → more punishment…
        assert!(provider_punishment(INSURANCE, 0.08) > provider_punishment(INSURANCE, 0.02));
        // …and larger insurance → steeper line.
        let slope_1500 = provider_punishment(Ether::from_ether(1500), 0.05)
            - provider_punishment(Ether::from_ether(1500), 0.04);
        let slope_500 = provider_punishment(Ether::from_ether(500), 0.05)
            - provider_punishment(Ether::from_ether(500), 0.04);
        assert!(slope_1500 > slope_500 * 2.9 && slope_1500 < slope_500 * 3.1);
    }

    #[test]
    fn vpb_increases_with_hash_power() {
        // Fig. 5(a): "an IoT provider with a higher hashing power has a
        // larger VPB".
        let vpbs: Vec<f64> = PAPER_HASH_POWERS
            .iter()
            .map(|&z| vpb(z, 600.0, INSURANCE))
            .collect();
        for w in vpbs.windows(2) {
            assert!(w[0] > w[1], "VPB must decrease with HP order {vpbs:?}");
        }
    }

    #[test]
    fn vpb_increases_with_time() {
        // Fig. 5(a): the 20- and 30-minute VPBs sit above the 10-minute one.
        let v10 = vpb(0.149, 600.0, INSURANCE);
        let v20 = vpb(0.149, 1200.0, INSURANCE);
        let v30 = vpb(0.149, 1800.0, INSURANCE);
        assert!(v10 < v20 && v20 < v30);
    }

    #[test]
    fn vpb_reference_matches_paper_order_of_magnitude() {
        // Paper: VPB(14.90 %, 10 min, 1000 ether) = 0.038. Our analytic
        // model lands in the same few-percent regime; the exact point
        // depends on the testbed's fee volume (see EXPERIMENTS.md).
        let v = vpb(0.149, 600.0, INSURANCE);
        assert!(v > 0.015 && v < 0.06, "VPB = {v}");
    }

    #[test]
    fn balance_is_zero_at_vpb_and_antisymmetric_around_it() {
        // Fig. 5(b): at VPB the balance is 0; ±0.01 VP swings the balance
        // by ∓10 ether with a 1000-ether insurance.
        for z in PAPER_HASH_POWERS {
            let v = vpb(z, 600.0, INSURANCE);
            let at = provider_balance(z, 600.0, INSURANCE, v);
            assert!(at.abs() < 1e-6, "balance at VPB = {at}");
            let above = provider_balance(z, 600.0, INSURANCE, v + 0.01);
            let below = provider_balance(z, 600.0, INSURANCE, v - 0.01);
            assert!(
                (above + 10.0).abs() < 1e-6,
                "VPB+0.01 → −10 ETH, got {above}"
            );
            assert!(
                (below - 10.0).abs() < 1e-6,
                "VPB−0.01 → +10 ETH, got {below}"
            );
        }
    }

    #[test]
    fn detector_income_proportional_to_capability() {
        // Fig. 6(a): the 8-thread detector earns ≈8× the 1-thread one.
        let vp = reference_vp();
        let shares: Vec<f64> = (1..=8).map(|t| t as f64 / 36.0).collect();
        let top = detector_income(shares[7], vp);
        let bottom = detector_income(shares[0], vp);
        assert!((top / bottom - 8.0).abs() < 1e-9);
    }

    #[test]
    fn detector_income_grows_with_vp() {
        // Fig. 6(a): a larger VPB introduces more incentives.
        let vp = reference_vp();
        let xi = 8.0 / 36.0;
        assert!(detector_income(xi, vp + 0.01) > detector_income(xi, vp));
    }

    #[test]
    fn detector_cost_negligible_vs_income() {
        // Fig. 6(b): "the cost is negligible compared to the allocated
        // incentives".
        let vp = reference_vp();
        for threads in 1..=8 {
            let xi = threads as f64 / 36.0;
            let income = detector_income(xi, vp);
            let cost = detector_cost(xi, vp);
            assert!(
                cost < income / 100.0,
                "threads={threads}: {cost} vs {income}"
            );
        }
    }

    #[test]
    fn zero_insurance_edge_cases() {
        assert_eq!(vpb(0.5, 600.0, Ether::ZERO), 1.0);
        assert_eq!(vpb(0.0, 600.0, Ether::ZERO), 0.0);
    }

    #[test]
    fn vpb_clamped_to_unit_interval() {
        // Enormous income vs tiny insurance → clamp to 1.
        assert_eq!(vpb(1.0, 1e9, Ether::from_wei(1)), 1.0);
        // Income below cp → clamp to 0.
        assert_eq!(vpb(1e-12, 1.0, INSURANCE), 0.0);
    }
}
