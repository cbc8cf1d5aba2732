//! Property-based tests for the SmartCrowd protocol structures.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartcrowd_chain::Ether;
use smartcrowd_core::economics;
use smartcrowd_core::incentive::{detector_cost, detector_incentive, Proportion};
use smartcrowd_core::report::{create_report_pair, DetailedReport, Findings, InitialReport};
use smartcrowd_core::sra::Sra;
use smartcrowd_core::CoreError;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_detect::vulnerability::VulnId;

fn arb_findings() -> impl Strategy<Value = Findings> {
    (
        proptest::collection::vec(1u64..10_000, 0..12),
        "[ -~]{0,60}",
    )
        .prop_map(|(ids, notes)| Findings::new(ids.into_iter().map(VulnId).collect(), &notes))
}

/// Every truncation of `bytes`, and every one of its bytes XORed with
/// `mask`, decodes to a value that encodes back to the input, or fails
/// with [`CoreError::Payload`]; a panic fails the case.
fn decoder_is_exact_or_refuses<T>(
    bytes: &[u8],
    mask: u8,
    decode: fn(&[u8]) -> Result<T, CoreError>,
    encode: fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let truncations = (0..bytes.len()).map(|len| bytes[..len].to_vec());
    let flips = (0..bytes.len()).map(|at| {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= mask;
        flipped
    });
    for input in truncations.chain(flips) {
        match decode(&input) {
            Ok(value) => prop_assert_eq!(encode(&value), input),
            Err(CoreError::Payload { .. }) => {}
            Err(e) => prop_assert!(false, "{e}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn payload_decoders_are_exact_or_refuse(
        seed in any::<u64>(),
        name in "[a-z]{0,12}",
        link in "[a-z /:é€]{0,12}",
        findings in arb_findings(),
        mask in 1u8..=255,
    ) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let sra = Sra::create(
            &kp,
            &name,
            "1.0",
            [seed as u8; 32],
            &link,
            Ether::from_wei(seed as u128),
            Ether::from_wei(7),
        );
        let (initial, detailed) = create_report_pair(&kp, *sra.id(), findings);
        decoder_is_exact_or_refuses(&sra.encode(), mask, Sra::decode, Sra::encode)?;
        decoder_is_exact_or_refuses(
            &initial.encode(),
            mask,
            InitialReport::decode,
            InitialReport::encode,
        )?;
        decoder_is_exact_or_refuses(
            &detailed.encode(),
            mask,
            DetailedReport::decode,
            DetailedReport::encode,
        )?;
    }

    #[test]
    fn sra_roundtrip_and_verify(
        seed in any::<u64>(),
        name in "[a-z]{1,20}",
        version in "[0-9.]{1,8}",
        link in "[ -~]{0,40}",
        insurance in any::<u64>(),
        mu in any::<u64>(),
    ) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let sra = Sra::create(
            &kp,
            &name,
            &version,
            [seed as u8; 32],
            &link,
            Ether::from_wei(insurance as u128),
            Ether::from_wei(mu as u128),
        );
        prop_assert!(sra.verify().is_ok());
        let back = Sra::decode(&sra.encode()).unwrap();
        prop_assert_eq!(&back, &sra);
        prop_assert!(back.verify().is_ok());
    }

    #[test]
    fn report_pair_roundtrip_and_verify(seed in any::<u64>(), findings in arb_findings()) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let (initial, detailed) = create_report_pair(&kp, [9u8; 32], findings);
        prop_assert!(initial.verify().is_ok());
        prop_assert!(detailed.verify_against(&initial).is_ok());
        let i2 = InitialReport::decode(&initial.encode()).unwrap();
        let d2 = DetailedReport::decode(&detailed.encode()).unwrap();
        prop_assert_eq!(&i2, &initial);
        prop_assert_eq!(&d2, &detailed);
        prop_assert!(d2.verify_against(&i2).is_ok());
    }

    #[test]
    fn detailed_report_bitflip_always_caught(
        seed in any::<u64>(),
        flip_byte in any::<u16>(),
    ) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let findings = Findings::new(vec![VulnId(1), VulnId(2)], "notes here");
        let (initial, detailed) = create_report_pair(&kp, [9u8; 32], findings);
        let mut bytes = detailed.encode();
        let idx = flip_byte as usize % bytes.len();
        bytes[idx] ^= 0x01;
        // Undecodable (Err) is also caught.
        if let Ok(t) = DetailedReport::decode(&bytes) {
            prop_assert!(t.verify_against(&initial).is_err());
        }
    }

    #[test]
    fn incentive_monotonicity(
        mu_eth in 1u64..100,
        n1 in 0u64..50,
        n2 in 0u64..50,
        num in 0u64..100,
        den in 1u64..100,
    ) {
        let mu = Ether::from_ether(mu_eth);
        let rho = Proportion::new(num.min(den), den);
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        // Eq. 7 is monotone in n.
        prop_assert!(detector_incentive(mu, lo, rho) <= detector_incentive(mu, hi, rho));
        // Eq. 10 is monotone in n.
        let c = Ether::from_milliether(11);
        let psi = Ether::from_milliether(11);
        prop_assert!(detector_cost(lo, c, rho, psi) <= detector_cost(hi, c, rho, psi));
    }

    #[test]
    fn vpb_is_monotone_in_hash_power_and_time(
        z1 in 0.01f64..0.5,
        z2 in 0.01f64..0.5,
        t in 60.0f64..3600.0,
    ) {
        let insurance = economics::INSURANCE;
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(economics::vpb(lo, t, insurance) <= economics::vpb(hi, t, insurance) + 1e-12);
        prop_assert!(
            economics::vpb(lo, t, insurance) <= economics::vpb(lo, t * 2.0, insurance) + 1e-12
        );
    }

    #[test]
    fn balance_swing_equals_insurance_times_delta(
        z in 0.05f64..0.3,
        insurance_eth in 100u64..5000,
        delta in 0.001f64..0.05,
    ) {
        // d(balance)/d(VP) = −I everywhere: the Fig. 5(b) ±10-ether law
        // generalizes to any insurance.
        let insurance = Ether::from_ether(insurance_eth);
        let vpb = economics::vpb(z, 600.0, insurance);
        prop_assume!(vpb > delta && vpb + delta < 1.0);
        let below = economics::provider_balance(z, 600.0, insurance, vpb - delta);
        let above = economics::provider_balance(z, 600.0, insurance, vpb + delta);
        let expected = insurance_eth as f64 * delta;
        prop_assert!((below - expected).abs() < 1e-6);
        prop_assert!((above + expected).abs() < 1e-6);
    }
}
