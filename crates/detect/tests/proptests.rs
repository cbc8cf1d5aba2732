//! Property-based tests for the detection substrate.

use proptest::prelude::*;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_detect::autoverif::AutoVerifier;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::scanner::Scanner;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planted_vulns_are_always_scannable(
        seed in any::<u64>(),
        count in 0usize..15,
    ) {
        let library = VulnLibrary::synthetic(60, 1);
        let mut rng = SimRng::seed_from_u64(seed);
        let vulns = library.sample_ids(count, &mut rng).unwrap();
        let system = IoTSystem::build("fw", "1", &library, vulns.clone(), &mut rng).unwrap();
        // A full-coverage scanner finds exactly the planted set.
        let full = Scanner::new("full", (1..=60).map(VulnId));
        let mut found = full.scan(&system, &library, &mut rng).found;
        found.sort();
        let mut expected = vulns;
        expected.sort();
        prop_assert_eq!(found, expected);
    }

    #[test]
    fn autoverif_accepts_exactly_the_ground_truth(
        seed in any::<u64>(),
        claims in proptest::collection::vec(1u64..60, 1..8),
    ) {
        let library = VulnLibrary::synthetic(60, 1);
        let mut rng = SimRng::seed_from_u64(seed);
        let planted = library.sample_ids(5, &mut rng).unwrap();
        let system = IoTSystem::build("fw", "1", &library, planted.clone(), &mut rng).unwrap();
        let verifier = AutoVerifier::new(&library);
        let claims: Vec<VulnId> = claims.into_iter().map(VulnId).collect();
        let all_planted = claims.iter().all(|c| planted.contains(c));
        prop_assert_eq!(verifier.auto_verif(&system, &claims), all_planted);
    }

    #[test]
    fn scan_subset_of_coverage_and_ground_truth(
        seed in any::<u64>(),
        coverage in proptest::collection::btree_set(1u64..60, 0..30),
    ) {
        let library = VulnLibrary::synthetic(60, 1);
        let mut rng = SimRng::seed_from_u64(seed);
        let planted = library.sample_ids(8, &mut rng).unwrap();
        let system = IoTSystem::build("fw", "1", &library, planted.clone(), &mut rng).unwrap();
        let scanner = Scanner::new("s", coverage.iter().copied().map(VulnId));
        let report = scanner.scan(&system, &library, &mut rng);
        for f in &report.found {
            prop_assert!(coverage.contains(&f.0), "found outside coverage");
            prop_assert!(planted.contains(f), "found something not planted");
        }
        prop_assert!(report.false_positives.is_empty(), "fp rate is 0");
    }

    #[test]
    fn image_hash_binds_every_byte(
        seed in any::<u64>(),
        flip in any::<u16>(),
    ) {
        let library = VulnLibrary::synthetic(20, 1);
        let mut rng = SimRng::seed_from_u64(seed);
        let system = IoTSystem::build("fw", "1", &library, vec![VulnId(1)], &mut rng).unwrap();
        prop_assert!(system.verify_image());
        // Any single-byte corruption breaks U_h.
        let mut copy = system.image().to_vec();
        let idx = flip as usize % copy.len();
        copy[idx] ^= 0x01;
        prop_assert_ne!(
            smartcrowd_crypto::keccak::keccak256(&copy),
            *system.image_hash()
        );
    }
}
