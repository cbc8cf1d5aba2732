//! The IoT-provider role (§IV-A).
//!
//! Providers release systems, maintain the blockchain, and are the
//! accountable party: their insurance is forfeited vulnerability by
//! vulnerability. This module adds the release-policy layer on top of
//! [`crate::platform`]: generating releases at a target vulnerability
//! proportion (VP).

use smartcrowd_chain::rng::SimRng;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_detect::DetectError;

/// A provider's release policy.
#[derive(Debug, Clone, Copy)]
pub struct ReleasePolicy {
    /// Probability a release ships vulnerable (the paper's VP knob).
    pub vulnerability_proportion: f64,
    /// Vulnerabilities planted when a release is vulnerable.
    pub vulns_when_vulnerable: usize,
}

/// Generates the next release under a policy: with probability VP the
/// image is seeded with vulnerabilities, otherwise it is clean.
///
/// # Errors
///
/// Returns [`DetectError`] when the library cannot supply the sample.
pub fn generate_release(
    name: &str,
    version: u64,
    policy: &ReleasePolicy,
    library: &VulnLibrary,
    rng: &mut SimRng,
) -> Result<IoTSystem, DetectError> {
    let vulnerable = rng.next_bool(policy.vulnerability_proportion);
    let vulns: Vec<VulnId> = if vulnerable {
        library.sample_ids(policy.vulns_when_vulnerable.min(library.len()), rng)?
    } else {
        Vec::new()
    };
    IoTSystem::build(name, &format!("{version}.0"), library, vulns, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(vp: f64) -> ReleasePolicy {
        ReleasePolicy {
            vulnerability_proportion: vp,
            vulns_when_vulnerable: 10,
        }
    }

    #[test]
    fn vp_zero_always_clean() {
        let lib = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let policy = policy(0.0);
        for v in 0..20 {
            let sys = generate_release("fw", v, &policy, &lib, &mut rng).unwrap();
            assert!(sys.ground_truth().is_empty());
        }
    }

    #[test]
    fn vp_one_always_vulnerable() {
        let lib = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let policy = policy(1.0);
        for v in 0..20 {
            let sys = generate_release("fw", v, &policy, &lib, &mut rng).unwrap();
            assert_eq!(sys.ground_truth().len(), 10);
        }
    }

    #[test]
    fn vp_fraction_converges() {
        let lib = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(3);
        let policy = policy(0.3);
        let trials = 2000;
        let vulnerable = (0..trials)
            .filter(|v| {
                !generate_release("fw", *v, &policy, &lib, &mut rng)
                    .unwrap()
                    .ground_truth()
                    .is_empty()
            })
            .count();
        let rate = vulnerable as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn policy_clamps_vp() {
        // An out-of-range VP acts as its clamp to [0, 1].
        let lib = VulnLibrary::synthetic(100, 1);
        let mut rng = SimRng::seed_from_u64(4);
        for v in 0..20 {
            let always = generate_release("fw", v, &policy(2.0), &lib, &mut rng).unwrap();
            assert!(!always.ground_truth().is_empty());
            let never = generate_release("fw", v, &policy(-1.0), &lib, &mut rng).unwrap();
            assert!(never.ground_truth().is_empty());
        }
    }
}
