//! The `AutoVerif()` engine of Eq. 6.
//!
//! "We define a function AutoVerif() that automatically verifies `R*` and
//! outputs TRUE/FALSE … deployed as a machine-automatical verification
//! engine" (§V-C). Our engine re-checks every claimed vulnerability against
//! the released artifact itself: a claim is TRUE iff the vulnerability's
//! signature is actually present in the image. Forged reports therefore
//! fail mechanically, which is what lets providers "isolate a compromised
//! detector by filtering this detector's next reports".

use crate::library::VulnLibrary;
use crate::system::IoTSystem;
use crate::vulnerability::VulnId;

/// Verdict for one claimed vulnerability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The claim reproduces against the artifact.
    Confirmed,
    /// The claimed vulnerability id exists but is absent from the image.
    NotPresent,
    /// The claimed id is not even in the vulnerability library.
    UnknownVulnerability,
}

/// An automatic verification engine bound to a vulnerability library.
///
/// # Example
///
/// ```
/// use smartcrowd_detect::{AutoVerifier, IoTSystem, VulnLibrary};
/// use smartcrowd_detect::vulnerability::VulnId;
/// use smartcrowd_chain::rng::SimRng;
///
/// let lib = VulnLibrary::synthetic(10, 1);
/// let mut rng = SimRng::seed_from_u64(2);
/// let sys = IoTSystem::build("fw", "1", &lib, vec![VulnId(4)], &mut rng).unwrap();
/// let verifier = AutoVerifier::new(&lib);
/// assert!(verifier.auto_verif(&sys, &[VulnId(4)]));
/// assert!(!verifier.auto_verif(&sys, &[VulnId(4), VulnId(5)]));
/// assert_eq!(
///     verifier.triage(&sys, &[VulnId(4), VulnId(5)]),
///     (vec![VulnId(4)], vec![VulnId(5)])
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AutoVerifier<'lib> {
    library: &'lib VulnLibrary,
}

impl<'lib> AutoVerifier<'lib> {
    /// Creates an engine over `library`.
    pub fn new(library: &'lib VulnLibrary) -> Self {
        AutoVerifier { library }
    }

    /// Verifies a single claimed vulnerability against the artifact.
    pub(crate) fn verify_claim(&self, system: &IoTSystem, claim: VulnId) -> Verdict {
        match self.library.get(claim) {
            None => Verdict::UnknownVulnerability,
            Some(vuln) => {
                if system.contains_signature(&vuln.signature()) {
                    Verdict::Confirmed
                } else {
                    Verdict::NotPresent
                }
            }
        }
    }

    /// The `AutoVerif(P_i, R*) → TRUE/FALSE` of Eq. 6: a detailed report
    /// passes iff it claims at least one vulnerability and every claim
    /// reproduces.
    pub fn auto_verif(&self, system: &IoTSystem, claims: &[VulnId]) -> bool {
        !claims.is_empty()
            && claims
                .iter()
                .all(|c| self.verify_claim(system, *c) == Verdict::Confirmed)
    }

    /// Splits claims into (confirmed, rejected) sets.
    pub fn triage(&self, system: &IoTSystem, claims: &[VulnId]) -> (Vec<VulnId>, Vec<VulnId>) {
        let mut confirmed = Vec::new();
        let mut rejected = Vec::new();
        for &c in claims {
            if self.verify_claim(system, c) == Verdict::Confirmed {
                confirmed.push(c);
            } else {
                rejected.push(c);
            }
        }
        (confirmed, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::rng::SimRng;

    fn setup() -> (VulnLibrary, IoTSystem) {
        let lib = VulnLibrary::synthetic(30, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let sys = IoTSystem::build(
            "fw",
            "1",
            &lib,
            vec![VulnId(1), VulnId(2), VulnId(3)],
            &mut rng,
        )
        .unwrap();
        (lib, sys)
    }

    #[test]
    fn confirmed_claims_pass() {
        let (lib, sys) = setup();
        let v = AutoVerifier::new(&lib);
        assert!(v.auto_verif(&sys, &[VulnId(1), VulnId(2), VulnId(3)]));
        assert!(v.auto_verif(&sys, &[VulnId(2)]));
    }

    #[test]
    fn forged_claims_fail() {
        let (lib, sys) = setup();
        let v = AutoVerifier::new(&lib);
        // "Simply submitting a forged detection report will make AutoVerif
        // output FALSE" (§V-C).
        assert!(!v.auto_verif(&sys, &[VulnId(20)]));
        assert!(
            !v.auto_verif(&sys, &[VulnId(1), VulnId(20)]),
            "one forgery poisons the report"
        );
    }

    #[test]
    fn empty_report_fails() {
        let (lib, sys) = setup();
        let v = AutoVerifier::new(&lib);
        assert!(!v.auto_verif(&sys, &[]));
    }

    #[test]
    fn unknown_id_is_distinguished() {
        let (lib, sys) = setup();
        let v = AutoVerifier::new(&lib);
        assert_eq!(
            v.verify_claim(&sys, VulnId(9999)),
            Verdict::UnknownVulnerability
        );
        assert_eq!(v.verify_claim(&sys, VulnId(25)), Verdict::NotPresent);
    }

    #[test]
    fn triage_splits() {
        let (lib, sys) = setup();
        let v = AutoVerifier::new(&lib);
        let (ok, bad) = v.triage(&sys, &[VulnId(1), VulnId(20), VulnId(3), VulnId(9999)]);
        assert_eq!(ok, vec![VulnId(1), VulnId(3)]);
        assert_eq!(bad, vec![VulnId(20), VulnId(9999)]);
    }

    #[test]
    fn verifies_against_repackaged_artifact() {
        // A repackaged image (III-A) really contains the malware signature,
        // so AutoVerif confirms a detector's malware claim.
        let (lib, sys) = setup();
        let repackaged = sys.repackaged_with(&lib, VulnId(25));
        let v = AutoVerifier::new(&lib);
        assert_eq!(v.verify_claim(&repackaged, VulnId(25)), Verdict::Confirmed);
        assert_eq!(v.verify_claim(&sys, VulnId(25)), Verdict::NotPresent);
    }
}
