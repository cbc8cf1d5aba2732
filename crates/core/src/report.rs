//! Two-phase detection reports: `R†` (Eq. 3–4) and `R*` (Eq. 5), §V-B.
//!
//! The split defeats plagiarism: a detector first commits to
//! `H_{R*}` — the hash of its yet-unrevealed detailed report — inside the
//! initial report `R†`. Only after the block holding `R†` confirms does it
//! reveal `R*`. A copycat that sees someone else's `R*` cannot claim that
//! report, whose commitment it never registered (§VI-A), but it can commit
//! to the same findings under its own identity and reveal at once: only
//! the ordering "`R†` confirmed before `R*`" stops it, and only
//! [`crate::platform::Platform::submit_detailed`] enforces that ordering
//! (PROTOCOL.md §8.5, "Open: an unjudged `R*` is paid").
//!
//! Both reports are [`Signed`] envelopes: `ID†`/`D†_Sign` and
//! `ID*`/`D*_Sign` are the envelope's id and signature, and `ID*` is also
//! the `H(R*)` an `R†` commits to.

use crate::error::CoreError;
use crate::signed::{Body, Signed};
use crate::sra::SraId;
use smartcrowd_chain::codec::{Decoder, Encoder};
use smartcrowd_chain::ChainError;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::{Address, Digest};
use smartcrowd_detect::vulnerability::VulnId;

/// The vulnerability description `Des` carried by a detailed report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Findings {
    /// Claimed vulnerability ids.
    pub vulnerabilities: Vec<VulnId>,
    /// Free-text notes (the common-description-language slot of §VIII).
    pub notes: String,
}

impl Findings {
    /// Creates findings over a set of vulnerability ids.
    pub fn new(vulnerabilities: Vec<VulnId>, notes: &str) -> Self {
        Findings {
            vulnerabilities,
            notes: notes.to_string(),
        }
    }

    /// Number of claimed vulnerabilities (`n_i` before recording).
    pub fn len(&self) -> usize {
        self.vulnerabilities.len()
    }

    /// Whether no vulnerability is claimed.
    pub fn is_empty(&self) -> bool {
        self.vulnerabilities.is_empty()
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.vulnerabilities.len() as u64);
        for v in &self.vulnerabilities {
            enc.put_u64(v.0);
        }
        enc.put_str(&self.notes);
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<Findings, ChainError> {
        let count = dec.take_u64()? as usize;
        let mut vulnerabilities = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            vulnerabilities.push(VulnId(dec.take_u64()?));
        }
        let notes = dec.take_str()?.to_string();
        Ok(Findings {
            vulnerabilities,
            notes,
        })
    }
}

/// The initial report `R† = {ID†, Δ, D_i, H_{R*}, W_{D_i}, D†_Sign}`.
pub type InitialReport = Signed<InitialBody>;

/// The detailed report `R* = {ID*, Δ, D_i, W_{D_i}, Des, D*_Sign}`.
pub type DetailedReport = Signed<DetailedBody>;

/// The fields of an [`InitialReport`]:
/// `ID† = H(Δ ‖ D_i ‖ H_{R*} ‖ W_{D_i})` (Eq. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialBody {
    pub(crate) sra_id: SraId,
    pub(crate) detector: Address,
    pub(crate) commitment: Digest,
    pub(crate) wallet: Address,
}

/// The fields of a [`DetailedReport`]:
/// `ID* = H(Δ ‖ D_i ‖ W_{D_i} ‖ Des)` (Eq. 5), which is also the `H(R*)`
/// an `R†` commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedBody {
    pub(crate) sra_id: SraId,
    pub(crate) detector: Address,
    pub(crate) wallet: Address,
    pub(crate) findings: Findings,
}

impl Body for InitialBody {
    const ID_MISMATCH: CoreError = CoreError::InitialReportIdMismatch;
    const BAD_SIGNATURE: CoreError = CoreError::InitialReportSignatureInvalid;

    fn signer(&self) -> Address {
        self.detector
    }

    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_array(&self.sra_id)
            .put_array(self.detector.as_bytes())
            .put_array(&self.commitment)
            .put_array(self.wallet.as_bytes());
    }

    fn decode_fields(dec: &mut Decoder<'_>) -> Result<Self, ChainError> {
        Ok(InitialBody {
            sra_id: dec.take_array()?,
            detector: Address::from_bytes(dec.take_array()?),
            commitment: dec.take_array()?,
            wallet: Address::from_bytes(dec.take_array()?),
        })
    }
}

impl Body for DetailedBody {
    const ID_MISMATCH: CoreError = CoreError::DetailedReportIdMismatch;
    const BAD_SIGNATURE: CoreError = CoreError::DetailedReportSignatureInvalid;
    const PREFIXED: bool = true;

    fn signer(&self) -> Address {
        self.detector
    }

    fn encode_fields(&self, enc: &mut Encoder) {
        enc.put_array(&self.sra_id)
            .put_array(self.detector.as_bytes())
            .put_array(self.wallet.as_bytes());
        self.findings.encode_into(enc);
    }

    fn decode_fields(dec: &mut Decoder<'_>) -> Result<Self, ChainError> {
        Ok(DetailedBody {
            sra_id: dec.take_array()?,
            detector: Address::from_bytes(dec.take_array()?),
            wallet: Address::from_bytes(dec.take_array()?),
            findings: Findings::decode_from(dec)?,
        })
    }
}

impl InitialBody {
    /// The SRA this report targets.
    pub fn sra_id(&self) -> &SraId {
        &self.sra_id
    }

    /// The reporting detector `D_i`.
    pub fn detector(&self) -> Address {
        self.detector
    }
}

impl DetailedBody {
    /// The SRA this report targets.
    pub fn sra_id(&self) -> &SraId {
        &self.sra_id
    }

    /// The reporting detector.
    pub fn detector(&self) -> Address {
        self.detector
    }

    /// The payee wallet.
    pub fn wallet(&self) -> Address {
        self.wallet
    }

    /// The description `Des`.
    pub fn findings(&self) -> &Findings {
        &self.findings
    }
}

impl DetailedReport {
    /// Algorithm 1, lines 10–24 minus the `AutoVerif` call, which needs
    /// the artifact and runs in [`crate::protocol::Protocol`]:
    /// [`Signed::verify`], then the binding to `initial`.
    ///
    /// # Errors
    ///
    /// - [`CoreError::DetailedReportIdMismatch`] /
    ///   [`CoreError::DetailedReportSignatureInvalid`] for integrity or
    ///   authenticity failures;
    /// - [`CoreError::PhaseMismatch`] when detector/SRA differ from `R†`;
    /// - [`CoreError::CommitmentMismatch`] when `H(R*) ≠ H_{R*}`.
    pub fn verify_against(&self, initial: &InitialReport) -> Result<(), CoreError> {
        self.verify()?;
        self.binds_to(initial)
    }

    /// The binding to the initial report: the same SRA, detector and
    /// wallet, and `H(R*) = H_{R*}`. `H(R*)` is Keccak over the preimage
    /// `ID*` hashes, so it is `ID*` once the envelope's check passed: call
    /// this only after that check.
    pub(crate) fn binds_to(&self, initial: &InitialReport) -> Result<(), CoreError> {
        if self.detector != initial.detector
            || self.sra_id != initial.sra_id
            || self.wallet != initial.wallet
        {
            return Err(CoreError::PhaseMismatch);
        }
        if self.id != initial.commitment {
            return Err(CoreError::CommitmentMismatch);
        }
        Ok(())
    }
}

/// Builds the two-phase pair for a detection result: the detailed report is
/// constructed first (off-chain), its hash committed into the initial
/// report (§V-B Phase I).
pub fn create_report_pair(
    detector: &KeyPair,
    sra_id: SraId,
    findings: Findings,
) -> (InitialReport, DetailedReport) {
    let wallet = detector.address();
    create_report_pair_with_wallet(detector, sra_id, findings, wallet)
}

/// Like [`create_report_pair`] but paying out to a designated wallet
/// `W_{D_i}` distinct from the detector identity `D_i` (Eq. 3 separates
/// the two — a company detector may route bounties to a treasury).
pub(crate) fn create_report_pair_with_wallet(
    detector: &KeyPair,
    sra_id: SraId,
    findings: Findings,
    wallet: Address,
) -> (InitialReport, DetailedReport) {
    let body = DetailedBody {
        sra_id,
        detector: detector.address(),
        wallet,
        findings,
    };
    let detailed = DetailedReport::sign(detector, body);
    let body = InitialBody {
        sra_id,
        detector: detector.address(),
        commitment: detailed.id, // H(R*) is ID*
        wallet,
    };
    (InitialReport::sign(detector, body), detailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (KeyPair, InitialReport, DetailedReport) {
        let kp = KeyPair::from_seed(b"detector-1");
        let findings = Findings::new(vec![VulnId(3), VulnId(9)], "buffer overflow in parser");
        let (i, d) = create_report_pair(&kp, [5u8; 32], findings);
        (kp, i, d)
    }

    #[test]
    fn well_formed_pair_verifies() {
        let (_, initial, detailed) = pair();
        assert!(initial.verify().is_ok());
        assert!(detailed.verify_against(&initial).is_ok());
    }

    #[test]
    fn plagiarized_detailed_report_rejected() {
        // Detector B sees A's revealed R* and tries to claim it (§VI-A ii):
        // B re-signs A's findings under its own identity, but B never
        // committed to them in a prior R†.
        let (_, initial_a, detailed_a) = pair();
        let thief = KeyPair::from_seed(b"thief");
        let (initial_b, _detailed_b) = create_report_pair(
            &thief,
            *detailed_a.sra_id(),
            Findings::new(vec![VulnId(99)], "own mediocre finding"),
        );
        // The thief's copy of A's findings:
        let (_, stolen) =
            create_report_pair(&thief, *detailed_a.sra_id(), detailed_a.findings().clone());
        // Stolen R* cannot verify against the thief's own earlier R†
        // (commitment mismatch), nor against A's R† (detector mismatch).
        assert_eq!(
            stolen.verify_against(&initial_b),
            Err(CoreError::CommitmentMismatch)
        );
        assert_eq!(
            stolen.verify_against(&initial_a),
            Err(CoreError::PhaseMismatch)
        );
    }

    #[test]
    fn tampered_commitment_detected() {
        let (kp, mut initial, detailed) = pair();
        initial.body.commitment[0] ^= 1;
        // Tampering the commitment breaks ID† first (integrity).
        assert_eq!(initial.verify(), Err(CoreError::InitialReportIdMismatch));
        // Even with a recomputed id, the signature no longer matches —
        // exactly the "maliciously accusing benign detectors" defence.
        initial.id = *InitialReport::sign(&kp, initial.body.clone()).id();
        assert_eq!(
            initial.verify(),
            Err(CoreError::InitialReportSignatureInvalid)
        );
        let _ = detailed;
    }

    #[test]
    fn tampered_findings_detected() {
        let (_, initial, detailed) = pair();
        let mut bytes = detailed.encode();
        // Flip a byte inside the findings region (past the two digests).
        let offset = 8 + 32 + 20 + 20 + 8 + 4;
        bytes[offset] ^= 0xff;
        let tampered = DetailedReport::decode(&bytes).unwrap();
        assert!(tampered.verify_against(&initial).is_err());
    }

    #[test]
    fn encode_decode_roundtrips() {
        let (_, initial, detailed) = pair();
        assert_eq!(InitialReport::decode(&initial.encode()).unwrap(), initial);
        assert_eq!(
            DetailedReport::decode(&detailed.encode()).unwrap(),
            detailed
        );
    }

    #[test]
    fn decode_garbage_fails() {
        assert!(InitialReport::decode(&[0; 4]).is_err());
        assert!(DetailedReport::decode(&[0; 4]).is_err());
    }

    #[test]
    fn forged_wallet_redirect_rejected() {
        // An attacker intercepts R* and redirects the payout wallet.
        let (_, initial, detailed) = pair();
        let mut redirected = detailed.clone();
        redirected.body.wallet = Address::from_label("attacker-wallet");
        // ID* no longer matches (wallet is hashed into it).
        assert_eq!(
            redirected.verify_against(&initial),
            Err(CoreError::DetailedReportIdMismatch)
        );
    }

    #[test]
    fn findings_helpers() {
        let f = Findings::new(vec![VulnId(1)], "x");
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
        assert!(Findings::default().is_empty());
    }

    #[test]
    fn same_findings_different_detectors_different_ids() {
        let a = KeyPair::from_seed(b"a");
        let b = KeyPair::from_seed(b"b");
        let f = Findings::new(vec![VulnId(1)], "dup");
        let (ia, da) = create_report_pair(&a, [1; 32], f.clone());
        let (ib, db) = create_report_pair(&b, [1; 32], f);
        assert_ne!(ia.id(), ib.id());
        assert_ne!(da.id(), db.id());
    }
}

#[cfg(test)]
mod wallet_tests {
    use super::*;

    #[test]
    fn designated_wallet_is_bound_into_both_phases() {
        let kp = KeyPair::from_seed(b"company-detector");
        let treasury = Address::from_label("company-treasury");
        let (initial, detailed) = create_report_pair_with_wallet(
            &kp,
            [2u8; 32],
            Findings::new(vec![VulnId(1)], "x"),
            treasury,
        );
        assert_eq!(initial.body.wallet, treasury);
        assert_eq!(detailed.wallet(), treasury);
        assert_ne!(initial.detector(), treasury);
        assert!(initial.verify().is_ok());
        assert!(detailed.verify_against(&initial).is_ok());
    }

    #[test]
    fn default_pair_pays_the_detector_itself() {
        let kp = KeyPair::from_seed(b"solo");
        let (initial, _) = create_report_pair(&kp, [2u8; 32], Findings::new(vec![VulnId(1)], "x"));
        assert_eq!(initial.body.wallet, kp.address());
    }
}
