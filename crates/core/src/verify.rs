//! Algorithm 1: verification of detection reports, with `AutoVerif`.
//!
//! This module assembles the full §V-C pipeline a provider runs before
//! temporarily recording a report in its local blockchain:
//!
//! ```text
//! VERIFICATION FOR R†: ID† recomputation + D†_Sign check
//! VERIFICATION FOR R*: ID* recomputation + D*_Sign check
//!                      + H_{R*} commitment binding
//!                      + AutoVerif(P_i, R*) → TRUE/FALSE
//! ```
//!
//! plus the scoreboard consultation that implements detector isolation.

use crate::error::CoreError;
use crate::report::{DetailedReport, InitialReport};
use smartcrowd_crypto::ecdsa::Signature;
use smartcrowd_crypto::keys::recover_public_key;
use smartcrowd_crypto::{Address, Digest};
use smartcrowd_detect::autoverif::AutoVerifier;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_net::Scoreboard;

/// Whether `signature` over `digest` recovers to a key with address
/// `signer`: the authenticity half of every payload check (`P_Sign`,
/// `D†_Sign`, `D*_Sign`) that was not vouched for in its record sender's
/// pass.
pub(crate) fn signed_by(digest: &Digest, signature: &Signature, signer: Address) -> bool {
    recover_public_key(digest, signature).is_ok_and(|pk| pk.address() == signer)
}

/// Verifies an initial report exactly as Algorithm 1 lines 1–9.
/// `vouched` says `D†_Sign` was already checked in its record sender's
/// pass (PROTOCOL.md §4.3), which skips its recovery and nothing else.
///
/// # Errors
///
/// Propagates [`InitialReport::verify`] failures; additionally rejects
/// reports from isolated detectors when a scoreboard is supplied.
pub fn verify_initial(
    report: &InitialReport,
    scoreboard: Option<&Scoreboard>,
    vouched: bool,
) -> Result<(), CoreError> {
    if let Some(board) = scoreboard {
        if !board.admits(&report.detector()) {
            smartcrowd_telemetry::counter!("core.verify.isolated_rejections").inc();
            return Err(CoreError::DetectorIsolated);
        }
    }
    report.verify_vouched(vouched)
}

/// Verifies a detailed report exactly as Algorithm 1 lines 10–24:
/// integrity, authenticity (skipped when `vouched`, as for
/// [`verify_initial`]), commitment binding, then `AutoVerif` against the
/// released artifact.
///
/// On an `AutoVerif` failure the scoreboard (when supplied) receives a
/// strike for the detector — the §V-C isolation mechanism.
///
/// # Errors
///
/// Propagates [`DetailedReport::verify_against`] failures and returns
/// [`CoreError::AutoVerifFailed`] listing the claims that did not reproduce.
pub fn verify_detailed(
    detailed: &DetailedReport,
    initial: &InitialReport,
    system: &IoTSystem,
    verifier: &AutoVerifier<'_>,
    scoreboard: Option<&mut Scoreboard>,
    vouched: bool,
) -> Result<(), CoreError> {
    detailed.verify_against_vouched(initial, vouched)?;
    let claims = &detailed.findings().vulnerabilities;
    smartcrowd_telemetry::counter!("core.verify.autoverif_runs").inc();
    if verifier.auto_verif(system, claims) {
        smartcrowd_telemetry::counter!("core.verify.autoverif_pass").inc();
        if let Some(board) = scoreboard {
            board.record_confirmed(detailed.detector());
        }
        Ok(())
    } else {
        smartcrowd_telemetry::counter!("core.verify.autoverif_fail").inc();
        let (_, rejected) = verifier.triage(system, claims);
        if let Some(board) = scoreboard {
            board.record_strike(detailed.detector());
        }
        Err(CoreError::AutoVerifFailed {
            rejected: rejected.iter().map(|v| v.0).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::library::VulnLibrary;
    use smartcrowd_detect::vulnerability::VulnId;
    use smartcrowd_net::scoreboard::STRIKE_LIMIT;

    fn setup() -> (VulnLibrary, IoTSystem, KeyPair) {
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
        (lib, sys, KeyPair::from_seed(b"detector"))
    }

    #[test]
    fn honest_report_passes_and_earns_credit() {
        let (lib, sys, kp) = setup();
        let verifier = AutoVerifier::new(&lib);
        let (initial, detailed) = create_report_pair(
            &kp,
            [7; 32],
            Findings::new(vec![VulnId(1), VulnId(3)], "found two"),
        );
        let mut board = Scoreboard::default();
        assert!(verify_initial(&initial, Some(&board), false).is_ok());
        assert!(verify_detailed(
            &detailed,
            &initial,
            &sys,
            &verifier,
            Some(&mut board),
            false
        )
        .is_ok());
        assert_eq!(board.score(&kp.address()).confirmed, 1);
        assert_eq!(board.score(&kp.address()).strikes, 0);
    }

    #[test]
    fn forged_report_strikes_detector() {
        let (lib, sys, kp) = setup();
        let verifier = AutoVerifier::new(&lib);
        // Claims a vulnerability that is not in the artifact.
        let (initial, detailed) =
            create_report_pair(&kp, [7; 32], Findings::new(vec![VulnId(20)], "made up"));
        let mut board = Scoreboard::default();
        let err = verify_detailed(
            &detailed,
            &initial,
            &sys,
            &verifier,
            Some(&mut board),
            false,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::AutoVerifFailed { rejected: vec![20] });
        assert_eq!(board.score(&kp.address()).strikes, 1);
    }

    #[test]
    fn isolated_detector_rejected_at_phase_one() {
        let (_, _, kp) = setup();
        let (initial, _) = create_report_pair(&kp, [7; 32], Findings::new(vec![VulnId(1)], ""));
        let mut board = Scoreboard::default();
        for _ in 0..STRIKE_LIMIT {
            board.record_strike(kp.address());
        }
        assert_eq!(
            verify_initial(&initial, Some(&board), false),
            Err(CoreError::DetectorIsolated)
        );
        // Without a scoreboard the same report is structurally fine.
        assert!(verify_initial(&initial, None, false).is_ok());
    }

    #[test]
    fn repeated_forgeries_lead_to_isolation() {
        let (lib, sys, kp) = setup();
        let verifier = AutoVerifier::new(&lib);
        let mut board = Scoreboard::default();
        for round in 0..STRIKE_LIMIT {
            let (initial, detailed) = create_report_pair(
                &kp,
                [round as u8; 32],
                Findings::new(vec![VulnId(25)], "forged"),
            );
            assert!(
                verify_initial(&initial, Some(&board), false).is_ok(),
                "round {round}"
            );
            let _ = verify_detailed(
                &detailed,
                &initial,
                &sys,
                &verifier,
                Some(&mut board),
                false,
            );
        }
        // Fourth submission is filtered before any work happens.
        let (initial, _) = create_report_pair(&kp, [9; 32], Findings::new(vec![VulnId(1)], ""));
        assert_eq!(
            verify_initial(&initial, Some(&board), false),
            Err(CoreError::DetectorIsolated)
        );
    }

    #[test]
    fn partially_forged_report_lists_only_bad_claims() {
        let (lib, sys, kp) = setup();
        let verifier = AutoVerifier::new(&lib);
        let (initial, detailed) = create_report_pair(
            &kp,
            [7; 32],
            Findings::new(vec![VulnId(1), VulnId(21), VulnId(22)], "mixed"),
        );
        let err = verify_detailed(&detailed, &initial, &sys, &verifier, None, false).unwrap_err();
        assert_eq!(
            err,
            CoreError::AutoVerifFailed {
                rejected: vec![21, 22]
            }
        );
    }
}
