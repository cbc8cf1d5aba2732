//! Executable attack scenarios from the adversary model (§III-A) and the
//! security analysis (§VI-A).
//!
//! Each scenario stages an attack against a live [`Platform`] (or the
//! relevant substrate) and reports whether it succeeded, so the security
//! claims of the paper are *tests*, not prose: `cargo test -p
//! smartcrowd-core attacks` re-validates every defence, and the ablation
//! benches flip defences off to show the attacks landing.

use crate::economics::{DETECTOR_FUNDING, INCENTIVE_PER_VULN, INSURANCE, REPORT_FEE};
use crate::error::CoreError;
use crate::platform::{Platform, PlatformConfig};
use crate::report::{create_report_pair, Findings};
use crate::sra::{Sra, SraBody, SraId};
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{Block, ChainStore, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;

/// Outcome of a staged attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Which attack ran.
    pub attack: &'static str,
    /// Whether the attacker achieved its goal.
    pub succeeded: bool,
    /// The defence (or failure mode) observed.
    pub detail: String,
}

fn test_platform() -> (Platform, SraId) {
    let mut p = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(31);
    let system = IoTSystem::build(
        "victim-fw",
        "1.0",
        p.library(),
        vec![VulnId(1), VulnId(2), VulnId(3)],
        &mut rng,
    )
    .unwrap();
    let id = p
        .release_system(0, system, INSURANCE, INCENTIVE_PER_VULN)
        .unwrap();
    (p, id)
}

/// **IoT SRA spoofing** (§IV-B challenge 1): a misbehaving entity frames a
/// benign provider by publishing an SRA in the victim's name. Defence:
/// decentralized verification of `Δ_id` and `P_Sign` (§V-A).
pub fn sra_spoofing() -> AttackOutcome {
    let attacker = KeyPair::from_seed(b"attacker");
    let victim = Address::from_label("benign-vendor");
    let sra = Sra::create(
        &attacker,
        "malicious-fw",
        "6.6.6",
        [0xbb; 32],
        "http://evil",
        Ether::from_ether(100),
        Ether::ZERO,
    );
    // Attack 1 — naive splice: relabel the provider bytes in the canonical
    // encoding without touching Δ_id. Integrity must catch it.
    let mut bytes = sra.encode();
    bytes[..20].copy_from_slice(victim.as_bytes());
    let naive = Sra::decode(&bytes).and_then(|f| f.verify());
    let naive_caught = matches!(
        naive,
        Err(CoreError::SraIdMismatch) | Err(CoreError::Payload { .. })
    );

    // Attack 2 — sophisticated: the attacker relabels the fields and
    // seals them in a well-formed envelope, Δ_id recomputed and signed
    // under its own key, so only the signature check can catch it.
    let relabelled = SraBody {
        provider: victim,
        ..sra.body.clone()
    };
    let crafted = Sra::decode(&Sra::sign(&attacker, relabelled).encode()).and_then(|f| f.verify());
    let crafted_caught = matches!(crafted, Err(CoreError::SraSignatureInvalid));

    let defended = naive_caught && crafted_caught;
    AttackOutcome {
        attack: "sra-spoofing",
        succeeded: !defended,
        detail: format!(
            "naive splice rejected by Δ_id integrity: {naive_caught}; \
             id-fixed forgery rejected by P_Sign authenticity: {crafted_caught}"
        ),
    }
}

/// **Plagiarizing detection results** (§IV-B challenge 2): a compromised
/// detector watches a victim reveal `R*` and tries to resubmit the same
/// findings. Defence: two-phase submission — the plagiarist holds no
/// prior confirmed commitment (§VI-A ii).
pub fn plagiarism() -> AttackOutcome {
    let (mut p, sra_id) = test_platform();
    let victim = KeyPair::from_seed(b"honest-detector");
    let thief = KeyPair::from_seed(b"plagiarist");
    p.fund(victim.address(), Ether::from_ether(10));
    p.fund(thief.address(), Ether::from_ether(10));
    let findings = Findings::new(vec![VulnId(1), VulnId(2), VulnId(3)], "hard work");
    let (v_initial, v_detailed) = create_report_pair(&victim, sra_id, findings.clone());
    p.submit_initial(&victim, v_initial).unwrap();
    p.mine_blocks(8);
    // The victim reveals; the thief now *sees* the findings.
    p.submit_detailed(&victim, v_detailed).unwrap();
    // The thief races: submits its own commitment to the stolen findings.
    let (t_initial, t_detailed) = create_report_pair(&thief, sra_id, findings);
    p.submit_initial(&thief, t_initial).unwrap();
    // The victim's reveal confirms first (it entered the mempool first).
    p.mine_blocks(8);
    let _ = p.submit_detailed(&thief, t_detailed);
    let payouts = p.mine_blocks(10);
    let thief_paid = payouts.iter().any(|pay| pay.wallet == thief.address());
    let victim_paid = p.payouts().iter().any(|pay| pay.wallet == victim.address());
    AttackOutcome {
        attack: "plagiarism",
        succeeded: thief_paid,
        detail: format!(
            "victim paid: {victim_paid}; plagiarist paid: {thief_paid} \
             (two-phase submission + first-confirmer-wins)"
        ),
    }
}

/// **Tampering with others' reports** (§III-A): a compromised detector
/// mutates a benign detector's report to frame it. Defence: the
/// authenticity/integrity checks of Algorithm 1.
pub fn report_tampering() -> AttackOutcome {
    let honest = KeyPair::from_seed(b"honest");
    let (initial, _) = create_report_pair(
        &honest,
        [3u8; 32],
        Findings::new(vec![VulnId(7)], "real finding"),
    );
    let mut bytes = initial.encode();
    // Flip a byte of the commitment in transit.
    bytes[60] ^= 0xff;
    let outcome = match crate::report::InitialReport::decode(&bytes) {
        Ok(tampered) => tampered.verify().is_err(),
        Err(_) => true,
    };
    AttackOutcome {
        attack: "report-tampering",
        succeeded: !outcome,
        detail: if outcome {
            "Algorithm 1 detected the modification".to_string()
        } else {
            "tampered report verified — defence failed".to_string()
        },
    }
}

/// **Forged detection reports** (§III-A): claiming vulnerabilities without
/// doing the work. Defence: `AutoVerif` plus scoreboard isolation.
pub fn forged_reports_until_isolation() -> AttackOutcome {
    // The forger attacks a fresh release each round (only one R† per
    // detector per SRA is admitted); strikes accumulate platform-wide.
    let mut p = Platform::new(PlatformConfig::paper());
    let mut rng = SimRng::seed_from_u64(41);
    let cheat = KeyPair::from_seed(b"forger");
    p.fund(cheat.address(), DETECTOR_FUNDING);
    let mut rejections = 0;
    let mut isolated_at = None;
    for round in 0u64..6 {
        let system = IoTSystem::build(
            "victim-fw",
            &format!("1.{round}"),
            p.library(),
            vec![VulnId(1)],
            &mut rng,
        )
        .unwrap();
        let sra_id = p
            .release_system(0, system, INSURANCE, INCENTIVE_PER_VULN)
            .unwrap();
        let findings = Findings::new(vec![VulnId(100 + round)], "fabricated");
        let (initial, detailed) = create_report_pair(&cheat, sra_id, findings);
        match p.submit_initial(&cheat, initial) {
            Err(CoreError::DetectorIsolated) => {
                isolated_at = Some(round);
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
            Ok(_) => {}
        }
        p.mine_blocks(8);
        if matches!(
            p.submit_detailed(&cheat, detailed),
            Err(CoreError::AutoVerifFailed { .. })
        ) {
            rejections += 1;
        }
    }
    let paid = p.payouts().iter().any(|pay| pay.wallet == cheat.address());
    AttackOutcome {
        attack: "forged-reports",
        succeeded: paid,
        detail: format!(
            "{rejections} forged reports rejected by AutoVerif; \
             isolation after round {isolated_at:?}; attacker paid: {paid}"
        ),
    }
}

/// **Repudiating incentives** (§IV-B challenge 4): a provider refuses to
/// pay detectors. Defence: the insurance sits in the escrow contract;
/// payout is consensus-triggered and the provider has no veto.
pub fn repudiation() -> AttackOutcome {
    let (mut p, sra_id) = test_platform();
    let detector = KeyPair::from_seed(b"diligent");
    p.fund(detector.address(), Ether::from_ether(10));
    let (initial, detailed) = create_report_pair(
        &detector,
        sra_id,
        Findings::new(vec![VulnId(1)], "found it"),
    );
    p.submit_initial(&detector, initial).unwrap();
    p.mine_blocks(8);
    p.submit_detailed(&detector, detailed).unwrap();
    // The provider does nothing (and can do nothing) to authorize payment.
    let payouts = p.mine_blocks(10);
    let paid = payouts
        .iter()
        .any(|pay| pay.wallet == detector.address() && pay.amount == INCENTIVE_PER_VULN);
    AttackOutcome {
        attack: "repudiation",
        succeeded: !paid,
        detail: format!("escrow auto-paid without provider consent: {paid}"),
    }
}

/// **Majority (51 %) attack** (§VIII): an attacker with hash share
/// `attacker_share` privately mines `depth` blocks and races the honest
/// chain. Returns the observed attacker win rate over `trials` seeded
/// races — above 0.5 share the attacker dominates, below it fails, the
/// crossover the paper's discussion relies on.
pub fn majority_attack_win_rate(attacker_share: f64, depth: u64, trials: u64) -> f64 {
    let mut wins = 0u64;
    for trial in 0..trials {
        let mut rng = SimRng::seed_from_u64(0xa77ac ^ trial);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let honest = Miner::new(Address::from_label("honest"));
        let attacker = Miner::new(Address::from_label("attacker"));
        let mut honest_tip = genesis.clone();
        let mut attacker_tip = genesis.clone();
        let mut honest_height = 0u64;
        let mut attacker_height = 0u64;
        // Race block-by-block: each production slot goes to the attacker
        // with probability `attacker_share` (the PoW race statistics).
        let mut ts = genesis.header().timestamp;
        while honest_height < depth && attacker_height < depth {
            ts += 15;
            if rng.next_f64() < attacker_share {
                attacker_tip = attacker.mine_next(&attacker_tip, vec![], ts).unwrap();
                store.insert(attacker_tip.clone()).unwrap();
                attacker_height += 1;
            } else {
                honest_tip = honest.mine_next(&honest_tip, vec![], ts).unwrap();
                store.insert(honest_tip.clone()).unwrap();
                honest_height += 1;
            }
        }
        if attacker_height >= depth {
            wins += 1;
        }
    }
    wins as f64 / trials as f64
}

/// **Collusion of stakeholders** (§IV-B challenge 3): a compromised
/// provider colludes with a detector and mines a block containing the
/// detector's forged detailed report, skipping admission checks. Defence:
/// every *other* provider re-runs Algorithm 1 + `AutoVerif` on received
/// blocks (§V-C fault-tolerant verification, the gate
/// [`crate::protocol::Protocol::check_block`] every node runs), so an
/// honest node refuses the block instead of extending it, and strikes the
/// detector.
pub fn collusion() -> AttackOutcome {
    use crate::node::ProviderNode;
    use smartcrowd_chain::record::{Record, RecordKind};
    use smartcrowd_detect::library::VulnLibrary;
    use smartcrowd_net::Message;

    // The released artifact holds VulnId(1); the colluding detector claims
    // VulnId(99), which does not reproduce.
    let library = VulnLibrary::synthetic(100, 1);
    let mut rng = SimRng::seed_from_u64(51);
    let system = IoTSystem::build("fw", "1", &library, vec![VulnId(1)], &mut rng).unwrap();
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let node =
        |seed: &[u8]| ProviderNode::new(KeyPair::from_seed(seed), genesis.clone(), library.clone());
    let mut colluder = node(b"colluding-provider");
    let mut honest = node(b"honest-provider");

    // The colluding provider releases the system; the honest node learns
    // the SRA and fetches its artifact.
    let (sra_id, released) = colluder.release(system, INSURANCE, INCENTIVE_PER_VULN);
    let mut to_honest = released.broadcast;
    while !to_honest.is_empty() {
        let replies: Vec<Message> = to_honest
            .into_iter()
            .flat_map(|m| honest.handle(m).broadcast)
            .collect();
        to_honest = replies
            .into_iter()
            .flat_map(|m| colluder.handle(m).broadcast)
            .collect();
    }

    // The colluding detector commits in the open; the honest node indexes
    // its `R†`.
    let detector = KeyPair::from_seed(b"colluder");
    let (initial, forged) = create_report_pair(
        &detector,
        sra_id,
        Findings::new(vec![VulnId(99)], "fabricated for the colluding provider"),
    );
    let signed = |kind, payload, nonce| Record::signed(kind, payload, REPORT_FEE, nonce, &detector);
    honest.handle(Message::Record(signed(
        RecordKind::InitialReport,
        initial.encode(),
        0,
    )));

    // The colluding provider mines the forged `R*` straight into a block.
    let dirty_block = Miner::new(colluder.address())
        .mine_next(
            &genesis,
            vec![signed(RecordKind::DetailedReport, forged.encode(), 1)],
            genesis.header().timestamp + 15,
        )
        .unwrap();
    honest.handle(Message::Block(Box::new(dirty_block.clone())));
    let accepted = honest.store().contains_block(&dirty_block.id());
    // A refusal is AutoVerif's, not a staging fault: it struck the detector.
    assert_eq!(
        honest.scoreboard().score(&detector.address()).strikes,
        u32::from(!accepted)
    );
    AttackOutcome {
        attack: "collusion",
        succeeded: accepted,
        detail: format!(
            "honest providers accepted the colluding provider's block: {accepted} \
             (AutoVerif re-runs on every received block)"
        ),
    }
}

/// Runs every platform-level attack and returns the outcomes (used by the
/// `attack_gauntlet` example and the security test-suite).
pub fn run_gauntlet() -> Vec<AttackOutcome> {
    vec![
        sra_spoofing(),
        plagiarism(),
        report_tampering(),
        forged_reports_until_isolation(),
        repudiation(),
        collusion(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spoofing_fails() {
        let o = sra_spoofing();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn plagiarism_fails_and_victim_is_paid() {
        let o = plagiarism();
        assert!(!o.succeeded, "{}", o.detail);
        assert!(o.detail.contains("victim paid: true"), "{}", o.detail);
    }

    #[test]
    fn tampering_fails() {
        let o = report_tampering();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn forgery_fails_and_isolates() {
        let o = forged_reports_until_isolation();
        assert!(!o.succeeded, "{}", o.detail);
        assert!(
            o.detail.contains("isolation after round Some"),
            "{}",
            o.detail
        );
    }

    #[test]
    fn repudiation_fails() {
        let o = repudiation();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn collusion_fails() {
        let o = collusion();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn gauntlet_all_defended() {
        for o in run_gauntlet() {
            assert!(!o.succeeded, "{}: {}", o.attack, o.detail);
        }
    }

    #[test]
    fn majority_attack_crossover() {
        // Minority attacker loses; majority attacker wins (§VIII).
        let minority = majority_attack_win_rate(0.3, 6, 60);
        let majority = majority_attack_win_rate(0.7, 6, 60);
        assert!(minority < 0.25, "30% attacker won {minority}");
        assert!(majority > 0.75, "70% attacker won {majority}");
    }
}
