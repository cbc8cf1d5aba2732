//! Peer scoring and detector isolation.
//!
//! "SmartCrowd can isolate a compromised detector by enabling `P_i` to
//! filter this detector's next reports" (§V-C): after a detector's detailed
//! report fails `AutoVerif`, providers stop relaying or recording its
//! submissions. [`Scoreboard`] is each provider's local memory of peer
//! behaviour — strikes for failed verifications, credit for confirmed
//! reports, and an isolation threshold.

use smartcrowd_crypto::{Address, DigestMap};

/// Strikes after which a peer is isolated: §V-C's repeated forgeries.
pub const STRIKE_LIMIT: u32 = 3;

/// One peer's standing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerScore {
    /// Failed verifications (forged/plagiarized/tampered reports).
    pub strikes: u32,
    /// Confirmed, rewarded reports.
    pub confirmed: u32,
}

/// A provider-local peer reputation table, isolating a peer at
/// [`STRIKE_LIMIT`] strikes.
///
/// # Example
///
/// ```
/// use smartcrowd_net::scoreboard::{Scoreboard, STRIKE_LIMIT};
/// use smartcrowd_crypto::Address;
///
/// let mut board = Scoreboard::default();
/// let d = Address::from_label("detector");
/// for _ in 1..STRIKE_LIMIT {
///     board.record_strike(d);
/// }
/// assert!(board.admits(&d));
/// board.record_strike(d);
/// assert!(!board.admits(&d));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    scores: DigestMap<Address, PeerScore>,
}

impl Scoreboard {
    /// Records a failed verification for `peer`.
    pub fn record_strike(&mut self, peer: Address) {
        self.scores.entry(peer).or_default().strikes += 1;
    }

    /// Records a confirmed report for `peer`.
    pub fn record_confirmed(&mut self, peer: Address) {
        self.scores.entry(peer).or_default().confirmed += 1;
    }

    /// A peer's current score.
    pub fn score(&self, peer: &Address) -> PeerScore {
        self.scores.get(peer).copied().unwrap_or_default()
    }

    /// Whether the peer has reached the isolation threshold.
    pub(crate) fn is_isolated(&self, peer: &Address) -> bool {
        self.score(peer).strikes >= STRIKE_LIMIT
    }

    /// Whether a report from `peer` should be accepted for relay/recording.
    pub fn admits(&self, peer: &Address) -> bool {
        !self.is_isolated(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_accumulate_to_isolation() {
        let mut b = Scoreboard::default();
        let d = Address::from_label("d");
        for i in 0..STRIKE_LIMIT {
            assert!(b.admits(&d), "still admitted after {i} strikes");
            b.record_strike(d);
        }
        assert!(b.is_isolated(&d));
        assert!(!b.admits(&d));
    }

    #[test]
    fn confirmed_reports_do_not_isolate() {
        let mut b = Scoreboard::default();
        let d = Address::from_label("good");
        for _ in 0..100 {
            b.record_confirmed(d);
        }
        assert!(b.admits(&d));
        assert_eq!(b.score(&d).confirmed, 100);
    }

    #[test]
    fn unknown_peer_is_admitted() {
        let b = Scoreboard::default();
        assert!(b.admits(&Address::from_label("stranger")));
        assert_eq!(
            b.score(&Address::from_label("stranger")),
            PeerScore::default()
        );
    }
}
