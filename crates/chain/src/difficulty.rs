//! Proof-of-work difficulty and targets.
//!
//! A block is valid when its id, read as a big-endian 256-bit integer, is
//! below `2²⁵⁶ / difficulty` — the geth semantics the paper's prototype
//! configures with block difficulty `0xf00000` (§VII).

use smartcrowd_crypto::{Digest, U256};
use std::fmt;

/// The block difficulty the paper's experiment uses (`0xf00000`, §VII).
pub(crate) const PAPER_DIFFICULTY: u128 = 0xf0_0000;

/// Average block time the paper measured on its testbed (15.35 s over
/// 2000 blocks, Fig. 3(b)).
pub const PAPER_BLOCK_TIME_SECS: f64 = 15.35;

/// A proof-of-work difficulty value (`D ≥ 1`).
///
/// # Example
///
/// ```
/// use smartcrowd_chain::Difficulty;
///
/// let easy = Difficulty::from_u64(1);
/// let hard = Difficulty::from_u64(1 << 16);
/// assert!(hard.target() < easy.target()); // a higher D is a lower target
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Difficulty(u128);

impl Difficulty {
    /// Creates a difficulty, clamping zero up to one.
    pub const fn from_u64(d: u64) -> Self {
        Difficulty(if d == 0 { 1 } else { d as u128 })
    }

    /// Creates a difficulty from a `u128`, clamping zero up to one.
    pub const fn from_u128(d: u128) -> Self {
        Difficulty(if d == 0 { 1 } else { d })
    }

    /// The paper's experimental difficulty (`0xf00000`).
    pub const fn paper() -> Self {
        Difficulty(PAPER_DIFFICULTY)
    }

    /// The raw difficulty value.
    pub const fn value(&self) -> u128 {
        self.0
    }

    /// The 256-bit target: hashes strictly below it win.
    pub fn target(&self) -> U256 {
        // 2^256 / D computed as ((2^256 - 1) / D), which differs from the
        // true quotient by at most 1 and only when D divides 2^256 exactly
        // (i.e. powers of two) — an industry-standard approximation.
        U256::MAX.div_rem(&U256::from_u128(self.0)).0
    }

    /// Tests whether a candidate block hash meets the target.
    pub(crate) fn target_met(&self, hash: &Digest) -> bool {
        if self.0 == 1 {
            return true;
        }
        U256::from_be_bytes(hash) < self.target()
    }
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Debug for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Difficulty({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(Difficulty::from_u64(0).value(), 1);
        assert_eq!(Difficulty::from_u128(0).value(), 1);
    }

    #[test]
    fn paper_constant() {
        assert_eq!(Difficulty::paper().value(), 0xf00000);
        assert_eq!(Difficulty::paper().to_string(), "0xf00000");
    }

    #[test]
    fn higher_difficulty_means_lower_target() {
        let d1 = Difficulty::from_u64(1000);
        let d2 = Difficulty::from_u64(2000);
        assert!(d2.target() < d1.target());
    }

    #[test]
    fn target_met_boundaries() {
        let d = Difficulty::from_u64(2);
        // target ≈ 2^255; a hash starting 0x7f… is below, 0x80… is not.
        let mut low = [0u8; 32];
        low[0] = 0x7f;
        let mut high = [0u8; 32];
        high[0] = 0x80;
        assert!(d.target_met(&low));
        assert!(!d.target_met(&high));
    }

    #[test]
    fn difficulty_one_accepts_everything() {
        assert!(Difficulty::from_u64(1).target_met(&[0xff; 32]));
    }
}
