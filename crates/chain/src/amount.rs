//! Fixed-point currency amounts.
//!
//! The paper denominates all incentives in ether ("we use 'ether', the
//! cryptocurrency in Ethereum, to evaluate the allocated incentives", §VII).
//! [`Ether`] stores wei (`10⁻¹⁸` ether) in a `u128`, so every balance,
//! reward, insurance deposit and gas fee in the workspace is exact — no
//! floating-point drift can unbalance the incentive equations (Eq. 7–10).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Wei per ether (`10^18`).
pub(crate) const WEI_PER_ETHER: u128 = 1_000_000_000_000_000_000;

/// A non-negative amount of currency, stored in wei.
///
/// Arithmetic via `+`/`-` panics on overflow/underflow like the built-in
/// integer types; use [`Ether::checked_sub`] where an insufficient balance
/// is an expected, recoverable condition.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::Ether;
///
/// let reward = Ether::from_ether(5);           // paper: 5 ether per block
/// let gas = Ether::from_milliether(95);        // paper: 0.095 ether per SRA
/// assert_eq!(reward + gas, Ether::from_wei(5_095_000_000_000_000_000));
/// assert_eq!(format!("{}", gas), "0.095 ETH");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ether(u128);

impl Ether {
    /// Zero.
    pub const ZERO: Ether = Ether(0);

    /// Constructs from raw wei.
    pub const fn from_wei(wei: u128) -> Self {
        Ether(wei)
    }

    /// Constructs from whole ether.
    pub const fn from_ether(ether: u64) -> Self {
        Ether(ether as u128 * WEI_PER_ETHER)
    }

    /// Constructs from milliether (`10⁻³` ether).
    pub const fn from_milliether(milli: u64) -> Self {
        Ether(milli as u128 * (WEI_PER_ETHER / 1_000))
    }

    /// Constructs from microether (`10⁻⁶` ether).
    pub const fn from_microether(micro: u64) -> Self {
        Ether(micro as u128 * (WEI_PER_ETHER / 1_000_000))
    }

    /// The raw wei value.
    pub const fn wei(&self) -> u128 {
        self.0
    }

    /// Lossy conversion to floating-point ether — display and plotting only,
    /// never balance arithmetic.
    pub fn as_f64(&self) -> f64 {
        self.0 as f64 / WEI_PER_ETHER as f64
    }

    /// Returns `true` when zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` when the balance would go negative.
    pub fn checked_sub(&self, rhs: Ether) -> Option<Ether> {
        self.0.checked_sub(rhs.0).map(Ether)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: Ether) -> Option<Ether> {
        self.0.checked_add(rhs.0).map(Ether)
    }

    /// Multiplies by an integer count (e.g. `fee × ω` records, Eq. 8).
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    // Overflowing u128 wei (> 3·10²⁰ ether) is unreachable from protocol
    // amounts and always indicates a logic bug; these panic by design,
    // like std's integer operators, since `Add`/`Sub` cannot return a
    // `Result`. `checked_add`/`checked_sub` are the fallible variants.
    #[allow(clippy::disallowed_methods)]
    pub fn scaled(&self, count: u64) -> Ether {
        Ether(self.0.checked_mul(count as u128).expect("ether overflow"))
    }

    /// Multiplies by a rational `num/den` (e.g. the recording proportion ρ
    /// of Eq. 7), rounding down.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or the intermediate product overflows.
    #[allow(clippy::disallowed_methods)] // see `scaled`
    pub fn mul_ratio(&self, num: u64, den: u64) -> Ether {
        assert!(den != 0, "zero denominator");
        Ether(self.0.checked_mul(num as u128).expect("ether overflow") / den as u128)
    }
}

impl Add for Ether {
    type Output = Ether;
    #[allow(clippy::disallowed_methods)] // see `scaled`
    fn add(self, rhs: Ether) -> Ether {
        Ether(self.0.checked_add(rhs.0).expect("ether overflow"))
    }
}

impl AddAssign for Ether {
    fn add_assign(&mut self, rhs: Ether) {
        *self = *self + rhs;
    }
}

impl Sub for Ether {
    type Output = Ether;
    #[allow(clippy::disallowed_methods)] // see `scaled`
    fn sub(self, rhs: Ether) -> Ether {
        Ether(self.0.checked_sub(rhs.0).expect("ether underflow"))
    }
}

impl SubAssign for Ether {
    fn sub_assign(&mut self, rhs: Ether) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Ether {
    type Output = Ether;
    fn mul(self, rhs: u64) -> Ether {
        self.scaled(rhs)
    }
}

impl Sum for Ether {
    fn sum<I: Iterator<Item = Ether>>(iter: I) -> Ether {
        iter.fold(Ether::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Ether {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / WEI_PER_ETHER;
        let frac = self.0 % WEI_PER_ETHER;
        if frac == 0 {
            write!(f, "{whole} ETH")
        } else {
            let s = format!("{frac:018}");
            write!(f, "{whole}.{} ETH", s.trim_end_matches('0'))
        }
    }
}

impl fmt::Debug for Ether {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ether({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Ether::from_ether(1), Ether::from_milliether(1000));
        assert_eq!(Ether::from_milliether(1), Ether::from_microether(1000));
        assert_eq!(Ether::from_ether(5).wei(), 5 * WEI_PER_ETHER);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ether::from_ether(5).to_string(), "5 ETH");
        assert_eq!(Ether::from_milliether(95).to_string(), "0.095 ETH");
        assert_eq!(Ether::from_milliether(11).to_string(), "0.011 ETH");
        assert_eq!(Ether::ZERO.to_string(), "0 ETH");
        assert_eq!(Ether::from_wei(1).to_string(), "0.000000000000000001 ETH");
    }

    #[test]
    fn arithmetic() {
        let a = Ether::from_ether(2);
        let b = Ether::from_ether(3);
        assert_eq!(a + b, Ether::from_ether(5));
        assert_eq!(b - a, Ether::from_ether(1));
        assert_eq!(a * 4, Ether::from_ether(8));
        assert_eq!(a.checked_sub(b), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Ether::ZERO - Ether::from_wei(1);
    }

    #[test]
    fn ratio_scaling() {
        // ρ = 3/4 of 1 ETH
        let v = Ether::from_ether(1).mul_ratio(3, 4);
        assert_eq!(v, Ether::from_milliether(750));
        // rounding floors
        assert_eq!(Ether::from_wei(10).mul_ratio(1, 3), Ether::from_wei(3));
    }

    #[test]
    fn sum_iterator() {
        let total: Ether = (1..=4).map(Ether::from_ether).sum();
        assert_eq!(total, Ether::from_ether(10));
    }

    #[test]
    fn as_f64_close() {
        let v = Ether::from_milliether(95);
        assert!((v.as_f64() - 0.095).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(Ether::from_wei(1) > Ether::ZERO);
        assert!(Ether::from_ether(1) < Ether::from_ether(2));
    }
}
