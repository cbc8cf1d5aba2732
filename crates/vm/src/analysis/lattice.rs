//! The pluggable lattice interface every abstract domain plugs into, plus
//! the workhorse [`Interval`] lattice over 256-bit words.
//!
//! A [`Lattice`] is the *state* half of an abstract domain: a partially
//! ordered set with a join (least upper bound used at control-flow merge
//! points) and a widening operator (an upper bound that additionally
//! guarantees termination on lattices of unbounded height). The *transfer*
//! half lives in [`crate::analysis::engine::Domain`].

use smartcrowd_crypto::U256;

/// A join-semilattice of abstract states.
///
/// Implementations must make `join` commutative, associative and
/// idempotent, and `widen` an upper bound of both arguments such that any
/// ascending chain `s, s.widen(t1), s.widen(t1).widen(t2), …` stabilises
/// after finitely many steps. The default `widen` is `join`, which is only
/// adequate for lattices of finite height (like the stack-depth domain,
/// whose intervals are clamped to `[0, STACK_LIMIT]`).
pub trait Lattice: Clone + PartialEq {
    /// Least upper bound of two states, used at control-flow joins.
    fn join(&self, other: &Self) -> Self;

    /// Termination-enforcing upper bound, applied at loop heads once a
    /// block has been re-visited more than the engine's widening budget.
    fn widen(&self, newer: &Self) -> Self {
        self.join(newer)
    }
}

/// An inclusive interval `[lo, hi]` of 256-bit words — the value-range
/// lattice. `⊤` is `[0, U256::MAX]`; there is no explicit `⊥` (the engine
/// models unreached states as absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the abstracted word can hold.
    pub lo: U256,
    /// Largest value the abstracted word can hold.
    pub hi: U256,
}

/// The all-values interval.
pub(crate) const TOP: Interval = Interval {
    lo: U256::ZERO,
    hi: U256::MAX,
};

impl Interval {
    /// The singleton interval `[v, v]`.
    pub fn exact(v: U256) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]` (callers must uphold `lo <= hi`).
    pub fn new(lo: U256, hi: U256) -> Interval {
        Interval { lo, hi }
    }

    /// The boolean interval `[0, 1]`.
    pub(crate) fn boolean() -> Interval {
        Interval {
            lo: U256::ZERO,
            hi: U256::ONE,
        }
    }

    /// `Some(v)` when the interval is the singleton `[v, v]`.
    pub(crate) fn as_const(&self) -> Option<U256> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether zero is a possible value.
    pub(crate) fn may_be_zero(&self) -> bool {
        self.lo.is_zero()
    }

    /// Whether the interval is exactly `[0, 0]`.
    pub fn is_zero(&self) -> bool {
        self.lo.is_zero() && self.hi.is_zero()
    }

    /// Abstract wrapping addition: exact when neither endpoint sum wraps,
    /// `⊤` otherwise (a wrap tears the interval apart).
    pub fn add(&self, rhs: &Interval) -> Interval {
        match (self.lo.checked_add(&rhs.lo), self.hi.checked_add(&rhs.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => TOP,
        }
    }

    /// Abstract wrapping subtraction: exact when no operand pair can
    /// borrow (`self.lo >= rhs.hi`), `⊤` otherwise.
    pub fn sub(&self, rhs: &Interval) -> Interval {
        if self.lo >= rhs.hi {
            Interval {
                lo: self.lo.wrapping_sub(&rhs.hi),
                hi: self.hi.wrapping_sub(&rhs.lo),
            }
        } else {
            TOP
        }
    }

    /// Abstract wrapping multiplication (monotone on unsigned intervals,
    /// so the endpoint products bound the result when they don't wrap).
    pub fn mul(&self, rhs: &Interval) -> Interval {
        match (self.lo.checked_mul(&rhs.lo), self.hi.checked_mul(&rhs.hi)) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => TOP,
        }
    }

    /// Abstract division with the VM's `x / 0 = 0` convention.
    pub fn div(&self, rhs: &Interval) -> Interval {
        if rhs.is_zero() {
            return Interval::exact(U256::ZERO);
        }
        if rhs.may_be_zero() {
            // Some divisors are zero (yielding 0), others not: hull.
            return Interval {
                lo: U256::ZERO,
                hi: self.hi,
            };
        }
        Interval {
            lo: self.lo.div_rem(&rhs.hi).0,
            hi: self.hi.div_rem(&rhs.lo).0,
        }
    }

    /// Abstract modulo with the VM's `x % 0 = 0` convention.
    pub(crate) fn rem(&self, rhs: &Interval) -> Interval {
        if rhs.is_zero() {
            return Interval::exact(U256::ZERO);
        }
        // The result is < hi(divisor) and never exceeds the dividend.
        let bound = self.hi.min(rhs.hi.wrapping_sub(&U256::ONE));
        Interval {
            lo: U256::ZERO,
            hi: bound,
        }
    }

    /// Abstract `a < b` (1 when provably true, 0 when provably false,
    /// `[0, 1]` otherwise).
    pub(crate) fn lt(&self, rhs: &Interval) -> Interval {
        if self.hi < rhs.lo {
            Interval::exact(U256::ONE)
        } else if self.lo >= rhs.hi {
            Interval::exact(U256::ZERO)
        } else {
            Interval::boolean()
        }
    }

    /// Abstract `a > b`.
    pub(crate) fn gt(&self, rhs: &Interval) -> Interval {
        rhs.lt(self)
    }

    /// Abstract `a == b`.
    pub fn eq(&self, rhs: &Interval) -> Interval {
        match (self.as_const(), rhs.as_const()) {
            (Some(a), Some(b)) if a == b => Interval::exact(U256::ONE),
            _ if self.hi < rhs.lo || rhs.hi < self.lo => Interval::exact(U256::ZERO),
            _ => Interval::boolean(),
        }
    }

    /// Abstract `a == 0`.
    pub(crate) fn is_zero_abs(&self) -> Interval {
        if self.is_zero() {
            Interval::exact(U256::ONE)
        } else if !self.may_be_zero() {
            Interval::exact(U256::ZERO)
        } else {
            Interval::boolean()
        }
    }

    /// Abstract `min(a, b)`.
    pub(crate) fn min_abs(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.min(rhs.hi),
        }
    }

    /// Abstract bitwise and: `a & b <= min(a, b)`.
    pub(crate) fn bitand(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: U256::ZERO,
            hi: self.hi.min(rhs.hi),
        }
    }
}

impl Lattice for Interval {
    fn join(&self, other: &Self) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Jump straight to the lattice bound on whichever side is still
    /// moving: unstable lower bounds drop to 0, unstable upper bounds
    /// rise to `U256::MAX`. One widening step per slot, so fixpoints are
    /// reached in `O(slots)` extra visits.
    fn widen(&self, newer: &Self) -> Self {
        Interval {
            lo: if newer.lo < self.lo {
                U256::ZERO
            } else {
                self.lo
            },
            hi: if newer.hi > self.hi {
                U256::MAX
            } else {
                self.hi
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64) -> Interval {
        Interval::new(U256::from_u64(lo), U256::from_u64(hi))
    }

    #[test]
    fn join_is_hull() {
        assert_eq!(iv(1, 3).join(&iv(2, 9)), iv(1, 9));
        assert_eq!(iv(5, 5).join(&iv(5, 5)).as_const(), Some(U256::from_u64(5)));
    }

    #[test]
    fn widen_escapes_to_bounds() {
        let w = iv(3, 5).widen(&iv(3, 6));
        assert_eq!(w.lo, U256::from_u64(3));
        assert_eq!(w.hi, U256::MAX);
        let w = iv(3, 5).widen(&iv(2, 5));
        assert_eq!(w.lo, U256::ZERO);
    }

    #[test]
    fn arithmetic_tracks_constants() {
        assert_eq!(iv(2, 2).add(&iv(3, 3)).as_const(), Some(U256::from_u64(5)));
        assert_eq!(iv(7, 7).sub(&iv(3, 3)).as_const(), Some(U256::from_u64(4)));
        assert_eq!(iv(4, 4).mul(&iv(6, 6)).as_const(), Some(U256::from_u64(24)));
    }

    #[test]
    fn wrap_risk_degrades_to_top() {
        let near_max = Interval::new(U256::MAX.wrapping_sub(&U256::ONE), U256::MAX);
        assert_eq!(near_max.add(&iv(2, 2)), TOP);
        assert_eq!(iv(1, 3).sub(&iv(2, 2)), TOP, "1 - 2 can borrow");
    }

    #[test]
    fn division_by_zero_follows_vm_semantics() {
        assert_eq!(iv(9, 9).div(&iv(0, 0)).as_const(), Some(U256::ZERO));
        assert_eq!(iv(9, 9).div(&iv(0, 3)), iv(0, 9));
        assert_eq!(iv(10, 20).div(&iv(2, 5)), iv(2, 10));
        assert_eq!(iv(9, 9).rem(&iv(0, 0)).as_const(), Some(U256::ZERO));
        assert_eq!(iv(9, 9).rem(&iv(4, 4)), iv(0, 3));
    }

    #[test]
    fn comparisons_decide_when_provable() {
        assert_eq!(iv(1, 3).lt(&iv(4, 9)).as_const(), Some(U256::ONE));
        assert_eq!(iv(4, 9).lt(&iv(1, 3)).as_const(), Some(U256::ZERO));
        assert_eq!(iv(1, 5).lt(&iv(3, 9)), Interval::boolean());
        assert_eq!(iv(0, 0).is_zero_abs().as_const(), Some(U256::ONE));
        assert_eq!(iv(2, 9).is_zero_abs().as_const(), Some(U256::ZERO));
    }
}
