//! Group arithmetic on the secp256k1 curve `y² = x³ + 7` over **F_p**.
//!
//! Points are exposed in affine form ([`Point`]). Every multiplication runs
//! in Jacobian projective coordinates and converts back once, at the end:
//! `k·G` alone is a fixed-base comb, and `a·G + b·P` is a single
//! Strauss–Shamir pass over *four* half-length scalars. The curve has the
//! endomorphism `λ·(x, y) = (β·x, y)` (`λ³ ≡ 1 mod n`, `β³ ≡ 1 mod p`), and
//! `Scalar::split` writes `k ≡ k₁ + k₂·λ` with `|k₁|, |k₂| < 2¹²⁸`, so
//! `a·G + b·P = a₁·G + a₂·λG + b₁·P + b₂·λP` needs 129 shared doublings
//! where the full-length scalars would need 257, and the multiples of `λG`
//! and `λP` are those of `G` and `P` with `x` scaled by `β`. That pass is
//! the one-term case of a multi-term one, `a·G + Σ bₖ·Pₖ + Σ cⱼ·Rⱼ` with
//! 128-bit `cⱼ`, which still shares its 129 doublings across every term:
//! the weighted sum one signer's group of ECDSA signatures is recovered
//! with (`ecdsa::recover_groups`).

use crate::error::CryptoError;
use crate::field::FieldElement;
use crate::scalar::{HalfScalar, Scalar};
use std::sync::OnceLock;

/// The curve constant `b = 7` in `y² = x³ + b`.
const B: u64 = 7;

/// x-coordinate of the generator point `G`.
pub const GX_HEX: &str = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
/// y-coordinate of the generator point `G`.
pub const GY_HEX: &str = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

/// The generator `G` as limbs.
const G: Affine = Affine {
    x: FieldElement::from_limbs_unchecked([
        0x59F2_815B_16F8_1798,
        0x029B_FCDB_2DCE_28D9,
        0x55A0_6295_CE87_0B07,
        0x79BE_667E_F9DC_BBAC,
    ]),
    y: FieldElement::from_limbs_unchecked([
        0x9C47_D08F_FB10_D4B8,
        0xFD17_B448_A685_5419,
        0x5DA4_FBFC_0E11_08A8,
        0x483A_DA77_26A3_C465,
    ]),
};

/// `β`, the cube root of unity mod `p` with `λ·(x, y) = (β·x, y)` for the
/// `λ` of [`Scalar::split`].
const BETA: FieldElement = FieldElement::from_limbs_unchecked([
    0xC139_6C28_7195_01EE,
    0x9CF0_4975_12F5_8995,
    0x6E64_479E_AC34_34E9,
    0x7AE9_6A2B_657C_0710,
]);

/// One term of [`Point::lincomb_sums`]: `(a, b, P, [(cⱼ, Rⱼ)])` for
/// `a·G + b·P + Σ cⱼ·Rⱼ`.
pub(crate) type LincombSum = (Scalar, Scalar, Point, Vec<(HalfScalar, Point)>);

/// A point on secp256k1 in affine coordinates, or the point at infinity.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::point::Point;
/// use smartcrowd_crypto::scalar::Scalar;
///
/// let g = Point::generator();
/// let two_g = g.add(&g);
/// assert_eq!(g.mul(&Scalar::from_u64(2)), two_g);
/// assert!(two_g.is_on_curve());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// A finite curve point `(x, y)`.
    Affine {
        /// x-coordinate.
        x: FieldElement,
        /// y-coordinate.
        y: FieldElement,
    },
}

/// A finite point in affine coordinates: the entry type of the static
/// generator tables, added to an accumulator with the mixed formulas.
#[derive(Clone, Copy)]
struct Affine {
    x: FieldElement,
    y: FieldElement,
}

impl Affine {
    fn neg(&self) -> Affine {
        Affine {
            x: self.x,
            y: self.y.neg(),
        }
    }

    /// `λ·self`.
    fn mul_lambda(&self) -> Affine {
        Affine {
            x: self.x.mul(&BETA),
            y: self.y,
        }
    }
}

/// Internal Jacobian representation `(X, Y, Z)` with `x = X/Z²`, `y = Y/Z³`.
#[derive(Clone, Copy)]
struct Jacobian {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    fn from_affine(p: &Point) -> Jacobian {
        match p {
            Point::Infinity => Jacobian::INFINITY,
            Point::Affine { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: FieldElement::ONE,
            },
        }
    }

    fn to_affine(self) -> Point {
        if self.is_infinity() {
            return Point::Infinity;
        }
        let zinv = self.z.invert();
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        Point::Affine {
            x: self.x.mul(&zinv2),
            y: self.y.mul(&zinv3),
        }
    }

    /// Point doubling for `a = 0` (3M + 4S).
    fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let xb = self.x.mul(&b);
        let xb2 = xb.add(&xb);
        let d = xb2.add(&xb2); // 4·X·Y²
        let e = a.add(&a).add(&a); // 3·X²
        let x3 = e.square().sub(&d).sub(&d);
        let c2 = c.add(&c);
        let c4 = c2.add(&c2);
        let y3 = e.mul(&d.sub(&x3)).sub(&c4.add(&c4));
        let yz = self.y.mul(&self.z);
        Jacobian {
            x: x3,
            y: y3,
            z: yz.add(&yz),
        }
    }

    /// General point addition (12M + 4S).
    fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&other.z).mul(&z2z2);
        let s2 = other.y.mul(&self.z).mul(&z1z1);
        self.add_tail(u1, s1, u2.sub(&u1), s2.sub(&s1), &self.z.mul(&other.z))
    }

    /// Mixed addition of an affine point, i.e. `add` with `Z2 = 1`
    /// (8M + 3S).
    fn add_affine(&self, other: &Affine) -> Jacobian {
        self.add_affine_with_ratio(other).0
    }

    /// [`Jacobian::add_affine`], also returning the factor `h` by which
    /// the sum's `Z` exceeds `self`'s (libsecp256k1's `rzr`). The factor
    /// is meaningful only for a finite `self` and an unexceptional sum.
    #[inline]
    fn add_affine_with_ratio(&self, other: &Affine) -> (Jacobian, FieldElement) {
        if self.is_infinity() {
            let lifted = Jacobian {
                x: other.x,
                y: other.y,
                z: FieldElement::ONE,
            };
            return (lifted, FieldElement::ONE);
        }
        let z1z1 = self.z.square();
        let u2 = other.x.mul(&z1z1);
        let s2 = other.y.mul(&self.z).mul(&z1z1);
        let h = u2.sub(&self.x);
        let sum = self.add_tail(self.x, self.y, h, s2.sub(&self.y), &self.z);
        (sum, h)
    }

    /// Adds the point whose coordinates in `self`'s frame are
    /// `(other.x, other.y, 1/zinv)`: an affine point of the true curve,
    /// met by an accumulator that lives on the curve where the P table is
    /// affine (libsecp256k1's `gej_add_zinv_var`, 9M + 3S). Scaling both
    /// `Z`s by `zinv` makes `other` affine without touching the `X` and `Y`
    /// of either side, so the mixed formula runs with `self.z·zinv` in
    /// place of `self.z`, and the sum keeps `self.z·h` as its `Z`.
    fn add_zinv(&self, other: &Affine, zinv: &FieldElement) -> Jacobian {
        if self.is_infinity() {
            let zinv2 = zinv.square();
            return Jacobian {
                x: other.x.mul(&zinv2),
                y: other.y.mul(&zinv2).mul(zinv),
                z: FieldElement::ONE,
            };
        }
        let az = self.z.mul(zinv);
        let z1z1 = az.square();
        let u2 = other.x.mul(&z1z1);
        let s2 = other.y.mul(&az).mul(&z1z1);
        self.add_tail(self.x, self.y, u2.sub(&self.x), s2.sub(&self.y), &self.z)
    }

    /// The shared second half of both additions: `self` has been brought to
    /// the common denominator as `(u1, s1)`, the other operand differs from
    /// it by `(h, r)`, and `z` is the product of the two `Z`s. `h = 0` is
    /// the exceptional case the ladder must not assume away: the operands
    /// are the same point (double) or opposite points (infinity).
    fn add_tail(
        &self,
        u1: FieldElement,
        s1: FieldElement,
        h: FieldElement,
        r: FieldElement,
        z: &FieldElement,
    ) -> Jacobian {
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let hh = h.square();
        let hhh = h.mul(&hh);
        let v = u1.mul(&hh);
        let x3 = r.square().sub(&hhh).sub(&v).sub(&v);
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&hhh));
        Jacobian {
            x: x3,
            y: y3,
            z: z.mul(&h),
        }
    }
}

/// Converts Jacobian points to affine with one field inversion
/// (Montgomery's trick: invert the product of all finite `Z`s, then peel
/// one `Z` off per point). A point at infinity (`Z = 0`) stays out of the
/// product and comes back as [`Point::Infinity`].
fn batch_to_affine(points: &[Jacobian]) -> Vec<Point> {
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = FieldElement::ONE;
    for p in points {
        prefix.push(acc);
        if !p.is_infinity() {
            acc = acc.mul(&p.z);
        }
    }
    let mut inv = acc.invert();
    let mut out = vec![Point::Infinity; points.len()];
    for ((p, before), slot) in points.iter().zip(&prefix).zip(&mut out).rev() {
        if p.is_infinity() {
            continue;
        }
        let zinv = inv.mul(before);
        inv = inv.mul(&p.z);
        let zinv2 = zinv.square();
        *slot = Point::Affine {
            x: p.x.mul(&zinv2),
            y: p.y.mul(&zinv2).mul(&zinv),
        };
    }
    out
}

/// Entries in `P`'s odd-multiples table: `2^(WINDOW_P−2)`.
const TABLE_P: usize = 1 << (WINDOW_P - 2);

/// `(2i+1)·P` for `i < TABLE_P` for every `P` of `points`, in order, as
/// effective-affine entries, plus the one `Z` they all share: entry
/// `(x, y)` stands for the Jacobian point `(x, y, Z)` (libsecp256k1's
/// `ecmult_odd_multiples_table`, `gej_rescale` and `ge_table_set_globalz`).
///
/// `2P = (X, Y, C)` is affine on the isomorphic curve `y² = x³ + 7C⁶`,
/// reached by `(x, y) ↦ (C²x, C³y)`. Each table is built there: `P`
/// enters as `(C²x, C³y)`, and each `(2i+1)·P + 2P` is one mixed addition
/// (8M + 3S) with no exceptional case, since `P` has prime order. An entry's
/// true `Z` is the one before it times a known ratio: the `h` of its
/// addition, or `C` for a table's first entry, because every `P` after the
/// first is doubled from the Jacobian form that carries the previous
/// table's last `Z`. Walking back from the very last entry, those ratios
/// rescale every entry of every table to the last one's `Z`, which is the
/// shared `Z` on the true curve. The curve constant appears in no addition
/// or doubling formula, so a ladder can run on the isomorphic curve where
/// all of these tables are affine and multiply its result's `Z` by the
/// shared one at the end.
fn odd_multiples(points: &[Affine]) -> (Vec<[Affine; TABLE_P]>, FieldElement) {
    let mut tables = Vec::with_capacity(points.len());
    let mut ratios = Vec::with_capacity(points.len() * TABLE_P);
    // The true `Z` of the last entry built so far.
    let mut z = FieldElement::ONE;
    for (t, p) in points.iter().enumerate() {
        let start = if t == 0 {
            Jacobian { x: p.x, y: p.y, z }
        } else {
            let z2 = z.square();
            Jacobian {
                x: p.x.mul(&z2),
                y: p.y.mul(&z2).mul(&z),
                z,
            }
        };
        let twice = start.double();
        let c = twice.z;
        let c2 = c.square();
        let step = Affine {
            x: twice.x,
            y: twice.y,
        };
        let mut acc = Jacobian {
            x: start.x.mul(&c2),
            y: start.y.mul(&c2).mul(&c),
            z: start.z,
        };
        let mut table = [G; TABLE_P];
        table[0] = Affine { x: acc.x, y: acc.y };
        ratios.push(c);
        for slot in &mut table[1..] {
            let h;
            (acc, h) = acc.add_affine_with_ratio(&step);
            *slot = Affine { x: acc.x, y: acc.y };
            ratios.push(h);
        }
        z = acc.z.mul(&c);
        tables.push(table);
    }
    // `scale` is the last entry's `Z` over the current entry's.
    let mut scale: Option<FieldElement> = None;
    let entries = tables.as_flattened_mut();
    for (entry, ratio) in entries.iter_mut().zip(&ratios).rev() {
        if let Some(scale) = scale {
            let scale2 = scale.square();
            entry.x = entry.x.mul(&scale2);
            entry.y = entry.y.mul(&scale2).mul(&scale);
        }
        scale = Some(scale.map_or(*ratio, |scale| scale.mul(ratio)));
    }
    (tables, z)
}

/// Window width of the signed-digit form of the variable-base scalar: an
/// eight-entry table built per multiplication.
const WINDOW_P: usize = 5;
/// Window width for the generator's scalar: its table is static, so it can
/// be wider (256 entries, 16 KiB).
const WINDOW_G: usize = 10;

/// Entries in the fixed-base comb: 64 four-bit windows × 15 non-zero digits.
const COMB_LEN: usize = 64 * 15;

/// The precomputed multiples of `G`, built once on first use (~1200 group
/// additions and one inversion, well under a millisecond); 76 KiB in all.
struct GeneratorTables {
    /// Fixed-base comb: `comb[15·w + d − 1] = d·16^w·G` for windows
    /// `w ∈ 0..64` and digits `d ∈ 1..=15`. Turns `k·G` alone (signing
    /// nonces, public-key derivation) into at most 64 mixed additions with
    /// no doublings.
    comb: Vec<Affine>,
    /// `odd[i] = (2i+1)·G`: the generator half of [`Point::lincomb_with_generator`].
    odd: Vec<Affine>,
}

fn generator_tables() -> &'static GeneratorTables {
    static TABLES: OnceLock<GeneratorTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let g = Jacobian::from_affine(&Point::generator());
        let mut points = vec![Jacobian::INFINITY; COMB_LEN + (1 << (WINDOW_G - 2))];
        let (comb, odd) = points.split_at_mut(COMB_LEN);
        let mut window_base = g; // 16^w · G
        for row in comb.chunks_mut(15) {
            let mut acc = window_base;
            for slot in row {
                *slot = acc;
                acc = acc.add(&window_base);
            }
            window_base = acc; // 16 · (16^w · G) = 16^{w+1} · G
        }
        let twice = g.double();
        let mut acc = g;
        for slot in odd {
            *slot = acc;
            acc = acc.add(&twice);
        }
        let mut comb: Vec<Affine> = batch_to_affine(&points)
            .into_iter()
            .map(|p| match p {
                Point::Affine { x, y } => Affine { x, y },
                Point::Infinity => unreachable!("no multiple below n of G is ∞"),
            })
            .collect();
        let odd = comb.split_off(COMB_LEN);
        GeneratorTables { comb, odd }
    })
}

/// Digits in the signed-digit form of a [`HalfScalar`]: its 128 bits and
/// the carry out of the top window.
const HALF_DIGITS: usize = 129;

/// Width-`w` non-adjacent form of the signed half `k`: `k = Σ naf[i]·2^i`
/// where every non-zero digit is odd with `|digit| < 2^(w−1)` and at most
/// one in any `w` consecutive positions is non-zero.
fn wnaf(k: HalfScalar, w: usize) -> [i16; HALF_DIGITS] {
    let magnitude = k.magnitude;
    // Bits `i..i+width` for `width ≤ w ≤ 15` and `i + width ≤ 128`.
    let bits = |i: usize, width: usize| (magnitude >> i) as u32 & ((1 << width) - 1);
    let mut naf = [0i16; HALF_DIGITS];
    let mut carry = 0u32;
    let mut i = 0;
    while i < 128 {
        if bits(i, 1) == carry {
            // 0 + 0, or 1 + 1 which leaves 0 and keeps the carry.
            i += 1;
            continue;
        }
        let width = w.min(128 - i);
        let word = bits(i, width) + carry; // odd, below 2^w
        carry = (word >> (w - 1)) & 1;
        naf[i] = (word as i32 - ((carry as i32) << w)) as i16;
        i += width;
    }
    naf[128] = carry as i16;
    if k.negative {
        naf = naf.map(|digit| -digit);
    }
    naf
}

/// Splits a non-zero wNAF digit into its odd-multiples table index and
/// whether the entry is subtracted.
fn digit_entry(digit: i16) -> (usize, bool) {
    (usize::from(digit.unsigned_abs() >> 1), digit < 0)
}

/// The entry a non-zero wNAF digit picks from an odd-multiples table.
fn table_entry(table: &[Affine], digit: i16) -> Affine {
    let (index, negate) = digit_entry(digit);
    if negate {
        table[index].neg()
    } else {
        table[index]
    }
}

/// `a·G + Σ bₖ·Pₖ + Σ cⱼ·Rⱼ` up to the one conversion to affine, in one
/// Strauss pass (libsecp256k1's `ecmult_strauss_wnaf`): every digit string
/// shares the one run of 129 doublings. `a` and each full-length `bₖ` are
/// split by the endomorphism into two signed halves below 2¹²⁸ (`a₁` over
/// `G`, `a₂` over `λG`, `bₖ₁` over `Pₖ`, `bₖ₂` over `λPₖ`), and each `cⱼ`
/// is a half already, kept whole over its `Rⱼ`. `G`'s digits pick from
/// the static odd multiples of `G` (an entry's `x` scaled by `β` for the
/// `λG` half); every other point gets an odd-multiples table built here
/// (and, for a `Pₖ`, its `β`-scaled copy), all sharing one `Z` (see
/// [`odd_multiples`]), so the pass runs on the isomorphic curve where
/// those tables are affine: a point digit costs a mixed addition
/// (8M + 3S), a `G` digit one multiplication more, and the result's `Z`
/// one multiplication by the shared `Z`. A term whose point is `∞` or
/// whose multiplier is zero adds nothing and gets no table.
/// [`Point::lincomb_with_generator`] is the case of one `bₖ` and no `cⱼ`;
/// its doc comment states for which operands the pass is exact.
fn strauss(a: &Scalar, full: &[(Scalar, Point)], half: &[(HalfScalar, Point)]) -> Jacobian {
    let finite = |p: &Point| match p {
        Point::Affine { x, y } => {
            debug_assert!(p.is_on_curve(), "λ·P = (β·x, y) needs P on the curve");
            Some(Affine { x: *x, y: *y })
        }
        Point::Infinity => None,
    };
    // The finite points with a non-zero multiplier, `Pₖ`s first, and
    // their multipliers.
    let mut points = Vec::with_capacity(full.len() + half.len());
    let mut full_scalars = Vec::with_capacity(full.len());
    for (b, p) in full {
        if let (false, Some(p)) = (b.is_zero(), finite(p)) {
            points.push(p);
            full_scalars.push(*b);
        }
    }
    let mut half_scalars = Vec::with_capacity(half.len());
    for (c, p) in half {
        if let (true, Some(p)) = (c.magnitude != 0, finite(p)) {
            points.push(p);
            half_scalars.push(*c);
        }
    }
    let (tables, global_z) = odd_multiples(&points);
    drop(points);
    let (p_tables, r_tables) = tables.split_at(full_scalars.len());
    let lambda_tables: Vec<[Affine; TABLE_P]> = p_tables
        .iter()
        .map(|table| table.map(|entry| entry.mul_lambda()))
        .collect();
    // One string of `WINDOW_P` digits (|digit| < 16, so an `i8`) per half,
    // with the table it reads.
    let digits = |k: HalfScalar| wnaf(k, WINDOW_P).map(|digit| digit as i8);
    let mut strings: Vec<([i8; HALF_DIGITS], &[Affine; TABLE_P])> =
        Vec::with_capacity(2 * full_scalars.len() + half_scalars.len());
    for ((b, table), lambda_table) in full_scalars.iter().zip(p_tables).zip(&lambda_tables) {
        let (b1, b2) = b.split();
        strings.push((digits(b1), table));
        strings.push((digits(b2), lambda_table));
    }
    for (c, table) in half_scalars.iter().zip(r_tables) {
        strings.push((digits(*c), table));
    }
    let odd_g = &generator_tables().odd;
    let (a1, a2) = a.split();
    let naf_g = wnaf(a1, WINDOW_G);
    let naf_lambda_g = wnaf(a2, WINDOW_G);
    // The accumulator lives on the curve where the tables are affine: the
    // true `Z` of every point it holds is its own `Z` times `global_z`.
    let mut acc = Jacobian::INFINITY;
    for i in (0..HALF_DIGITS).rev() {
        acc = acc.double();
        if naf_g[i] != 0 {
            acc = acc.add_zinv(&table_entry(odd_g, naf_g[i]), &global_z);
        }
        if naf_lambda_g[i] != 0 {
            let entry = table_entry(odd_g, naf_lambda_g[i]).mul_lambda();
            acc = acc.add_zinv(&entry, &global_z);
        }
        for (naf, table) in &strings {
            if naf[i] != 0 {
                acc = acc.add_affine(&table_entry(*table, i16::from(naf[i])));
            }
        }
    }
    acc.z = acc.z.mul(&global_z);
    acc
}

impl Point {
    /// The secp256k1 generator `G`.
    pub fn generator() -> Point {
        Point::Affine { x: G.x, y: G.y }
    }

    /// Constructs a point from affine coordinates, validating the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::PointNotOnCurve`] when `(x, y)` does not
    /// satisfy `y² = x³ + 7`.
    pub(crate) fn from_coordinates(x: FieldElement, y: FieldElement) -> Result<Point, CryptoError> {
        let p = Point::Affine { x, y };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(CryptoError::PointNotOnCurve)
        }
    }

    /// Returns `true` for the point at infinity.
    pub(crate) fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// Checks the curve equation (infinity counts as on-curve).
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = y.square();
                let rhs = x.square().mul(x).add(&FieldElement::from_u64(B));
                lhs == rhs
            }
        }
    }

    /// The affine x-coordinate, if finite.
    pub fn x(&self) -> Option<FieldElement> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, .. } => Some(*x),
        }
    }

    /// The affine y-coordinate, if finite.
    pub fn y(&self) -> Option<FieldElement> {
        match self {
            Point::Infinity => None,
            Point::Affine { y, .. } => Some(*y),
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        Jacobian::from_affine(self)
            .add(&Jacobian::from_affine(other))
            .to_affine()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        Jacobian::from_affine(self).double().to_affine()
    }

    /// Point negation `(x, −y)`.
    pub fn neg(&self) -> Point {
        match self {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine { x: *x, y: y.neg() },
        }
    }

    /// Scalar multiplication `k·P` (the variable-base half of
    /// [`Point::lincomb_with_generator`], so `self` must be on the curve).
    pub fn mul(&self, k: &Scalar) -> Point {
        Point::lincomb_with_generator(&Scalar::ZERO, k, self)
    }

    /// Multiplies the generator by `k` using the precomputed fixed-base
    /// comb — the fast path for `k·G` alone (signing nonces, public-key
    /// derivation).
    pub fn mul_generator(k: &Scalar) -> Point {
        let comb = &generator_tables().comb;
        let limbs = k.to_u256().limbs();
        let mut acc = Jacobian::INFINITY;
        for w in 0..64 {
            let nibble = (limbs[w / 16] >> (4 * (w % 16))) as usize & 15;
            if nibble != 0 {
                acc = acc.add_affine(&comb[15 * w + nibble - 1]);
            }
        }
        acc.to_affine()
    }

    /// Computes `a·G + b·P` (the ECDSA verification and recovery double
    /// multiply) in one Strauss–Shamir pass. Both scalars are split by
    /// `Scalar::split` into signed halves below 2¹²⁸, so the pass runs four
    /// digit strings — `a₁` over `G`, `a₂` over `λG`, `b₁` over `P`, `b₂`
    /// over `λP` — through one shared run of 129 doublings: `G`'s digits
    /// pick from the static odd multiples of `G` (an entry's `x` scaled by
    /// `β` for the `λG` half), `P`'s from an odd-multiples table of `P`
    /// built here and its `β`-scaled copy, and there is one conversion to
    /// affine at the end. `P`'s table shares one `Z` (see
    /// `odd_multiples`), so the pass runs on the isomorphic curve where
    /// that table is affine: a `P` digit costs a mixed addition (8M + 3S)
    /// instead of a general one (12M + 4S), a `G` digit one multiplication
    /// more than a mixed addition, and the result's `Z` one multiplication
    /// by the shared `Z`.
    ///
    /// `P` must be on the curve (every [`crate::keys::PublicKey`] and every
    /// decoded point is): `(β·x, y)` is `λ·P` only there. Every *scalar* a
    /// peer can choose is safe, as is every on-curve `P`: the additions
    /// handle an accumulator equal or opposite to a table entry (which
    /// `P = ±G`, `±λG`, `±λ²G` and `a·G = −b·P` all produce), a zero half
    /// has no digits, and the multiples of `P = ∞` are all `∞`.
    pub fn lincomb_with_generator(a: &Scalar, b: &Scalar, p: &Point) -> Point {
        strauss(a, &[(*b, *p)], &[]).to_affine()
    }

    /// `a·G + b·P + Σ cⱼ·Rⱼ` of every `(a, b, P, [(cⱼ, Rⱼ)])` term, in
    /// order: one Strauss pass each (129 shared doublings, one table per
    /// point), and one field inversion for them all. Every point must be
    /// on the curve, as for [`Point::lincomb_with_generator`], which is the
    /// case of one term with no `cⱼ`.
    pub(crate) fn lincomb_sums(terms: &[LincombSum]) -> Vec<Point> {
        let sums: Vec<Jacobian> = terms
            .iter()
            .map(|(a, b, p, half)| strauss(a, &[(*b, *p)], half))
            .collect();
        batch_to_affine(&sums)
    }

    /// SEC1 compressed encoding `0x02/0x03 || x` (33 bytes); `None` for
    /// infinity.
    pub fn encode_compressed(&self) -> Option<[u8; 33]> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => Some(sec1_compressed(x, y)),
        }
    }

    /// Decodes a SEC1 point (compressed or uncompressed).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicKey`] for malformed encodings and
    /// [`CryptoError::PointNotOnCurve`] when the coordinates fail the curve
    /// equation.
    pub fn decode(bytes: &[u8]) -> Result<Point, CryptoError> {
        match bytes.first() {
            Some(0x04) if bytes.len() == 65 => {
                let mut xb = [0u8; 32];
                let mut yb = [0u8; 32];
                xb.copy_from_slice(&bytes[1..33]);
                yb.copy_from_slice(&bytes[33..65]);
                let x =
                    FieldElement::from_be_bytes(&xb).map_err(|_| CryptoError::InvalidPublicKey)?;
                let y =
                    FieldElement::from_be_bytes(&yb).map_err(|_| CryptoError::InvalidPublicKey)?;
                Point::from_coordinates(x, y)
            }
            Some(tag @ (0x02 | 0x03)) if bytes.len() == 33 => {
                let mut xb = [0u8; 32];
                xb.copy_from_slice(&bytes[1..33]);
                let x =
                    FieldElement::from_be_bytes(&xb).map_err(|_| CryptoError::InvalidPublicKey)?;
                let rhs = x.square().mul(&x).add(&FieldElement::from_u64(B));
                let y = rhs.sqrt().ok_or(CryptoError::PointNotOnCurve)?;
                let want_odd = *tag == 0x03;
                let y = if y.is_odd() == want_odd { y } else { y.neg() };
                Ok(Point::Affine { x, y })
            }
            _ => Err(CryptoError::InvalidPublicKey),
        }
    }
}

/// SEC1 uncompressed encoding `0x04 || x || y` of the finite point `(x, y)`.
pub(crate) fn sec1_uncompressed(x: &FieldElement, y: &FieldElement) -> [u8; 65] {
    let mut out = [0u8; 65];
    out[0] = 0x04;
    out[1..33].copy_from_slice(&x.to_be_bytes());
    out[33..65].copy_from_slice(&y.to_be_bytes());
    out
}

/// SEC1 compressed encoding `0x02/0x03 || x` of the finite point `(x, y)`.
pub(crate) fn sec1_compressed(x: &FieldElement, y: &FieldElement) -> [u8; 33] {
    let mut out = [0u8; 33];
    out[0] = if y.is_odd() { 0x03 } else { 0x02 };
    out[1..33].copy_from_slice(&x.to_be_bytes());
    out
}

/// Reference binary double-and-add over the public affine operations, the
/// oracle the windowed multiplications are checked against.
#[cfg(test)]
fn mul_binary(p: &Point, k: &Scalar) -> Point {
    let e = k.to_u256();
    let mut acc = Point::Infinity;
    for i in (0..e.bits()).rev() {
        acc = acc.double();
        if e.bit(i) {
            acc = acc.add(p);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::LAMBDA;
    use crate::u256::U256;

    #[test]
    fn generator_is_on_curve() {
        assert!(Point::generator().is_on_curve());
    }

    #[test]
    fn generator_matches_published_hex() {
        let g = Point::generator();
        assert_eq!(g.x().unwrap().to_u256(), U256::from_hex(GX_HEX).unwrap());
        assert_eq!(g.y().unwrap().to_u256(), U256::from_hex(GY_HEX).unwrap());
    }

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        for magnitude in [
            0u128,
            1,
            u128::from(u64::MAX),
            1 << 127,
            u128::MAX << 72,
            // All ones: every window carries, the last one out of bit 127.
            u128::MAX,
        ] {
            for (w, negative) in [(2, false), (WINDOW_P, true), (WINDOW_G, false), (15, true)] {
                let naf = wnaf(
                    HalfScalar {
                        magnitude,
                        negative,
                    },
                    w,
                );
                // Horner from the top digit down, in the scalar field.
                let mut acc = Scalar::ZERO;
                let mut gap = w; // positions since the last non-zero digit
                for &d in naf.iter().rev() {
                    acc = acc.add(&acc);
                    let mag = Scalar::from_u64(u64::from(d.unsigned_abs()));
                    acc = if d < 0 { acc.sub(&mag) } else { acc.add(&mag) };
                    if d != 0 {
                        assert!(d % 2 != 0 && i32::from(d).abs() < 1 << (w - 1));
                        assert!(gap >= w - 1, "digits closer than w apart");
                        gap = 0;
                    } else {
                        gap += 1;
                    }
                }
                let want = Scalar::from_u256_reduced(U256::from_u128(magnitude));
                let want = if negative { want.neg() } else { want };
                assert_eq!(acc, want, "k = {magnitude:#x}, w = {w}");
            }
        }
        let all_ones = HalfScalar {
            magnitude: u128::MAX,
            negative: false,
        };
        assert_eq!(wnaf(all_ones, WINDOW_P)[128], 1, "carry out of the top");
    }

    #[test]
    fn endomorphism_constants() {
        // β is a primitive cube root of unity mod p …
        assert_ne!(BETA, FieldElement::ONE);
        assert_eq!(BETA.square().mul(&BETA), FieldElement::ONE);
        // … and the one that goes with the split's λ: λ·G = (β·Gx, Gy).
        let lambda_g = G.mul_lambda();
        assert_eq!(
            mul_binary(&Point::generator(), &LAMBDA),
            Point::Affine {
                x: lambda_g.x,
                y: lambda_g.y
            }
        );
    }

    #[test]
    fn odd_multiples_share_one_z() {
        // Entry (x, y) with the shared Z is (2i+1)·P on the true curve, and
        // its β-scaled copy is λ·(2i+1)·P: the endomorphism commutes with
        // the change of curve. One table alone, and three chained ones
        // (G twice, so two tables hold the same points) under one Z.
        let g = Point::generator();
        let p = mul_binary(&g, &Scalar::from_u64(0xc0ffee));
        for points in [vec![g], vec![p], vec![p, g, g]] {
            let affine: Vec<Affine> = points
                .iter()
                .map(|q| match q {
                    Point::Affine { x, y } => Affine { x: *x, y: *y },
                    Point::Infinity => unreachable!("finite"),
                })
                .collect();
            let (tables, z) = odd_multiples(&affine);
            assert_eq!(tables.len(), points.len());
            for (point, table) in points.iter().zip(&tables) {
                for (i, entry) in table.iter().enumerate() {
                    let k = Scalar::from_u64(2 * i as u64 + 1);
                    for (entry, k) in [(*entry, k), (entry.mul_lambda(), k.mul(&LAMBDA))] {
                        let jacobian = Jacobian {
                            x: entry.x,
                            y: entry.y,
                            z,
                        };
                        assert_eq!(jacobian.to_affine(), mul_binary(point, &k), "entry {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn strauss_matches_term_by_term() {
        // a·G + Σ bₖ·Pₖ + Σ cⱼ·Rⱼ against the sum of its terms, with a
        // repeated point, a point at infinity, zero multipliers, negative
        // halves and an Rⱼ equal to a Pₖ.
        let g = Point::generator();
        let p = mul_binary(&g, &Scalar::from_u64(0xc0ffee));
        let q = mul_binary(&g, &Scalar::from_u64(0xbeef));
        let a = Scalar::from_u64(0x1234_5678_9abc_def0).mul(&LAMBDA);
        let full = [
            (LAMBDA.add(&Scalar::from_u64(3)), p),
            (Scalar::ZERO, q),
            (Scalar::from_u64(5).neg(), q),
            (Scalar::ONE, Point::Infinity),
            (LAMBDA, p),
        ];
        let half = |magnitude: u128, negative: bool| HalfScalar {
            magnitude,
            negative,
        };
        let halves = [
            (half(u128::MAX, true), p),
            (half(0, false), q),
            (half(0xdead_beef << 64, false), q),
            (half(7, true), Point::Infinity),
            (half(1 << 127, false), g),
        ];
        let mut want = mul_binary(&g, &a);
        for (b, point) in &full {
            want = want.add(&mul_binary(point, b));
        }
        for (c, point) in &halves {
            let c_scalar = Scalar::from_u256_reduced(U256::from_u128(c.magnitude));
            let c_scalar = if c.negative { c_scalar.neg() } else { c_scalar };
            want = want.add(&mul_binary(point, &c_scalar));
        }
        assert_eq!(strauss(&a, &full, &halves).to_affine(), want);
        // Subtracting the sum as one more term cancels it.
        assert!(!want.is_infinity());
        let mut with_minus = full.to_vec();
        with_minus.push((Scalar::ONE.neg(), want));
        assert!(strauss(&a, &with_minus, &halves).is_infinity());
        // No terms at all: a·G alone, and 0·G = ∞.
        assert_eq!(strauss(&a, &[], &[]).to_affine(), mul_binary(&g, &a));
        assert!(strauss(&Scalar::ZERO, &[], &[]).is_infinity());
        // One sum per term, converted together: the ones above, a
        // cancelling one among them, and the one-term double multiply.
        let (b, p0) = full[0];
        let sums = [
            (a, b, p0, halves.to_vec()),
            (a, Scalar::ZERO, q, vec![]),
            (Scalar::ZERO, Scalar::ONE, want, vec![(half(1, true), want)]),
            (a, b, p0, vec![]),
        ];
        let one_term = mul_binary(&g, &a).add(&mul_binary(&p0, &b));
        let mut with_halves = one_term;
        for (c, point) in &halves {
            let c_scalar = Scalar::from_u256_reduced(U256::from_u128(c.magnitude));
            let c_scalar = if c.negative { c_scalar.neg() } else { c_scalar };
            with_halves = with_halves.add(&mul_binary(point, &c_scalar));
        }
        assert_eq!(
            Point::lincomb_sums(&sums),
            [with_halves, mul_binary(&g, &a), Point::Infinity, one_term]
        );
    }

    #[test]
    fn generator_tables_hold_the_stated_multiples() {
        let g = Point::generator();
        let tables = generator_tables();
        let finite = |a: &Affine| Point::Affine { x: a.x, y: a.y };
        assert_eq!(tables.comb.len(), COMB_LEN);
        assert_eq!(tables.odd.len(), 1 << (WINDOW_G - 2));
        for (w, d) in [(0usize, 1u64), (0, 15), (1, 1), (7, 9), (63, 15)] {
            let k = Scalar::from_u256_reduced(U256::from_u64(d).shl(4 * w));
            assert_eq!(
                finite(&tables.comb[15 * w + d as usize - 1]),
                mul_binary(&g, &k)
            );
        }
        for i in [0usize, 1, 2, 100, tables.odd.len() - 1] {
            let k = Scalar::from_u64(2 * i as u64 + 1);
            assert_eq!(finite(&tables.odd[i]), mul_binary(&g, &k));
        }
        // These two are every static table there is (the λG half scales
        // `odd` on the fly); together they stay inside the 128 KiB budget.
        let GeneratorTables { comb, odd } = tables;
        let bytes = (comb.len() + odd.len()) * std::mem::size_of::<Affine>();
        assert!(bytes <= 128 * 1024, "{bytes} bytes of generator tables");
    }

    #[test]
    fn lincomb_exceptional_operands() {
        let g = Point::generator();
        let k = Scalar::from_u64(0xdead_beef);
        let p = mul_binary(&g, &Scalar::from_u64(77));
        let lincomb = Point::lincomb_with_generator;
        // Either scalar zero, P at infinity.
        assert_eq!(lincomb(&Scalar::ZERO, &Scalar::ZERO, &p), Point::Infinity);
        assert_eq!(lincomb(&k, &Scalar::ZERO, &p), mul_binary(&g, &k));
        assert_eq!(lincomb(&Scalar::ZERO, &k, &p), mul_binary(&p, &k));
        assert_eq!(lincomb(&k, &k, &Point::Infinity), mul_binary(&g, &k));
        // P = ±G: the two tables hold the same (or opposite) points, so the
        // accumulator meets its own table entry.
        assert_eq!(lincomb(&k, &k, &g), mul_binary(&g, &k.add(&k)));
        assert_eq!(lincomb(&k, &k, &g.neg()), Point::Infinity);
        assert_eq!(lincomb(&Scalar::ONE, &Scalar::ONE, &g), g.double());
        // P = ±λG, ±λ²G: P's table (or its β-scaled copy) coincides with
        // G's β-scaled (or plain) one.
        let lambda2 = LAMBDA.mul(&LAMBDA);
        for (m, full) in [(LAMBDA, k), (lambda2, k), (LAMBDA, k.invert())] {
            let q = mul_binary(&g, &m);
            let sum = full.add(&full.mul(&m));
            assert_eq!(lincomb(&full, &full, &q), mul_binary(&g, &sum));
            assert_eq!(
                lincomb(&full, &full, &q.neg()),
                mul_binary(&g, &full.sub(&full.mul(&m)))
            );
            // a·G = −b·P on those points.
            assert_eq!(lincomb(&full.mul(&m).neg(), &full, &q), Point::Infinity);
            assert_eq!(lincomb(&full.mul(&m), &full, &q.neg()), Point::Infinity);
        }
        // a·G = −b·P with P ≠ ±G.
        let b = Scalar::from_u64(5);
        let a = b.mul(&Scalar::from_u64(77)).neg();
        assert_eq!(lincomb(&a, &b, &p), Point::Infinity);
    }

    #[test]
    fn double_matches_add() {
        let g = Point::generator();
        assert_eq!(g.double(), g.add(&g));
        let four_g_a = g.double().double();
        let four_g_b = g.mul(&Scalar::from_u64(4));
        assert_eq!(four_g_a, four_g_b);
    }

    #[test]
    fn two_g_known_x() {
        let two_g = Point::generator().double();
        assert_eq!(
            two_g.x().unwrap().to_u256().to_hex(),
            "0xc6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert!(two_g.is_on_curve());
    }

    #[test]
    fn order_times_generator_is_infinity() {
        let n_minus_1 = Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE));
        let g = Point::generator();
        let p = g.mul(&n_minus_1);
        // (n−1)·G = −G, so adding G gives infinity.
        assert_eq!(p, g.neg());
        assert!(p.add(&g).is_infinity());
    }

    #[test]
    fn zero_scalar_gives_infinity() {
        assert!(Point::generator().mul(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn infinity_is_identity() {
        let g = Point::generator();
        assert_eq!(g.add(&Point::Infinity), g);
        assert_eq!(Point::Infinity.add(&g), g);
        assert!(Point::Infinity.double().is_infinity());
        assert!(Point::Infinity.is_on_curve());
    }

    #[test]
    fn add_inverse_gives_infinity() {
        let g = Point::generator();
        assert!(g.add(&g.neg()).is_infinity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = Point::generator();
        let a = Scalar::from_u64(123456789);
        let b = Scalar::from_u64(987654321);
        let lhs = g.mul(&a.add(&b));
        let rhs = g.mul(&a).add(&g.mul(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_associates() {
        let g = Point::generator();
        let a = Scalar::from_u64(31337);
        let b = Scalar::from_u64(271828);
        assert_eq!(g.mul(&a).mul(&b), g.mul(&a.mul(&b)));
    }

    #[test]
    fn uncompressed_roundtrip() {
        let p = Point::generator().mul(&Scalar::from_u64(7));
        let enc = sec1_uncompressed(&p.x().unwrap(), &p.y().unwrap());
        assert_eq!(Point::decode(&enc).unwrap(), p);
    }

    #[test]
    fn compressed_roundtrip_both_parities() {
        for k in 1u64..20 {
            let p = Point::generator().mul(&Scalar::from_u64(k));
            let enc = p.encode_compressed().unwrap();
            assert_eq!(Point::decode(&enc).unwrap(), p, "k = {k}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Point::decode(&[]).is_err());
        assert!(Point::decode(&[0x05; 65]).is_err());
        assert!(Point::decode(&[0x04; 10]).is_err());
        // Valid tag but x not on curve (x = 5 has no square root for x³+7...
        // verified structurally: either decodes to on-curve point or errors).
        let mut bad = [0u8; 33];
        bad[0] = 0x02;
        bad[32] = 5;
        match Point::decode(&bad) {
            Ok(p) => assert!(p.is_on_curve()),
            Err(e) => assert_eq!(e, CryptoError::PointNotOnCurve),
        }
    }

    #[test]
    fn from_coordinates_validates() {
        let g = Point::generator();
        let (x, y) = (g.x().unwrap(), g.y().unwrap());
        assert!(Point::from_coordinates(x, y).is_ok());
        assert_eq!(
            Point::from_coordinates(x, y.add(&FieldElement::ONE)),
            Err(CryptoError::PointNotOnCurve)
        );
    }

    #[test]
    fn lincomb_matches_manual() {
        let g = Point::generator();
        let p = g.mul(&Scalar::from_u64(99));
        let a = Scalar::from_u64(17);
        let b = Scalar::from_u64(23);
        let expected = g.mul(&a).add(&p.mul(&b));
        assert_eq!(Point::lincomb_with_generator(&a, &b, &p), expected);
    }
}

#[cfg(test)]
mod windowed_tests {
    use super::*;
    use crate::u256::U256;

    #[test]
    fn windowed_matches_binary_for_structured_scalars() {
        let g = Point::generator();
        for k in [
            Scalar::from_u64(1),
            Scalar::from_u64(2),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_u64(17),
            Scalar::from_u64(0xffff_ffff),
            Scalar::from_u256_reduced(U256::ONE.shl(255)),
            Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE)),
            Scalar::from_u256_reduced(U256::MAX),
        ] {
            assert_eq!(g.mul(&k), mul_binary(&g, &k), "k = {k:?}");
        }
    }

    #[test]
    fn windowed_matches_binary_for_pseudorandom_scalars() {
        let g = Point::generator();
        let p = g.mul(&Scalar::from_u64(7919));
        let mut acc = [7u8; 32];
        for round in 0..10 {
            acc = crate::keccak::keccak256(&acc);
            let k = Scalar::from_digest(&acc);
            assert_eq!(p.mul(&k), mul_binary(&p, &k), "round {round}");
        }
    }
}

#[cfg(test)]
mod fixed_base_tests {
    use super::*;
    use crate::u256::U256;

    #[test]
    fn mul_generator_matches_generic_mul() {
        let g = Point::generator();
        let samples = [
            Scalar::from_u64(1),
            Scalar::from_u64(2),
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar::from_u64(255),
            Scalar::from_u64(u64::MAX),
            Scalar::from_u256_reduced(U256::ONE.shl(128)),
            Scalar::from_u256_reduced(U256::ONE.shl(255)),
            Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE)),
            Scalar::from_u256_reduced(U256::MAX),
        ];
        for k in samples {
            assert_eq!(Point::mul_generator(&k), g.mul(&k), "k = {k:?}");
        }
    }

    #[test]
    fn mul_generator_pseudorandom_agreement() {
        let g = Point::generator();
        let mut acc = [3u8; 32];
        for _ in 0..8 {
            acc = crate::keccak::keccak256(&acc);
            let k = Scalar::from_digest(&acc);
            assert_eq!(Point::mul_generator(&k), g.mul(&k));
        }
    }

    #[test]
    fn mul_generator_zero_is_infinity() {
        assert!(Point::mul_generator(&Scalar::ZERO).is_infinity());
    }
}
