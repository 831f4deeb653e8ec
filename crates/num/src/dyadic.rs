//! Exact dyadic rationals (binary-point numbers of finite representation).
//!
//! The paper chooses interval endpoints and scalar commodities to be *"binary-point
//! numbers of finite representation, i.e., a sum of powers of 2 with a finite number
//! of summands"* (Section 4). [`Dyadic`] is exactly that set of numbers, restricted
//! to non-negative values: `mantissa / 2^exponent` with an arbitrary-precision
//! mantissa.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::{BigUint, NumError};

/// The mantissa of a [`Dyadic`]: an inline machine word for the overwhelmingly
/// common case, spilling to an arbitrary-precision [`BigUint`] only when the
/// value genuinely needs more than 64 bits.
///
/// # Representation invariant
///
/// `Big` is used **iff** the mantissa does not fit in a `u64`. A mantissa that
/// fits is always stored as `Small`, so two equal values have identical
/// representations and the derived `PartialEq`/`Hash` are value-based.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Mantissa {
    /// Mantissa fits in a machine word — no heap allocation anywhere.
    Small(u64),
    /// Mantissa exceeds `u64::MAX` (more than 64 significant bits).
    Big(BigUint),
}

/// A non-negative dyadic rational `mantissa / 2^exponent`.
///
/// # Representation invariants
///
/// The value is kept in canonical form at all times:
///
/// 1. the mantissa is odd whenever `exponent > 0` (zero has `exponent == 0`), so
///    equal values have equal `(mantissa, exponent)` pairs;
/// 2. the mantissa is stored **inline as a `u64`** whenever it fits, and spills
///    to a heap-allocated [`BigUint`] only beyond 64 significant bits.
///
/// Invariant 2 is the small-value fast path: comparisons, `+`, `-` and
/// normalisation of inline values run branch-cheap `u64`/`u128` arithmetic
/// and **never allocate**. Interval endpoints do not always stay inline: each
/// canonical partition appends `O(log d)` bits, so endpoints grow with the
/// depth of the network. Over the scheduler battery on the `sweep-cyclic`
/// benchmark networks (random cyclic graphs of 20–50 vertices), 6 % of the
/// labelling, general-broadcast and mapping sends carry an endpoint of 65 to
/// 115 bits, and on the paper's chain family `G_n` at `n = 256` endpoints
/// reach 511 bits. (Inside an [`crate::IntervalUnion`], endpoints of up to
/// 127 fractional bits are stored as fixed-point words instead, so these
/// spills happen only where a union is converted back to dyadics.) The
/// `BigUint` spill path
/// preserves exactness for arbitrarily deep values, and comparing a spilled
/// value never allocates: operands with one leading-bit position compare
/// their top-aligned mantissa bits a word at a time. The two representations
/// never coexist for the same value, so equality and hashing stay
/// value-based. The always-heap implementations are retained in
/// [`crate::reference`] for differential testing.
///
/// # Example
///
/// ```
/// use anet_num::Dyadic;
///
/// let half = Dyadic::from_pow2_neg(1);
/// let quarter = Dyadic::from_pow2_neg(2);
/// assert_eq!(&half + &quarter, Dyadic::from_u64_parts(3, 2)); // 3/4
/// assert!(quarter < half);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dyadic {
    mantissa: Mantissa,
    exponent: u32,
}

impl Mantissa {
    /// Bits `[start, start + 64)` of the mantissa; positions below zero or
    /// above the top bit read as zero.
    #[inline]
    fn window64(&self, start: i64) -> u64 {
        match self {
            Mantissa::Small(m) => match start {
                s if s <= -64 || s >= 64 => 0,
                s if s < 0 => m << -s,
                s => m >> s,
            },
            Mantissa::Big(b) => b.window64(start),
        }
    }
}

/// Bit length of a non-zero `u64` mantissa.
#[inline]
fn bit_len_u64(m: u64) -> u32 {
    u64::BITS - m.leading_zeros()
}

impl Dyadic {
    /// The value zero.
    #[inline]
    pub fn zero() -> Self {
        Dyadic {
            mantissa: Mantissa::Small(0),
            exponent: 0,
        }
    }

    /// The value one.
    #[inline]
    pub fn one() -> Self {
        Dyadic {
            mantissa: Mantissa::Small(1),
            exponent: 0,
        }
    }

    /// Builds `mantissa / 2^exponent`, normalising to canonical form (this
    /// includes demoting a heap mantissa that fits in a `u64` to the inline
    /// representation).
    pub fn from_parts(mantissa: BigUint, exponent: u32) -> Self {
        match mantissa.to_u64() {
            Some(small) => Dyadic::from_u64_parts(small, exponent),
            None => {
                let mut d = Dyadic {
                    mantissa: Mantissa::Big(mantissa),
                    exponent,
                };
                d.normalize_big();
                d
            }
        }
    }

    /// Builds `mantissa / 2^exponent` from an inline mantissa — the
    /// allocation-free constructor for endpoints with at most 64 mantissa bits.
    #[inline]
    pub fn from_u64_parts(mantissa: u64, exponent: u32) -> Self {
        if mantissa == 0 {
            return Dyadic::zero();
        }
        let reduce = (mantissa.trailing_zeros()).min(exponent);
        Dyadic {
            mantissa: Mantissa::Small(mantissa >> reduce),
            exponent: exponent - reduce,
        }
    }

    /// `self · 2^bits` (for `bits < 128`) when that product is an integer no
    /// larger than `2^bits`: the value lies in `[0, 1]` and has at most `bits`
    /// fractional bits. This is the fixed-point word an
    /// [`crate::IntervalUnion`] stores for such an endpoint.
    #[inline]
    pub(crate) fn to_fixed(&self, bits: u32) -> Option<u128> {
        let shift = bits.checked_sub(self.exponent)?;
        let m = match &self.mantissa {
            Mantissa::Small(m) => u128::from(*m),
            Mantissa::Big(b) => b.to_u128()?,
        };
        // m / 2^e <= 1 exactly when m <= 2^e, and then m · 2^shift <= 2^bits.
        (m <= 1 << self.exponent).then(|| m << shift)
    }

    /// The value `word / 2^bits`: the inverse of [`Dyadic::to_fixed`].
    #[inline]
    pub(crate) fn from_fixed(word: u128, bits: u32) -> Self {
        Dyadic::from_u128_parts(word, bits)
    }

    /// Builds `mantissa / 2^exponent` from a double-word intermediate, spilling
    /// to the heap only when more than 64 bits survive normalisation.
    #[inline]
    fn from_u128_parts(mantissa: u128, exponent: u32) -> Self {
        if mantissa == 0 {
            return Dyadic::zero();
        }
        let reduce = (mantissa.trailing_zeros()).min(exponent);
        let m = mantissa >> reduce;
        let exponent = exponent - reduce;
        match u64::try_from(m) {
            Ok(small) => Dyadic {
                mantissa: Mantissa::Small(small),
                exponent,
            },
            Err(_) => Dyadic {
                mantissa: Mantissa::Big(BigUint::from_u128(m)),
                exponent,
            },
        }
    }

    /// Returns `2^-k`, the commodity value after `k` binary halvings.
    #[inline]
    pub fn from_pow2_neg(k: u32) -> Self {
        Dyadic {
            mantissa: Mantissa::Small(1),
            exponent: k,
        }
    }

    /// Builds a dyadic from an integer.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Dyadic {
            mantissa: Mantissa::Small(v),
            exponent: 0,
        }
    }

    /// Restores canonical form for a heap mantissa: strips the trailing zeros
    /// covered by the exponent and demotes to the inline representation when 64
    /// bits suffice.
    fn normalize_big(&mut self) {
        let Mantissa::Big(big) = &self.mantissa else {
            return;
        };
        if big.is_zero() {
            self.mantissa = Mantissa::Small(0);
            self.exponent = 0;
            return;
        }
        if let Some(tz) = big.trailing_zeros() {
            let reduce = u32::try_from(tz).unwrap_or(u32::MAX).min(self.exponent);
            if reduce > 0 {
                let reduced = big >> reduce;
                self.exponent -= reduce;
                self.mantissa = match reduced.to_u64() {
                    Some(small) => Mantissa::Small(small),
                    None => Mantissa::Big(reduced),
                };
                return;
            }
        }
        if let Some(small) = big.to_u64() {
            self.mantissa = Mantissa::Small(small);
        }
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.mantissa, Mantissa::Small(0))
    }

    /// Returns `true` if the value is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.exponent == 0 && matches!(self.mantissa, Mantissa::Small(1))
    }

    /// The canonical (odd or zero) mantissa, widened to a [`BigUint`].
    ///
    /// This is a reporting/interop accessor: it allocates when the mantissa is
    /// inline. Hot paths use [`Dyadic::mantissa_bit_len`] or
    /// [`Dyadic::inline_mantissa`] instead.
    pub fn mantissa(&self) -> BigUint {
        match &self.mantissa {
            Mantissa::Small(m) => BigUint::from(*m),
            Mantissa::Big(b) => b.clone(),
        }
    }

    /// The inline mantissa, when the value is on the small-value fast path.
    #[inline]
    pub fn inline_mantissa(&self) -> Option<u64> {
        match &self.mantissa {
            Mantissa::Small(m) => Some(*m),
            Mantissa::Big(_) => None,
        }
    }

    /// Returns `true` while the mantissa is stored inline (≤ 64 significant
    /// bits — no heap allocation held by this value).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.mantissa, Mantissa::Small(_))
    }

    /// Number of significant bits of the mantissa (`0` for zero).
    #[inline]
    pub fn mantissa_bit_len(&self) -> u64 {
        match &self.mantissa {
            Mantissa::Small(0) => 0,
            Mantissa::Small(m) => u64::from(bit_len_u64(*m)),
            Mantissa::Big(b) => b.bit_len(),
        }
    }

    /// The canonical exponent: the number of bits after the binary point.
    #[inline]
    pub fn exponent(&self) -> u32 {
        self.exponent
    }

    /// Returns `true` if the value is an exact (non-negative) power of two,
    /// including `1 = 2^0`. Zero is not a power of two.
    #[inline]
    pub fn is_pow2(&self) -> bool {
        matches!(self.mantissa, Mantissa::Small(1))
    }

    /// For a power of two `2^-k` (with `k >= 0`), returns `k`. Returns `None` for
    /// any other value (including values `> 1`).
    #[inline]
    pub fn pow2_neg_exponent(&self) -> Option<u32> {
        if self.is_pow2() {
            Some(self.exponent)
        } else {
            None
        }
    }

    /// The aligned big-mantissa pair `(a << (e - ea), b << (e - eb))` with
    /// `e = max(ea, eb)` — the slow path shared by addition and subtraction
    /// when either operand has spilled to the heap.
    fn aligned_big(&self, other: &Dyadic) -> (BigUint, BigUint, u32) {
        let exp = self.exponent.max(other.exponent);
        let a = self.mantissa() << (exp - self.exponent);
        let b = other.mantissa() << (exp - other.exponent);
        (a, b, exp)
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Underflow`] when `other > self`.
    pub fn checked_sub(&self, other: &Dyadic) -> Result<Dyadic, NumError> {
        if let (Mantissa::Small(ma), Mantissa::Small(mb)) = (&self.mantissa, &other.mantissa) {
            let exp = self.exponent.max(other.exponent);
            let sa = exp - self.exponent;
            let sb = exp - other.exponent;
            if sa < 64 && sb < 64 {
                let va = u128::from(*ma) << sa;
                let vb = u128::from(*mb) << sb;
                return match va.checked_sub(vb) {
                    Some(diff) => Ok(Dyadic::from_u128_parts(diff, exp)),
                    None => Err(NumError::Underflow),
                };
            }
        }
        let (a, b, exp) = self.aligned_big(other);
        Ok(Dyadic::from_parts(a.checked_sub(&b)?, exp))
    }

    /// Divides by `2^k` exactly.
    #[inline]
    pub fn div_pow2(&self, k: u32) -> Dyadic {
        if self.is_zero() {
            return Dyadic::zero();
        }
        if self.exponent == 0 {
            // An integer may have an even mantissa; renormalise so the new
            // positive exponent keeps the mantissa odd.
            return match &self.mantissa {
                Mantissa::Small(m) => Dyadic::from_u64_parts(*m, k),
                Mantissa::Big(b) => Dyadic::from_parts(b.clone(), k),
            };
        }
        // Canonical with a positive exponent means the mantissa is already odd.
        Dyadic {
            mantissa: self.mantissa.clone(),
            exponent: self
                .exponent
                .checked_add(k)
                .expect("dyadic exponent overflow"),
        }
    }

    /// Multiplies by `2^k` exactly.
    pub fn mul_pow2(&self, k: u32) -> Dyadic {
        if self.is_zero() {
            return Dyadic::zero();
        }
        if k <= self.exponent {
            return Dyadic {
                mantissa: self.mantissa.clone(),
                exponent: self.exponent - k,
            };
        }
        let shift = k - self.exponent;
        match &self.mantissa {
            Mantissa::Small(m) if shift <= 64 => {
                Dyadic::from_u128_parts(u128::from(*m) << shift, 0)
            }
            _ => Dyadic::from_parts(self.mantissa() << shift, 0),
        }
    }

    /// Halves the value exactly.
    #[inline]
    pub fn halve(&self) -> Dyadic {
        self.div_pow2(1)
    }

    /// Multiplies by a small integer exactly.
    pub fn mul_u32(&self, factor: u32) -> Dyadic {
        match &self.mantissa {
            Mantissa::Small(m) => {
                Dyadic::from_u128_parts(u128::from(*m) * u128::from(factor), self.exponent)
            }
            Mantissa::Big(b) => Dyadic::from_parts(b.mul_small(factor), self.exponent),
        }
    }

    /// Approximate `f64` value (for reporting only; never used in protocol logic).
    pub fn to_f64(&self) -> f64 {
        let m = match &self.mantissa {
            Mantissa::Small(m) => *m as f64,
            Mantissa::Big(b) => b.to_f64(),
        };
        m / 2f64.powi(self.exponent as i32)
    }

    /// Number of bits in a positional binary-point representation of the value:
    /// the bits of the integer part plus the bits after the binary point.
    ///
    /// This is the size the paper ascribes to an interval endpoint: the endpoint is
    /// "written down" as a binary expansion, and each canonical partition appends
    /// `O(log k)` further bits to it (Theorem 4.3).
    pub fn positional_bits(&self) -> u64 {
        let bits = self.mantissa_bit_len();
        let int_bits = bits.saturating_sub(u64::from(self.exponent));
        int_bits + u64::from(self.exponent)
    }

    /// Renders the value as a binary-point expansion, e.g. `0.1011` or `1.0`.
    pub fn to_binary_string(&self) -> String {
        if self.is_zero() {
            return "0.0".to_owned();
        }
        let mantissa = self.mantissa();
        let int_part = &mantissa >> self.exponent;
        let frac = if self.exponent == 0 {
            BigUint::zero()
        } else {
            // mantissa mod 2^exponent
            mantissa
                .checked_sub(&(&int_part << self.exponent))
                .expect("int part <= value")
        };
        let mut s = format!("{int_part:b}.");
        if self.exponent == 0 {
            s.push('0');
        } else {
            for i in (0..self.exponent).rev() {
                s.push(if frac.bit(u64::from(i)) { '1' } else { '0' });
            }
        }
        s
    }
}

impl Default for Dyadic {
    fn default() -> Self {
        Dyadic::zero()
    }
}

impl Ord for Dyadic {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let (Mantissa::Small(ma), Mantissa::Small(mb)) = (&self.mantissa, &other.mantissa) else {
            if self.exponent == other.exponent {
                // Equal scales compare by mantissa alone; a spilled mantissa
                // always exceeds an inline one (> 64 significant bits vs at
                // most 64).
                return match (&self.mantissa, &other.mantissa) {
                    (Mantissa::Big(a), Mantissa::Big(b)) => a.cmp(b),
                    (Mantissa::Big(_), _) => Ordering::Greater,
                    _ => Ordering::Less,
                };
            }
            return self.cmp_spilled(other);
        };
        let (ma, mb) = (*ma, *mb);
        if self.exponent == other.exponent || ma == 0 || mb == 0 {
            return ma.cmp(&mb);
        }
        // Compare the binary-point position of the leading bit first; only
        // equal magnitudes need aligned mantissas, and then the exponent
        // difference equals the bit-length difference, < 64.
        let pa = i64::from(bit_len_u64(ma)) - i64::from(self.exponent);
        let pb = i64::from(bit_len_u64(mb)) - i64::from(other.exponent);
        if pa != pb {
            return pa.cmp(&pb);
        }
        if self.exponent >= other.exponent {
            u128::from(ma).cmp(&(u128::from(mb) << (self.exponent - other.exponent)))
        } else {
            (u128::from(ma) << (other.exponent - self.exponent)).cmp(&u128::from(mb))
        }
    }
}

impl Dyadic {
    /// [`Ord::cmp`] when at least one mantissa spilled to the heap and the
    /// exponents differ — kept out of line so the common comparisons stay
    /// small enough to inline into the interval merges. Allocation-free.
    #[inline(never)]
    fn cmp_spilled(&self, other: &Dyadic) -> Ordering {
        // The spilled operand is non-zero; the inline side may still be zero,
        // which the leading-bit position formula below does not cover.
        if self.is_zero() {
            return Ordering::Less;
        }
        if other.is_zero() {
            return Ordering::Greater;
        }
        // Mixed scales: the magnitude pre-check usually decides.
        let (la, lb) = (self.mantissa_bit_len(), other.mantissa_bit_len());
        let pa = i128::from(la) - i128::from(self.exponent);
        let pb = i128::from(lb) - i128::from(other.exponent);
        if pa != pb {
            return pa.cmp(&pb);
        }
        // Same leading-bit position: the values compare as their mantissas'
        // bit strings aligned at the top, read 64 bits at a time through limb
        // windows — no aligned copies allocated.
        let (la, lb) = (la as i64, lb as i64);
        let mut below_top = 0i64;
        while below_top < la.max(lb) {
            below_top += 64;
            let ord = self
                .mantissa
                .window64(la - below_top)
                .cmp(&other.mantissa.window64(lb - below_top));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Dyadic {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Dyadic {
    type Output = Dyadic;
    fn add(self, rhs: &Dyadic) -> Dyadic {
        if let (Mantissa::Small(ma), Mantissa::Small(mb)) = (&self.mantissa, &rhs.mantissa) {
            let exp = self.exponent.max(rhs.exponent);
            let sa = exp - self.exponent;
            let sb = exp - rhs.exponent;
            if sa < 64 && sb < 64 {
                // Each summand is < 2^127, so the u128 sum cannot overflow.
                let sum = (u128::from(*ma) << sa) + (u128::from(*mb) << sb);
                return Dyadic::from_u128_parts(sum, exp);
            }
        }
        let (a, b, exp) = self.aligned_big(rhs);
        Dyadic::from_parts(&a + &b, exp)
    }
}

impl Add for Dyadic {
    type Output = Dyadic;
    fn add(self, rhs: Dyadic) -> Dyadic {
        &self + &rhs
    }
}

impl AddAssign<&Dyadic> for Dyadic {
    fn add_assign(&mut self, rhs: &Dyadic) {
        *self = &*self + rhs;
    }
}

impl Sub for &Dyadic {
    type Output = Dyadic;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`Dyadic::checked_sub`] for a fallible version.
    fn sub(self, rhs: &Dyadic) -> Dyadic {
        self.checked_sub(rhs)
            .expect("Dyadic subtraction underflow; use checked_sub")
    }
}

impl Sub for Dyadic {
    type Output = Dyadic;
    fn sub(self, rhs: Dyadic) -> Dyadic {
        &self - &rhs
    }
}

impl Mul for &Dyadic {
    type Output = Dyadic;
    fn mul(self, rhs: &Dyadic) -> Dyadic {
        let exp = self
            .exponent
            .checked_add(rhs.exponent)
            .expect("dyadic exponent overflow");
        if let (Mantissa::Small(ma), Mantissa::Small(mb)) = (&self.mantissa, &rhs.mantissa) {
            return Dyadic::from_u128_parts(u128::from(*ma) * u128::from(*mb), exp);
        }
        Dyadic::from_parts(&self.mantissa() * &rhs.mantissa(), exp)
    }
}

impl fmt::Display for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.mantissa, self.exponent) {
            (Mantissa::Small(m), 0) => write!(f, "{m}"),
            (Mantissa::Small(m), e) => write!(f, "{m}/2^{e}"),
            (Mantissa::Big(b), 0) => write!(f, "{b}"),
            (Mantissa::Big(b), e) => write!(f, "{b}/2^{e}"),
        }
    }
}

impl fmt::Debug for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dyadic({self} ≈ {})", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_enforced() {
        let d = Dyadic::from_parts(BigUint::from(4u64), 3); // 4/8 = 1/2
        assert_eq!(d, Dyadic::from_pow2_neg(1));
        assert_eq!(d.exponent(), 1);
        assert!(d.mantissa().is_one());
        assert_eq!(d.inline_mantissa(), Some(1));
    }

    #[test]
    fn zero_normalizes_exponent() {
        let d = Dyadic::from_parts(BigUint::zero(), 17);
        assert!(d.is_zero());
        assert_eq!(d.exponent(), 0);
        assert_eq!(d, Dyadic::default());
        assert_eq!(Dyadic::from_u64_parts(0, 9), Dyadic::zero());
    }

    #[test]
    fn halving_chain_matches_pow2() {
        let mut x = Dyadic::one();
        for k in 1..=64u32 {
            x = x.halve();
            assert_eq!(x, Dyadic::from_pow2_neg(k));
            assert!(x.is_pow2());
            assert_eq!(x.pow2_neg_exponent(), Some(k));
        }
    }

    #[test]
    fn addition_of_halves_is_one() {
        let h = Dyadic::from_pow2_neg(1);
        assert!((&h + &h).is_one());
        let q = Dyadic::from_pow2_neg(2);
        assert_eq!(&(&q + &q) + &h, Dyadic::one());
    }

    #[test]
    fn addition_with_different_exponents() {
        // 3/8 + 1/4 = 5/8
        let a = Dyadic::from_u64_parts(3, 3);
        let b = Dyadic::from_pow2_neg(2);
        assert_eq!(&a + &b, Dyadic::from_u64_parts(5, 3));
    }

    #[test]
    fn subtraction_and_underflow() {
        let a = Dyadic::from_u64_parts(5, 3);
        let b = Dyadic::from_pow2_neg(3);
        assert_eq!(&a - &b, Dyadic::from_pow2_neg(1));
        assert_eq!(b.checked_sub(&a), Err(NumError::Underflow));
    }

    #[test]
    fn ordering_matches_value() {
        let third_ish = Dyadic::from_u64_parts(341, 10); // ~0.333
        let half = Dyadic::from_pow2_neg(1);
        assert!(third_ish < half);
        assert!(half > third_ish);
        assert!(Dyadic::zero() < third_ish);
        assert!(half < Dyadic::one());
    }

    #[test]
    fn ordering_across_far_exponents() {
        // Exponent gaps larger than a word must still compare correctly.
        let tiny = Dyadic::from_pow2_neg(500);
        let small = Dyadic::from_u64_parts(3, 2);
        assert!(tiny < small);
        assert!(small > tiny);
        assert_eq!(tiny.cmp(&tiny), Ordering::Equal);
        assert_eq!((&tiny + &small).checked_sub(&small).unwrap(), tiny);
    }

    #[test]
    fn multiplication_is_exact() {
        let a = Dyadic::from_u64_parts(3, 2); // 3/4
        let b = Dyadic::from_u64_parts(5, 3); // 5/8
        assert_eq!(&a * &b, Dyadic::from_u64_parts(15, 5));
    }

    #[test]
    fn mul_div_pow2_round_trip() {
        let a = Dyadic::from_u64_parts(7, 5);
        assert_eq!(a.div_pow2(3).mul_pow2(3), a);
        assert_eq!(a.mul_pow2(5), Dyadic::from_u64(7));
        assert_eq!(a.mul_pow2(7), Dyadic::from_u64(28));
        assert_eq!(Dyadic::zero().mul_pow2(10), Dyadic::zero());
    }

    #[test]
    fn mul_u32_matches_repeated_add() {
        let a = Dyadic::from_pow2_neg(4);
        let mut acc = Dyadic::zero();
        for _ in 0..5 {
            acc += &a;
        }
        assert_eq!(a.mul_u32(5), acc);
    }

    #[test]
    fn inline_heap_boundary_round_trips() {
        // u64::MAX stays inline; one more bit spills to the heap; halving the
        // spilled value back below 64 bits demotes it to inline again.
        let max = Dyadic::from_u64(u64::MAX);
        assert!(max.is_inline());
        let spilled = &max + &Dyadic::one();
        assert!(!spilled.is_inline());
        assert_eq!(spilled.mantissa(), BigUint::pow2(64));
        assert_eq!(&spilled - &Dyadic::one(), max);
        // 2^64 has a single set bit: dividing by 2^64 renormalises to 1 inline.
        let back = spilled.div_pow2(64);
        assert!(back.is_inline());
        assert!(back.is_one());
        // A genuinely odd wide mantissa stays on the heap through add/sub.
        let wide = Dyadic::from_parts(BigUint::pow2(80) + BigUint::one(), 90);
        assert!(!wide.is_inline());
        let doubled = &wide + &wide;
        assert!(!doubled.is_inline());
        assert_eq!(doubled, wide.mul_pow2(1));
        assert_eq!(doubled.checked_sub(&wide).unwrap(), wide);
    }

    #[test]
    fn zero_orders_below_heap_values() {
        // Regression: the mixed-representation magnitude pre-check must not be
        // applied to zero (its leading-bit position is undefined).
        let heap = Dyadic::from_parts(BigUint::pow2(66) + BigUint::one(), 69);
        assert!(!heap.is_inline());
        assert!(Dyadic::zero() < heap);
        assert!(heap > Dyadic::zero());
        assert_eq!(Dyadic::zero().cmp(&heap), Ordering::Less);
        assert_eq!(heap.cmp(&Dyadic::zero()), Ordering::Greater);
    }

    #[test]
    fn equal_magnitude_comparisons_read_below_the_top_word() {
        // Pairs sharing a leading-bit position that first differ 1, 64, 65
        // and 150 bits below it, inline against heap and heap against heap.
        let top = BigUint::pow2(160);
        for gap in [1u32, 63, 64, 65, 150] {
            let a = Dyadic::from_parts(&top + &BigUint::one(), 170);
            let b = Dyadic::from_parts(&(&top + &BigUint::pow2(160 - gap)) + &BigUint::one(), 170);
            assert_eq!(a.cmp(&b), Ordering::Less, "gap {gap}");
            assert_eq!(b.cmp(&a), Ordering::Greater, "gap {gap}");
            // The same values with the exponent scaled differently.
            let wide = Dyadic::from_parts(&b.mantissa() << 7, 177);
            assert_eq!(wide, b);
            assert_eq!(a.cmp(&wide), Ordering::Less, "gap {gap}");
        }
        // An inline value against a heap value of the same magnitude.
        let inline = Dyadic::from_u64_parts(5, 4); // 0.0101
        let just_above = Dyadic::from_parts(&(BigUint::from(5u64) << 80) + &BigUint::one(), 84);
        let just_below = Dyadic::from_parts(&(BigUint::from(5u64) << 80) - &BigUint::one(), 84);
        assert!(!just_above.is_inline() && !just_below.is_inline());
        assert_eq!(inline.cmp(&just_above), Ordering::Less);
        assert_eq!(just_above.cmp(&inline), Ordering::Greater);
        assert_eq!(inline.cmp(&just_below), Ordering::Greater);
        assert_eq!(just_below.cmp(&inline), Ordering::Less);
        assert_eq!(just_above.cmp(&just_above.clone()), Ordering::Equal);
    }

    #[test]
    fn mixed_representation_arithmetic_is_exact() {
        let big = Dyadic::from_parts(BigUint::pow2(70) + BigUint::one(), 75);
        let small = Dyadic::from_pow2_neg(75);
        let sum = &big + &small;
        assert_eq!(sum.checked_sub(&small).unwrap(), big);
        assert!(big > small);
        assert!(small < big);
        assert_eq!(&big * &Dyadic::one(), big);
    }

    #[test]
    fn positional_bits_counts_point_expansion() {
        assert_eq!(Dyadic::zero().positional_bits(), 0);
        assert_eq!(Dyadic::one().positional_bits(), 1);
        assert_eq!(Dyadic::from_pow2_neg(7).positional_bits(), 7);
        // 5/8 = 0.101 needs 3 fractional bits.
        assert_eq!(Dyadic::from_u64_parts(5, 3).positional_bits(), 3);
        // 3 = 11 binary needs 2 bits.
        assert_eq!(Dyadic::from_u64(3).positional_bits(), 2);
    }

    #[test]
    fn binary_string_rendering() {
        assert_eq!(Dyadic::zero().to_binary_string(), "0.0");
        assert_eq!(Dyadic::one().to_binary_string(), "1.0");
        assert_eq!(Dyadic::from_pow2_neg(2).to_binary_string(), "0.01");
        assert_eq!(Dyadic::from_u64_parts(5, 3).to_binary_string(), "0.101");
    }

    #[test]
    fn to_f64_is_close() {
        let d = Dyadic::from_u64_parts(5, 3);
        assert!((d.to_f64() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dyadic::from_u64(3).to_string(), "3");
        assert_eq!(Dyadic::from_pow2_neg(3).to_string(), "1/2^3");
        assert!(!format!("{:?}", Dyadic::zero()).is_empty());
        let big = Dyadic::from_parts(BigUint::pow2(70), 90);
        assert_eq!(big.to_string(), "1/2^20");
        let wide = Dyadic::from_parts(BigUint::pow2(70) + BigUint::one(), 1);
        assert!(wide.to_string().contains("/2^1"));
    }
}
