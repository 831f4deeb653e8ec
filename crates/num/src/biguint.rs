//! Arbitrary-precision natural numbers.
//!
//! The commodities transmitted by the paper's protocols shrink geometrically with
//! network depth (`x / 2^⌈log d⌉` per hop, or `x / d` for the naive rule), so their
//! exact numerators and denominators quickly exceed machine words. This module
//! provides a small, dependency-free unsigned bignum sufficient for the protocols
//! and for measuring representation sizes: addition, subtraction, multiplication,
//! shifts, full division with remainder, gcd and bit-level inspection.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Shl, Shr, Sub, SubAssign};

use crate::NumError;

/// Limb type: 32-bit limbs with 64-bit intermediates keep the implementation simple
/// and portable while being fast enough for the protocol sizes exercised here.
type Limb = u32;
type DoubleLimb = u64;
const LIMB_BITS: u32 = 32;

/// An arbitrary-precision natural number (non-negative integer).
///
/// Stored as little-endian limbs with no trailing zero limbs (canonical form);
/// zero is the empty limb vector.
///
/// # Example
///
/// ```
/// use anet_num::BigUint;
///
/// let a = BigUint::from(1u64 << 40);
/// let b = &a * &a;
/// assert_eq!(b.bit_len(), 81);
/// assert_eq!(b >> 40, a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<Limb>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `2^k`.
    pub fn pow2(k: u32) -> Self {
        BigUint::one() << k
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even. Zero is considered even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of bits in the minimal binary representation (`0` for zero).
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * u64::from(LIMB_BITS)
                    + u64::from(LIMB_BITS - top.leading_zeros())
            }
        }
    }

    /// Returns bit `i` (little-endian; bit 0 is the least significant).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / u64::from(LIMB_BITS)) as usize;
        let off = (i % u64::from(LIMB_BITS)) as u32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * u64::from(LIMB_BITS) + u64::from(l.trailing_zeros()));
            }
        }
        None
    }

    /// Bits `[start, start + 64)` of the value as a `u64`; positions below
    /// zero or at or above [`BigUint::bit_len`] read as zero. A limb window
    /// lets differently aligned values be compared a word at a time without
    /// materialising shifted copies.
    pub(crate) fn window64(&self, start: i64) -> u64 {
        if start <= -64 {
            return 0;
        }
        if start < 0 {
            return self.window64(0) << -start;
        }
        let limb = (start / i64::from(LIMB_BITS)) as usize;
        let off = (start % i64::from(LIMB_BITS)) as u32;
        let get = |i: usize| u128::from(self.limbs.get(i).copied().unwrap_or(0));
        ((get(limb) | get(limb + 1) << LIMB_BITS | get(limb + 2) << (2 * LIMB_BITS)) >> off) as u64
    }

    /// Builds a value from a `u128` (the widest intermediate the inline dyadic
    /// fast path produces).
    pub fn from_u128(v: u128) -> Self {
        let mut out = BigUint {
            limbs: vec![
                v as Limb,
                (v >> 32) as Limb,
                (v >> 64) as Limb,
                (v >> 96) as Limb,
            ],
        };
        out.normalize();
        out
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut acc: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            acc |= u128::from(l) << (32 * i);
        }
        Some(acc)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u64::from(self.limbs[0])),
            2 => Some(u64::from(self.limbs[0]) | (u64::from(self.limbs[1]) << 32)),
            _ => None,
        }
    }

    /// Approximate conversion to `f64` (saturates to `f64::INFINITY` when too large).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &l in self.limbs.iter().rev() {
            acc = acc * (DoubleLimb::from(u32::MAX) as f64 + 1.0) + f64::from(l);
            if acc.is_infinite() {
                return f64::INFINITY;
            }
        }
        acc
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Checked subtraction; returns an error instead of underflowing.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Underflow`] when `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Result<BigUint, NumError> {
        if other > self {
            return Err(NumError::Underflow);
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let a = i64::from(self.limbs[i]);
            let b = i64::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut d = a - b - borrow;
            if d < 0 {
                d += i64::from(u32::MAX) + 1;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(d as Limb);
        }
        debug_assert_eq!(borrow, 0);
        let mut out = BigUint { limbs };
        out.normalize();
        Ok(out)
    }

    /// Division with remainder.
    ///
    /// Uses simple binary long division: `O(n²)` in the bit length, which is ample
    /// for the operand sizes produced by the protocols.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DivisionByZero`] when `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), NumError> {
        if divisor.is_zero() {
            return Err(NumError::DivisionByZero);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if divisor.is_one() {
            return Ok((self.clone(), BigUint::zero()));
        }
        // Fast path: single-limb divisor.
        if divisor.limbs.len() == 1 {
            let d = DoubleLimb::from(divisor.limbs[0]);
            let mut rem: DoubleLimb = 0;
            let mut q = vec![0 as Limb; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << LIMB_BITS) | DoubleLimb::from(self.limbs[i]);
                q[i] = (cur / d) as Limb;
                rem = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return Ok((quotient, BigUint::from(rem as u64)));
        }
        // General case: shift-and-subtract long division.
        let shift = self.bit_len() - divisor.bit_len();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut current = divisor.clone() << (shift as u32);
        for i in (0..=shift).rev() {
            if current <= remainder {
                remainder = remainder
                    .checked_sub(&current)
                    .expect("current <= remainder by comparison");
                quotient.set_bit(i);
            }
            current = current >> 1;
        }
        Ok((quotient, remainder))
    }

    fn set_bit(&mut self, i: u64) {
        let limb = (i / u64::from(LIMB_BITS)) as usize;
        let off = (i % u64::from(LIMB_BITS)) as u32;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Greatest common divisor (binary GCD). `gcd(0, 0) == 0`.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let az = a.trailing_zeros().unwrap_or(0);
        let bz = b.trailing_zeros().unwrap_or(0);
        let common = az.min(bz);
        a = a >> (az as u32);
        b = b >> (bz as u32);
        // Both odd from here on.
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            a = a.checked_sub(&b).expect("a >= b");
            if a.is_zero() {
                break;
            }
            let z = a.trailing_zeros().unwrap_or(0);
            a = a >> (z as u32);
        }
        if a.is_zero() {
            b << (common as u32)
        } else {
            a << (common as u32)
        }
    }

    /// Multiplies by a small factor in place.
    pub fn mul_small(&self, factor: u32) -> BigUint {
        if factor == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: DoubleLimb = 0;
        for &l in &self.limbs {
            let prod = DoubleLimb::from(l) * DoubleLimb::from(factor) + carry;
            limbs.push(prod as Limb);
            carry = prod >> LIMB_BITS;
        }
        if carry > 0 {
            limbs.push(carry as Limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Raises `self` to the power `exp` by repeated squaring.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Parse`] if the string is empty or contains non-digits.
    pub fn from_decimal_str(s: &str) -> Result<BigUint, NumError> {
        if s.is_empty() {
            return Err(NumError::Parse("empty string".to_owned()));
        }
        let mut acc = BigUint::zero();
        for c in s.chars() {
            let d = c
                .to_digit(10)
                .ok_or_else(|| NumError::Parse(format!("invalid digit {c:?}")))?;
            acc = acc.mul_small(10);
            acc += BigUint::from(d as u64);
        }
        Ok(acc)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        let mut out = BigUint {
            limbs: vec![v as Limb, (v >> 32) as Limb],
        };
        out.normalize();
        out
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(u64::from(v))
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let mut limbs = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry: DoubleLimb = 0;
        for i in 0..long.limbs.len() {
            let sum = DoubleLimb::from(long.limbs[i])
                + DoubleLimb::from(short.limbs.get(i).copied().unwrap_or(0))
                + carry;
            limbs.push(sum as Limb);
            carry = sum >> LIMB_BITS;
        }
        if carry > 0 {
            limbs.push(carry as Limb);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl AddAssign<BigUint> for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self = &*self + &rhs;
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = &*self + rhs;
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`BigUint::checked_sub`] for a fallible version.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow; use checked_sub")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = &*self - rhs;
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0 as Limb; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: DoubleLimb = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = DoubleLimb::from(limbs[i + j])
                    + DoubleLimb::from(a) * DoubleLimb::from(b)
                    + carry;
                limbs[i + j] = cur as Limb;
                carry = cur >> LIMB_BITS;
            }
            let mut k = i + rhs.limbs.len();
            while carry > 0 {
                let cur = DoubleLimb::from(limbs[k]) + carry;
                limbs[k] = cur as Limb;
                carry = cur >> LIMB_BITS;
                k += 1;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

impl Shl<u32> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: u32) -> BigUint {
        &self << shift
    }
}

impl Shl<u32> for &BigUint {
    type Output = BigUint;
    fn shl(self, shift: u32) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let limb_shift = (shift / LIMB_BITS) as usize;
        let bit_shift = shift % LIMB_BITS;
        let mut limbs = vec![0 as Limb; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry: Limb = 0;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl Shr<u32> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: u32) -> BigUint {
        &self >> shift
    }
}

impl Shr<u32> for &BigUint {
    type Output = BigUint;
    fn shr(self, shift: u32) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let limb_shift = (shift / LIMB_BITS) as usize;
        let bit_shift = shift % LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut limbs: Vec<Limb> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            for i in 0..limbs.len() {
                let high = if i + 1 < limbs.len() {
                    limbs[i + 1] << (LIMB_BITS - bit_shift)
                } else {
                    0
                };
                limbs[i] = (limbs[i] >> bit_shift) | high;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^9 produces decimal chunks.
        let chunk = BigUint::from(1_000_000_000u64);
        let mut value = self.clone();
        let mut parts: Vec<u64> = Vec::new();
        while !value.is_zero() {
            let (q, r) = value.div_rem(&chunk).expect("chunk is non-zero");
            parts.push(r.to_u64().expect("remainder below 10^9 fits in u64"));
            value = q;
        }
        let mut s = String::new();
        for (i, part) in parts.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&part.to_string());
            } else {
                s.push_str(&format!("{part:09}"));
            }
        }
        write!(f, "{s}")
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:08x}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:b}")?;
            } else {
                write!(f, "{l:032b}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn from_u64_round_trips() {
        for v in [0u64, 1, 2, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(BigUint::from(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn from_u128_round_trips() {
        for v in [
            0u128,
            1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            let big = BigUint::from_u128(v);
            assert_eq!(big.to_u128(), Some(v));
            if let Ok(small) = u64::try_from(v) {
                assert_eq!(big, BigUint::from(small));
            }
        }
        assert_eq!(BigUint::pow2(128).to_u128(), None);
        assert_eq!(
            BigUint::from_u128(u128::MAX),
            (BigUint::pow2(128) - BigUint::one())
        );
    }

    #[test]
    fn addition_matches_u64() {
        for (a, b) in [
            (0u64, 0u64),
            (1, 2),
            (u32::MAX as u64, 1),
            (1 << 40, 1 << 41),
        ] {
            let sum = &BigUint::from(a) + &BigUint::from(b);
            assert_eq!(sum.to_u64(), Some(a + b));
        }
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let sum = &a + &BigUint::one();
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.to_u64(), None);
        assert_eq!((sum - BigUint::one()).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn subtraction_matches_u64() {
        let a = BigUint::from(123_456_789_012_345u64);
        let b = BigUint::from(987_654_321u64);
        assert_eq!((&a - &b).to_u64(), Some(123_456_789_012_345 - 987_654_321));
    }

    #[test]
    fn subtraction_underflow_is_error() {
        let err = BigUint::one().checked_sub(&BigUint::from(2u64));
        assert_eq!(err, Err(NumError::Underflow));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics_via_operator() {
        let _ = BigUint::zero() - BigUint::one();
    }

    #[test]
    fn multiplication_matches_u128() {
        let cases = [
            (0u64, 17u64),
            (1, u64::MAX),
            (0xdead_beef, 0xcafe_babe),
            (u64::MAX, u64::MAX),
        ];
        for (a, b) in cases {
            let prod = &BigUint::from(a) * &BigUint::from(b);
            let expect = u128::from(a) * u128::from(b);
            let lo = (prod.clone() >> 0).to_u64();
            if expect <= u128::from(u64::MAX) {
                assert_eq!(lo, Some(expect as u64));
            } else {
                assert_eq!((prod.clone() >> 64).to_u64(), Some((expect >> 64) as u64));
                let mask = &prod - &(BigUint::from((expect >> 64) as u64) << 64);
                assert_eq!(mask.to_u64(), Some(expect as u64));
            }
        }
    }

    #[test]
    fn shifts_are_inverse() {
        let v = BigUint::from(0x1234_5678_9abc_def0u64);
        for s in [0u32, 1, 31, 32, 33, 64, 100] {
            assert_eq!((v.clone() << s) >> s, v);
        }
    }

    #[test]
    fn shift_right_to_zero() {
        assert_eq!(BigUint::from(5u64) >> 3, BigUint::zero());
    }

    #[test]
    fn bit_len_and_bits() {
        let v = BigUint::pow2(100);
        assert_eq!(v.bit_len(), 101);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert!(!v.bit(101));
        assert_eq!(v.trailing_zeros(), Some(100));
        assert_eq!(BigUint::zero().trailing_zeros(), None);
    }

    #[test]
    fn window64_reads_shifted_bits_with_zero_padding() {
        let low64 = |x: &BigUint| (x - &((x >> 64) << 64)).to_u64().expect("fits");
        let v = &(BigUint::from(0xDEAD_BEEF_u64) << 90) + &BigUint::from(0x1234_5678_9ABC_DEF0_u64);
        for start in -70i64..200 {
            let expected = if start >= 0 {
                low64(&(&v >> start as u32))
            } else {
                low64(&(&v << (-start) as u32))
            };
            assert_eq!(v.window64(start), expected, "start {start}");
        }
        assert_eq!(v.window64(-1), 0x2468_ACF1_3579_BDE0);
        assert_eq!(v.window64(90), 0xDEAD_BEEF);
        assert_eq!(BigUint::zero().window64(5), 0);
    }

    #[test]
    fn ordering_is_numeric() {
        let small = BigUint::from(u64::MAX);
        let big = BigUint::pow2(65);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), Ordering::Equal);
    }

    #[test]
    fn division_small_divisor() {
        let v = BigUint::from(1_000_000_007u64 * 97 + 13);
        let (q, r) = v.div_rem(&BigUint::from(1_000_000_007u64)).unwrap();
        assert_eq!(q.to_u64(), Some(97));
        assert_eq!(r.to_u64(), Some(13));
    }

    #[test]
    fn division_large_divisor() {
        let a = BigUint::pow2(200) + BigUint::from(12345u64);
        let b = BigUint::pow2(100) + BigUint::one();
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert_eq!(
            BigUint::one().div_rem(&BigUint::zero()),
            Err(NumError::DivisionByZero)
        );
    }

    #[test]
    fn division_smaller_than_divisor() {
        let (q, r) = BigUint::from(3u64).div_rem(&BigUint::from(10u64)).unwrap();
        assert!(q.is_zero());
        assert_eq!(r.to_u64(), Some(3));
    }

    #[test]
    fn gcd_matches_euclid() {
        let cases = [
            (12u64, 18u64, 6u64),
            (0, 5, 5),
            (5, 0, 5),
            (17, 13, 1),
            (48, 180, 12),
        ];
        for (a, b, g) in cases {
            assert_eq!(
                BigUint::from(a).gcd(&BigUint::from(b)).to_u64(),
                Some(g),
                "gcd({a},{b})"
            );
        }
    }

    #[test]
    fn gcd_of_large_powers() {
        // b = 6·2^150 = 3·2^151 divides a = 9·2^200, so gcd(a, b) = b.
        let a = BigUint::pow2(200).mul_small(9);
        let b = BigUint::pow2(150).mul_small(6);
        assert_eq!(a.gcd(&b), b);
        // And cases where neither divides the other:
        // gcd(9·2^200, 5·2^101) = 2^101, gcd(5·2^101, 15·2^101) = 5·2^101.
        let c = BigUint::pow2(100).mul_small(10);
        assert_eq!(a.gcd(&c), BigUint::pow2(101));
        assert_eq!(
            c.gcd(&BigUint::pow2(101).mul_small(15)),
            BigUint::pow2(101).mul_small(5)
        );
    }

    #[test]
    fn pow_matches_shift_for_two() {
        assert_eq!(BigUint::from(2u64).pow(10), BigUint::pow2(10));
        assert_eq!(BigUint::from(3u64).pow(5).to_u64(), Some(243));
        assert_eq!(BigUint::from(7u64).pow(0), BigUint::one());
    }

    #[test]
    fn decimal_display_round_trips() {
        let cases = [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
        ];
        for c in cases {
            let v = BigUint::from_decimal_str(c).unwrap();
            assert_eq!(v.to_string(), c);
        }
    }

    #[test]
    fn decimal_parse_rejects_garbage() {
        assert!(BigUint::from_decimal_str("").is_err());
        assert!(BigUint::from_decimal_str("12x4").is_err());
    }

    #[test]
    fn hex_and_binary_formatting() {
        let v = BigUint::from(0xdead_beefu64);
        assert_eq!(format!("{v:x}"), "deadbeef");
        assert_eq!(format!("{:b}", BigUint::from(5u64)), "101");
        assert_eq!(format!("{:x}", BigUint::zero()), "0");
    }

    #[test]
    fn to_f64_is_close() {
        let v = BigUint::from(1u64 << 52);
        assert_eq!(v.to_f64(), (1u64 << 52) as f64);
        let big = BigUint::pow2(300);
        assert!(big.to_f64() > 1e90);
    }

    #[test]
    fn mul_small_matches_mul() {
        let v = BigUint::from(0xffff_ffff_ffffu64);
        assert_eq!(v.mul_small(1000), &v * &BigUint::from(1000u64));
        assert_eq!(v.mul_small(0), BigUint::zero());
    }
}
