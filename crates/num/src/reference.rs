//! Specification-grade reference implementations of the commodity algebra.
//!
//! The production paths are optimised: [`crate::Dyadic`] arithmetic runs on an
//! inline `u64` mantissa whenever the value fits in a machine word (and
//! compares heap mantissas word by word without allocating), and the
//! [`crate::IntervalUnion`] set operations are single passes over the
//! canonical operands, stored as fixed-point words where they fit, that
//! gallop over the larger one or splice a small operand in place. This module
//! keeps the original, slower-but-obvious implementations over dyadics
//! alive:
//!
//! * the dyadic operations always widen both operands to [`BigUint`] mantissas
//!   aligned to a common exponent (the pre-fast-path semantics), and
//! * the set operations funnel through [`IntervalUnion::from_intervals`] —
//!   collect, sort, merge — instead of exploiting the operands' canonical form,
//!   and their results never alias an operand's endpoint buffer
//!   ([`IntervalUnion::deep_clone`] on the trivial cases): the pre-copy-on-write
//!   owned-value semantics.
//!
//! They exist purely for **differential testing**, mirroring the simulation
//! engine's `anet_sim::reference::run_full_scan` pattern: the property suite in
//! `tests/differential.rs` generates adversarial inputs (interval soups,
//! boundary-touching unions, dyadics crossing the inline→heap mantissa
//! boundary) and asserts the fast paths are bit-identical to these references.
//! Do not use them on hot paths.

use std::cmp::Ordering;

use crate::{BigUint, Dyadic, Interval, IntervalUnion, NumError};

/// Widens both operands to `BigUint` mantissas over the common exponent
/// `max(ea, eb)` — the alignment every reference operation starts from.
fn aligned(a: &Dyadic, b: &Dyadic) -> (BigUint, BigUint, u32) {
    let exp = a.exponent().max(b.exponent());
    let ma = a.mantissa() << (exp - a.exponent());
    let mb = b.mantissa() << (exp - b.exponent());
    (ma, mb, exp)
}

/// Reference comparison: always via aligned `BigUint` mantissas.
pub fn dyadic_cmp(a: &Dyadic, b: &Dyadic) -> Ordering {
    let (ma, mb, _) = aligned(a, b);
    ma.cmp(&mb)
}

/// Reference addition: always via aligned `BigUint` mantissas.
pub fn dyadic_add(a: &Dyadic, b: &Dyadic) -> Dyadic {
    let (ma, mb, exp) = aligned(a, b);
    Dyadic::from_parts(&ma + &mb, exp)
}

/// Reference checked subtraction: always via aligned `BigUint` mantissas.
///
/// # Errors
///
/// Returns [`NumError::Underflow`] when `b > a`.
pub fn dyadic_checked_sub(a: &Dyadic, b: &Dyadic) -> Result<Dyadic, NumError> {
    let (ma, mb, exp) = aligned(a, b);
    Ok(Dyadic::from_parts(ma.checked_sub(&mb)?, exp))
}

/// Reference multiplication: always via `BigUint` mantissas.
pub fn dyadic_mul(a: &Dyadic, b: &Dyadic) -> Dyadic {
    Dyadic::from_parts(
        &a.mantissa() * &b.mantissa(),
        a.exponent()
            .checked_add(b.exponent())
            .expect("dyadic exponent overflow"),
    )
}

/// Reference union: collect both interval lists, then sort-and-merge through
/// [`IntervalUnion::from_intervals`].
pub fn union(a: &IntervalUnion, b: &IntervalUnion) -> IntervalUnion {
    if a.is_empty() {
        return b.deep_clone();
    }
    if b.is_empty() {
        return a.deep_clone();
    }
    IntervalUnion::from_intervals(a.iter().chain(b.iter()))
}

/// Reference intersection: pairwise sweep over owned interval lists,
/// re-canonicalised through [`IntervalUnion::from_intervals`].
pub fn intersection(a: &IntervalUnion, b: &IntervalUnion) -> IntervalUnion {
    let av: Vec<Interval> = a.iter().collect();
    let bv: Vec<Interval> = b.iter().collect();
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < av.len() && j < bv.len() {
        let x = &av[i];
        let y = &bv[j];
        let inter = x.intersection(y);
        if !inter.is_empty() {
            out.push(inter);
        }
        if x.hi() <= y.hi() {
            i += 1;
        } else {
            j += 1;
        }
    }
    IntervalUnion::from_intervals(out)
}

/// Reference difference `a \ b`: carve each interval of `b` out of each interval
/// of `a` with a restarting inner scan, re-canonicalised through
/// [`IntervalUnion::from_intervals`].
pub fn difference(a: &IntervalUnion, b: &IntervalUnion) -> IntervalUnion {
    if a.is_empty() || b.is_empty() {
        return a.deep_clone();
    }
    let bv: Vec<Interval> = b.iter().collect();
    let mut out: Vec<Interval> = Vec::new();
    for x in a.iter() {
        let mut cursor = x.lo().clone();
        for y in &bv {
            if y.hi() <= &cursor {
                continue;
            }
            if y.lo() >= x.hi() {
                break;
            }
            // y overlaps [cursor, x.hi)
            if y.lo() > &cursor {
                out.push(
                    Interval::new(cursor.clone(), y.lo().clone()).expect("cursor < y.lo within x"),
                );
            }
            if y.hi() < x.hi() {
                cursor = y.hi().clone();
            } else {
                cursor = x.hi().clone();
                break;
            }
        }
        if &cursor < x.hi() {
            out.push(Interval::new(cursor, x.hi().clone()).expect("cursor < x.hi"));
        }
    }
    IntervalUnion::from_intervals(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: u64, hi: u64, exp: u32) -> Interval {
        Interval::from_dyadic_parts(lo, hi, exp).unwrap()
    }

    fn union_of(list: &[(u64, u64, u32)]) -> IntervalUnion {
        IntervalUnion::from_intervals(list.iter().map(|&(l, h, e)| iv(l, h, e)))
    }

    #[test]
    fn reference_set_ops_match_known_values() {
        let a = union_of(&[(0, 4, 3), (6, 8, 3)]);
        let b = union_of(&[(2, 7, 3)]);
        assert_eq!(union(&a, &b), union_of(&[(0, 8, 3)]));
        assert_eq!(intersection(&a, &b), union_of(&[(2, 4, 3), (6, 7, 3)]));
        assert_eq!(difference(&a, &b), union_of(&[(0, 2, 3), (7, 8, 3)]));
        assert_eq!(union(&a, &IntervalUnion::empty()), a);
        assert_eq!(difference(&a, &IntervalUnion::empty()), a);
        assert!(intersection(&a, &IntervalUnion::empty()).is_empty());
    }

    #[test]
    fn reference_dyadic_ops_match_known_values() {
        let a = Dyadic::from_u64_parts(3, 3);
        let b = Dyadic::from_pow2_neg(2);
        assert_eq!(dyadic_add(&a, &b), Dyadic::from_u64_parts(5, 3));
        assert_eq!(
            dyadic_checked_sub(&a, &b).unwrap(),
            Dyadic::from_pow2_neg(3)
        );
        assert_eq!(dyadic_checked_sub(&b, &a), Err(crate::NumError::Underflow));
        assert_eq!(dyadic_mul(&a, &b), Dyadic::from_u64_parts(3, 5));
        assert_eq!(dyadic_cmp(&a, &b), Ordering::Greater);
        assert_eq!(dyadic_cmp(&b, &a), Ordering::Less);
        assert_eq!(dyadic_cmp(&a, &a), Ordering::Equal);
    }
}
