//! Scalar commodities — the termination information of Sections 3.1 and 3.3.
//!
//! The grounded-tree and DAG broadcasts attach a scalar "flow" value to the payload;
//! internal vertices split it among their out-edges and the terminal accepts once
//! the values it received sum back to one unit. Two splitting rules are provided:
//!
//! * [`Pow2Commodity`] — the paper's rule: every transmitted value is a power of
//!   two, so it can be encoded by its exponent alone (`O(log |E|)` bits on a
//!   grounded tree).
//! * [`ExactCommodity`] — the naive `x / d` rule, kept as the ablation baseline;
//!   the values are general rationals whose representation grows much faster.

use std::fmt::Debug;

use anet_num::bits;
use anet_num::partition::{even_split, pow2_split};
use anet_num::{Dyadic, Ratio};
use anet_sim::Wire;

/// A commodity that can be injected as one unit at the root, split among outgoing
/// edges, and summed back together at the terminal.
///
/// The central invariant — checked by property tests — is *commodity preservation*:
/// the parts produced by [`split`](Self::split) always sum to the value that was
/// split, and summation is exact, so the terminal reaches exactly one unit iff every
/// vertex forwarded its share.
pub trait ScalarCommodity: Clone + Debug + PartialEq + Eq + Wire + Send + Sync + 'static {
    /// The zero commodity.
    fn zero() -> Self;

    /// One whole unit — what the root injects.
    fn unit() -> Self;

    /// Returns `true` if this value is zero.
    fn is_zero(&self) -> bool;

    /// Returns `true` if this value is exactly one unit — the terminal's acceptance
    /// condition.
    fn is_unit(&self) -> bool;

    /// Exact addition.
    fn add(&self, other: &Self) -> Self;

    /// Splits the value into `parts` shares that sum back to it exactly.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`; vertices with zero out-degree never split.
    fn split(&self, parts: usize) -> Vec<Self>;

    /// Approximate numeric value, for reporting only.
    fn approx(&self) -> f64;

    /// A canonical textual key identifying the value, used by the lower-bound
    /// experiments to count distinct symbols. Two values compare equal iff their
    /// keys are equal.
    fn canonical_key(&self) -> String;

    /// A short name for the splitting rule, used in experiment tables.
    fn rule_name() -> &'static str;
}

/// The paper's power-of-two commodity (Section 3.1).
///
/// Values are dyadic rationals; starting from one unit and splitting with the
/// power-of-two rule keeps every *transmitted* value an exact power of two, which
/// is why its wire encoding is just a gamma-coded exponent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pow2Commodity(Dyadic);

impl Pow2Commodity {
    /// The underlying dyadic value.
    pub fn value(&self) -> &Dyadic {
        &self.0
    }

    /// Wraps an arbitrary dyadic value (used by tests and by the DAG protocol,
    /// where sums of powers of two are transmitted as well).
    pub fn from_dyadic(value: Dyadic) -> Self {
        Pow2Commodity(value)
    }
}

impl ScalarCommodity for Pow2Commodity {
    fn zero() -> Self {
        Pow2Commodity(Dyadic::zero())
    }

    fn unit() -> Self {
        Pow2Commodity(Dyadic::one())
    }

    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    fn is_unit(&self) -> bool {
        self.0.is_one()
    }

    fn add(&self, other: &Self) -> Self {
        Pow2Commodity(&self.0 + &other.0)
    }

    fn split(&self, parts: usize) -> Vec<Self> {
        pow2_split(&self.0, parts)
            .expect("split called with at least one part")
            .into_iter()
            .map(Pow2Commodity)
            .collect()
    }

    fn approx(&self) -> f64 {
        self.0.to_f64()
    }

    fn canonical_key(&self) -> String {
        self.0.to_string()
    }

    fn rule_name() -> &'static str {
        "pow2"
    }
}

impl Wire for Pow2Commodity {
    fn wire_bits(&self) -> u64 {
        // Mantissa (length-prefixed) + gamma-coded exponent. For the values the
        // grounded-tree protocol transmits the mantissa is a single 1-bit, so the
        // size is dominated by the exponent: O(log of the splitting depth).
        bits::length_prefixed_bits(self.0.mantissa_bit_len())
            + bits::elias_gamma_bits(u64::from(self.0.exponent()))
    }
}

/// The naive even-split commodity (`x / d` on every edge) used as the E1 ablation
/// baseline; values are exact rationals in lowest terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExactCommodity(Ratio);

impl ExactCommodity {
    /// The underlying rational value.
    pub fn value(&self) -> &Ratio {
        &self.0
    }
}

impl ScalarCommodity for ExactCommodity {
    fn zero() -> Self {
        ExactCommodity(Ratio::zero())
    }

    fn unit() -> Self {
        ExactCommodity(Ratio::one())
    }

    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    fn is_unit(&self) -> bool {
        self.0.is_one()
    }

    fn add(&self, other: &Self) -> Self {
        ExactCommodity(&self.0 + &other.0)
    }

    fn split(&self, parts: usize) -> Vec<Self> {
        even_split(&self.0, parts)
            .expect("split called with at least one part")
            .into_iter()
            .map(ExactCommodity)
            .collect()
    }

    fn approx(&self) -> f64 {
        self.0.to_f64()
    }

    fn canonical_key(&self) -> String {
        self.0.to_string()
    }

    fn rule_name() -> &'static str {
        "naive-even"
    }
}

impl Wire for ExactCommodity {
    fn wire_bits(&self) -> u64 {
        bits::length_prefixed_bits(self.0.numerator().bit_len())
            + bits::length_prefixed_bits(self.0.denominator().bit_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_commodity<C: ScalarCommodity>() {
        assert!(C::zero().is_zero());
        assert!(C::unit().is_unit());
        assert!(!C::unit().is_zero());
        assert!(!C::zero().is_unit());
        // Splitting one unit across d edges and re-adding restores the unit.
        for d in 1..=9 {
            let parts = C::unit().split(d);
            assert_eq!(parts.len(), d);
            let sum = parts.iter().fold(C::zero(), |acc, p| acc.add(p));
            assert!(sum.is_unit(), "rule {} d {d}", C::rule_name());
            for p in &parts {
                assert!(!p.is_zero());
                assert!(p.wire_bits() > 0);
                assert!(!p.canonical_key().is_empty());
            }
        }
        // Two levels of splitting still conserve the unit.
        let level1 = C::unit().split(3);
        let mut total = C::zero();
        for part in &level1 {
            for sub in part.split(4) {
                total = total.add(&sub);
            }
        }
        assert!(total.is_unit());
    }

    #[test]
    fn pow2_commodity_behaves() {
        exercise_commodity::<Pow2Commodity>();
    }

    #[test]
    fn exact_commodity_behaves() {
        exercise_commodity::<ExactCommodity>();
    }

    #[test]
    fn pow2_split_values_are_powers_of_two() {
        for d in 1..=16 {
            for part in Pow2Commodity::unit().split(d) {
                assert!(part.value().is_pow2(), "d = {d}");
            }
        }
    }

    #[test]
    fn pow2_wire_size_is_logarithmic_in_depth() {
        // After k halvings the value is 2^-k; its encoding must be O(log k), not O(k).
        let mut v = Pow2Commodity::unit();
        for _ in 0..256 {
            v = v.split(2).into_iter().next().unwrap();
        }
        assert!(v.wire_bits() <= 40, "got {}", v.wire_bits());
    }

    #[test]
    fn naive_wire_size_grows_linearly_with_depth() {
        // After k splits by 3 the denominator is 3^k: Θ(k) bits.
        let mut v = ExactCommodity::unit();
        for _ in 0..64 {
            v = v.split(3).into_iter().next().unwrap();
        }
        assert!(v.wire_bits() > 64, "got {}", v.wire_bits());
    }

    // Hand-derived sizes: gamma(n) codes n + 1 in 2⌊log₂(n + 1)⌋ + 1 bits,
    // so gamma(0) = 1, gamma(1) = gamma(2) = 3, gamma(3..=6) = 5 and
    // gamma(7) = 7; a length-prefixed b-bit string costs gamma(b) + b.

    #[test]
    fn pow2_wire_bits_are_a_prefixed_mantissa_and_a_gamma_coded_exponent() {
        // 2^-k has the 1-bit mantissa `1` (3 + 1 = 4 bits) and exponent k.
        let pow2 = |k: u32| Pow2Commodity::from_dyadic(Dyadic::from_u64_parts(1, k));
        assert_eq!(Pow2Commodity::unit().wire_bits(), 4 + 1);
        assert_eq!(pow2(1).wire_bits(), 4 + 3);
        assert_eq!(pow2(3).wire_bits(), 4 + 5);
        assert_eq!(pow2(7).wire_bits(), 4 + 7);
        // gamma(256) codes 257 = 2^8 + 1: 2·8 + 1 = 17 bits.
        assert_eq!(pow2(256).wire_bits(), 4 + 17);
        // A DAG sum 3/8 = 0.011: mantissa `11` (3 + 2) and exponent 3 (5).
        let sum = Pow2Commodity::from_dyadic(Dyadic::from_u64_parts(3, 3));
        assert_eq!(sum.wire_bits(), 5 + 5);
    }

    #[test]
    fn exact_wire_bits_length_prefix_numerator_and_denominator() {
        // 1/1: `1` over `1`, 4 bits each.
        assert_eq!(ExactCommodity::unit().wire_bits(), 4 + 4);
        // 1/3: `1` (3 + 1) over `11` (3 + 2).
        let third = ExactCommodity::unit().split(3).remove(0);
        assert_eq!(third.wire_bits(), 4 + 5);
        // 2/3: `10` (3 + 2) over `11` (3 + 2).
        assert_eq!(third.add(&third).wire_bits(), 5 + 5);
        // 1/9: `1` (3 + 1) over `1001` (gamma(4) = 5, plus 4).
        let ninth = third.split(3).remove(0);
        assert_eq!(ninth.wire_bits(), 4 + 9);
    }

    #[test]
    fn canonical_keys_distinguish_values() {
        let a = Pow2Commodity::unit().split(2).remove(0);
        let b = Pow2Commodity::unit().split(4).remove(0);
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), a.clone().canonical_key());
        assert_eq!(Pow2Commodity::rule_name(), "pow2");
        assert_eq!(ExactCommodity::rule_name(), "naive-even");
    }

    #[test]
    fn approx_matches_value() {
        let half = Pow2Commodity::unit().split(2).remove(0);
        assert!((half.approx() - 0.5).abs() < 1e-12);
        let third = ExactCommodity::unit().split(3).remove(0);
        assert!((third.approx() - 1.0 / 3.0).abs() < 1e-12);
    }
}
