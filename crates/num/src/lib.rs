//! # anet-num — exact arithmetic for anonymous-network protocols
//!
//! The protocols of *Langberg, Schwartz, Bruck (PODC 2007)* transmit *commodities*:
//! scalar flow values on grounded trees and DAGs, and interval unions over `[0, 1)`
//! on general graphs. The paper's complexity theorems count the number of **bits**
//! needed to represent those commodities, so the arithmetic must be exact and the
//! representation size must be measurable. This crate provides that substrate:
//!
//! * [`BigUint`] — arbitrary-precision natural numbers (no external bignum crate).
//! * [`Dyadic`] — non-negative binary-point numbers `m / 2^k` of finite
//!   representation, exactly the numbers the paper chooses for interval endpoints.
//! * [`Ratio`] — exact non-negative rationals, used by the *naive* `x/d` flow rule
//!   that the paper's power-of-two rule improves upon (the E1 ablation).
//! * [`Interval`] — half-open intervals `[a, b)` with dyadic endpoints.
//! * [`IntervalUnion`] — finite unions of disjoint intervals, the commodity of the
//!   general-graph broadcasting and labelling protocols (Definition 4.1), stored
//!   as one flattened endpoint array behind a copy-on-write handle: cloning a
//!   value — the protocols' per-out-port hot path — is an O(1) refcount bump,
//!   and the set operations walk dense endpoint buffers at a cost that follows
//!   the smaller operand (galloping search, and in-place splices of small
//!   unions), so merging a delivery's delta costs O(delta · log state). The
//!   endpoints are 128-bit fixed-point words (`v · 2¹²⁷`) whenever every
//!   endpoint lies in `[0, 1]` with at most 127 fractional bits, and exact
//!   [`Dyadic`]s otherwise; the encoding is a function of the value, and
//!   values convert to and from [`Interval`]s and [`Dyadic`]s only at the
//!   API's edges.
//! * [`partition`] — the paper's splitting rules: the power-of-two scalar rule of
//!   Section 3.1 and the canonical interval partition of Section 4.
//! * [`bits`] — self-delimiting integer codes used to account for wire sizes.
//! * [`Fnv1a`] — the workspace's stable 64-bit FNV-1a hasher: trace digests,
//!   sweep fingerprints and graph canonical fingerprints all share its
//!   constants, so equal hashes mean the same bytes on every platform.
//! * [`intern`] — hash-consing [`Interner`] arenas (values → dense `u32` ids),
//!   [`IdSet`] bitsets and occupancy-chosen [`IdBag`]s, the identifier economy
//!   behind the record-flooding protocols.
//!
//! # Example
//!
//! ```
//! use anet_num::{Dyadic, Interval, IntervalUnion};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = Interval::unit();                 // [0, 1)
//! let parts = unit.split(3)?;                  // canonical 3-way split
//! let reassembled: IntervalUnion = parts.iter().cloned().collect();
//! assert_eq!(reassembled, IntervalUnion::unit());
//! assert_eq!(parts[0].length(), Dyadic::from_pow2_neg(2)); // 1/4
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
pub mod bits;
mod dyadic;
mod error;
mod fnv;
pub mod intern;
mod interval;
mod interval_union;
pub mod partition;
mod ratio;
pub mod reference;

pub use biguint::BigUint;
pub use dyadic::Dyadic;
pub use error::NumError;
pub use fnv::{Fnv1a, FnvBuildHasher, FnvHasher};
pub use intern::{IdBag, IdSet, Interner};
pub use interval::Interval;
pub use interval_union::IntervalUnion;
pub use ratio::Ratio;
