//! Finite unions of disjoint intervals over `[0, 1)` — the commodity of the
//! general-graph protocols (Definition 4.1).

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use crate::{bits, Dyadic, Interval, NumError};

/// An element of `U[0, 1)`: a finite union of disjoint half-open intervals.
///
/// # Representation: the flattened endpoint array
///
/// The value is stored as one dense buffer of alternating endpoints
/// `[lo₀, hi₀, lo₁, hi₁, …]` (a `Vec<Dyadic>`) rather than a list of interval
/// structs. The buffer obeys three invariants, which together are the
/// **canonical-form contract**:
///
/// 1. **Even length** — endpoints come in `(lo, hi)` pairs; pair `i` denotes
///    the half-open interval `[e[2i], e[2i+1])`.
/// 2. **Strictly increasing** — `e[k] < e[k+1]` for every `k`. Within a pair
///    this says the interval is non-empty (`lo < hi`); across pairs
///    (`hi_i < lo_{i+1}`, the *canonical gap rule*) it says consecutive
///    intervals are disjoint **and non-adjacent** — touching intervals are
///    merged at construction time, so a gap between pairs is always a strict
///    gap of positive measure.
/// 3. **Empty is empty** — the empty set is the absent buffer, never a
///    zero-length one, so `is_empty` is a null check.
///
/// Two values compare equal with `==` exactly when they denote the same point
/// set. The set operations *rely* on canonicity: [`IntervalUnion::union`],
/// [`IntervalUnion::intersection`] and [`IntervalUnion::difference`] are
/// linear two-pointer merges that walk the two flat buffers in one pass
/// (O(n + m) endpoint comparisons, no sorting, no re-canonicalisation, and —
/// because the buffer is one contiguous allocation of endpoints — half the
/// pointer traffic of the former `Vec<Interval>`-of-pairs layout). Strict
/// non-adjacency is what makes that work: a merge never needs to look more
/// than one emitted pair back. The original collect-sort-merge
/// implementations are retained in [`crate::reference`] for differential
/// testing.
///
/// # Copy-on-write aliasing contract
///
/// The endpoint buffer lives behind an [`Arc`]; [`Clone`] is an O(1)
/// reference-count bump, never a copy of the endpoints. This is the per-out-
/// port hot path of the labelling and general-broadcast protocols: a label
/// flooded on `d` edges is **one** buffer with `d + 1` handles, exactly like
/// the `Arc<[RecordId]>` slices of the mapping protocol.
///
/// Writers respect the aliasing: the in-place operations
/// ([`IntervalUnion::union_in_place`], [`IntervalUnion::intersect_assign`],
/// [`IntervalUnion::subtract_assign`]) merge into a scratch buffer and then
/// *adopt* the result — reusing the existing allocation when this handle is
/// the buffer's sole owner, and allocating a fresh buffer (leaving every
/// sibling handle untouched) when the buffer is shared. Mutating through one
/// handle therefore **never** changes the value observed through another;
/// sharing is an invisible optimisation, observable only through
/// [`IntervalUnion::shares_storage_with`] (and the allocator). Steady-state
/// unshared traffic performs no allocation beyond endpoint clones (which are
/// themselves allocation-free while endpoints stay on the [`Dyadic`] inline
/// fast path); the `*_with` variants take an explicit reusable scratch
/// buffer, the plain ones use a thread-local one.
///
/// All set operations (`union`, `intersection`, `difference`) are exact, and
/// [`IntervalUnion::wire_bits`] still charges the *encoded intervals* — the
/// paper's bit counts are a property of the value, not of how many handles
/// share its buffer.
///
/// # Example
///
/// ```
/// use anet_num::{Interval, IntervalUnion};
///
/// let left = IntervalUnion::from(Interval::from_dyadic_parts(0, 1, 1)?);  // [0, 1/2)
/// let right = IntervalUnion::from(Interval::from_dyadic_parts(1, 2, 1)?); // [1/2, 1)
/// assert_eq!(left.union(&right), IntervalUnion::unit());
/// assert!(left.intersection(&right).is_empty());
///
/// // Cloning shares the endpoint buffer; writers copy before mutating.
/// let shared = left.clone();
/// assert!(shared.shares_storage_with(&left));
/// let mut writer = shared.clone();
/// writer.union_in_place(&right);
/// assert!(writer.is_unit());
/// assert_eq!(shared, left); // the sibling handle is untouched
/// # Ok::<(), anet_num::NumError>(())
/// ```
/// Ordering is lexicographic on the endpoint array (equivalently, on the
/// canonical interval list — useful for ordered containers and deterministic
/// reports); it is *not* the subset order.
#[derive(Clone, Default)]
pub struct IntervalUnion {
    /// `None` ⟺ the empty set; `Some` holds the canonical endpoint buffer
    /// (non-empty, even length, strictly increasing).
    endpoints: Option<Arc<Vec<Dyadic>>>,
}

thread_local! {
    /// Reusable merge buffer for the in-place ops without an explicit scratch.
    static SCRATCH: RefCell<Vec<Dyadic>> = const { RefCell::new(Vec::new()) };
}

/// Picks the interval with the smaller lower endpoint off the front of `a` or
/// `b` (cursors `i`/`j` advance by a whole pair), for the union merge.
#[inline]
fn next_pair<'a>(
    a: &'a [Dyadic],
    b: &'a [Dyadic],
    i: &mut usize,
    j: &mut usize,
) -> Option<(&'a Dyadic, &'a Dyadic)> {
    let from_a = match (a.get(*i), b.get(*j)) {
        (Some(x), Some(y)) => x <= y,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => return None,
    };
    if from_a {
        let pair = (&a[*i], &a[*i + 1]);
        *i += 2;
        Some(pair)
    } else {
        let pair = (&b[*j], &b[*j + 1]);
        *j += 2;
        Some(pair)
    }
}

/// Linear merge of two canonical endpoint arrays into their union; `out` is
/// canonical by construction.
///
/// The open run is tracked by *reference* into the operand buffers and
/// endpoints are cloned only when an output pair is emitted, so a merge that
/// collapses many touching intervals performs O(output) clones, not O(input).
fn union_into(a: &[Dyadic], b: &[Dyadic], out: &mut Vec<Dyadic>) {
    debug_assert!(out.is_empty());
    let (mut i, mut j) = (0usize, 0usize);
    let Some((first_lo, first_hi)) = next_pair(a, b, &mut i, &mut j) else {
        return;
    };
    let (mut lo, mut hi) = (first_lo, first_hi);
    while let Some((l, h)) = next_pair(a, b, &mut i, &mut j) {
        if l <= hi {
            // Overlapping or adjacent: extend the open run.
            if h > hi {
                hi = h;
            }
        } else {
            out.push(lo.clone());
            out.push(hi.clone());
            lo = l;
            hi = h;
        }
    }
    out.push(lo.clone());
    out.push(hi.clone());
}

/// Linear merge of two canonical endpoint arrays into their intersection.
///
/// Output pieces inherit sortedness, and consecutive pieces are separated by a
/// strict gap (whichever operand interval ended starts its successor strictly
/// beyond the piece's end, by non-adjacency), so `out` is canonical.
fn intersection_into(a: &[Dyadic], b: &[Dyadic], out: &mut Vec<Dyadic>) {
    debug_assert!(out.is_empty());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (xl, xh) = (&a[i], &a[i + 1]);
        let (yl, yh) = (&b[j], &b[j + 1]);
        let lo = if xl >= yl { xl } else { yl };
        let hi = if xh <= yh { xh } else { yh };
        if lo < hi {
            out.push(lo.clone());
            out.push(hi.clone());
        }
        if xh <= yh {
            i += 2;
        } else {
            j += 2;
        }
    }
}

/// Linear sweep computing `a \ b` for canonical endpoint arrays; `out` is
/// canonical by construction (pieces of one `a`-interval are strictly
/// separated by carved `b`-mass, and distinct `a`-intervals by `a`'s own gaps).
fn difference_into(a: &[Dyadic], b: &[Dyadic], out: &mut Vec<Dyadic>) {
    debug_assert!(out.is_empty());
    let mut j = 0usize;
    let mut i = 0usize;
    while i < a.len() {
        let (xl, xh) = (&a[i], &a[i + 1]);
        // b-intervals entirely before x cannot affect x or any later a-interval.
        while j < b.len() && &b[j + 1] <= xl {
            j += 2;
        }
        // The sweep cursor is a reference into the operands; endpoints are
        // cloned only when a surviving piece is emitted.
        let mut cursor: &Dyadic = xl;
        let mut k = j;
        loop {
            if k >= b.len() || &b[k] >= xh {
                if cursor < xh {
                    out.push(cursor.clone());
                    out.push(xh.clone());
                }
                break;
            }
            let (yl, yh) = (&b[k], &b[k + 1]);
            if yl > cursor {
                out.push(cursor.clone());
                out.push(yl.clone());
            }
            if yh < xh {
                cursor = yh;
                // y is strictly inside x, hence before every later a-interval.
                k += 2;
                j = k;
            } else {
                // y covers the tail of x (nothing of x survives past it) and may
                // still overlap the next a-interval: do not advance past it.
                break;
            }
        }
        i += 2;
    }
}

/// Borrowing iterator over the maximal disjoint intervals of an
/// [`IntervalUnion`], yielding each pair of endpoints as an owned
/// [`Interval`] (two endpoint clones per item — allocation-free while the
/// endpoints stay on the [`Dyadic`] inline fast path).
#[derive(Debug, Clone)]
pub struct Intervals<'a> {
    rest: &'a [Dyadic],
}

impl Iterator for Intervals<'_> {
    type Item = Interval;

    fn next(&mut self) -> Option<Interval> {
        if self.rest.len() < 2 {
            return None;
        }
        let iv = Interval::new_unchecked(self.rest[0].clone(), self.rest[1].clone());
        self.rest = &self.rest[2..];
        Some(iv)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.len() / 2;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Intervals<'_> {}

impl IntervalUnion {
    /// The empty union (the paper's `[0, 0)` state component). Allocation-free.
    pub fn empty() -> Self {
        IntervalUnion { endpoints: None }
    }

    /// The full unit interval `[0, 1)`.
    pub fn unit() -> Self {
        IntervalUnion::from_endpoints(vec![Dyadic::zero(), Dyadic::one()])
    }

    /// Wraps an endpoint buffer that is already canonical (debug-asserted).
    fn from_endpoints(endpoints: Vec<Dyadic>) -> Self {
        let out = IntervalUnion {
            endpoints: if endpoints.is_empty() {
                None
            } else {
                Some(Arc::new(endpoints))
            },
        };
        out.debug_assert_canonical();
        out
    }

    #[inline]
    fn debug_assert_canonical(&self) {
        #[cfg(debug_assertions)]
        {
            let e = self.endpoints();
            debug_assert!(e.len().is_multiple_of(2), "endpoint array has odd length");
            debug_assert!(
                self.endpoints.as_ref().is_none_or(|v| !v.is_empty()),
                "empty set must be the absent buffer"
            );
            for w in e.windows(2) {
                debug_assert!(
                    w[0] < w[1],
                    "endpoint array is not strictly increasing (empty, unsorted, \
                     overlapping or adjacent intervals)"
                );
            }
        }
    }

    /// The flattened canonical endpoint array `[lo₀, hi₀, lo₁, hi₁, …]`:
    /// even length, strictly increasing (see the type-level invariants).
    #[inline]
    pub fn endpoints(&self) -> &[Dyadic] {
        self.endpoints.as_ref().map_or(&[], |v| v.as_slice())
    }

    /// Returns `true` if `self` and `other` share one endpoint buffer — i.e.
    /// one is an O(1) copy-on-write clone of the other (or both are empty)
    /// and no writer has detached them since. Equal values in separate
    /// buffers return `false`; this observes the *sharing*, not the value.
    #[inline]
    pub fn shares_storage_with(&self, other: &IntervalUnion) -> bool {
        match (&self.endpoints, &other.endpoints) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// A clone that copies the endpoint buffer instead of sharing it.
    ///
    /// Protocol code never needs this — sharing is semantically invisible —
    /// but the retained reference protocols use it to model the pre-CoW
    /// deep-clone-per-out-port cost, and tests use it to pin the aliasing
    /// contract.
    pub fn deep_clone(&self) -> Self {
        IntervalUnion {
            endpoints: self
                .endpoints
                .as_ref()
                .map(|v| Arc::new(Vec::clone(v.as_ref()))),
        }
    }

    /// Builds a union from arbitrary (possibly overlapping, unordered, empty)
    /// intervals.
    ///
    /// This is the collect-sort-merge constructor for *non-canonical* input; the
    /// set operations below never call it, operating linearly on their already
    /// canonical operands instead.
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut v: Vec<Interval> = intervals.into_iter().filter(|i| !i.is_empty()).collect();
        v.sort_by(|a, b| a.lo().cmp(b.lo()).then_with(|| a.hi().cmp(b.hi())));
        let mut out: Vec<Dyadic> = Vec::with_capacity(2 * v.len());
        for iv in v {
            let (lo, hi) = iv.into_parts();
            match out.last_mut() {
                // Overlapping or adjacent with the open pair: extend.
                Some(last_hi) if lo <= *last_hi => {
                    if hi > *last_hi {
                        *last_hi = hi;
                    }
                }
                _ => {
                    out.push(lo);
                    out.push(hi);
                }
            }
        }
        IntervalUnion::from_endpoints(out)
    }

    /// Returns `true` if the union contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_none()
    }

    /// Returns `true` if the union is exactly `[0, 1)` — the terminal's acceptance
    /// condition `α ∪ β = [0, 1)`.
    pub fn is_unit(&self) -> bool {
        let e = self.endpoints();
        e.len() == 2 && e[0].is_zero() && e[1].is_one()
    }

    /// Number of maximal disjoint intervals.
    #[inline]
    pub fn interval_count(&self) -> usize {
        self.endpoints().len() / 2
    }

    /// Iterates over the maximal disjoint intervals in increasing order.
    pub fn iter(&self) -> Intervals<'_> {
        Intervals {
            rest: self.endpoints(),
        }
    }

    /// The first (smallest) maximal interval, if any.
    pub fn first_interval(&self) -> Option<Interval> {
        let e = self.endpoints();
        (!e.is_empty()).then(|| Interval::new_unchecked(e[0].clone(), e[1].clone()))
    }

    /// Total measure of the union.
    pub fn total_length(&self) -> Dyadic {
        let mut total = Dyadic::zero();
        let e = self.endpoints();
        let mut i = 0;
        while i < e.len() {
            let len = e[i + 1]
                .checked_sub(&e[i])
                .expect("endpoint invariant lo < hi");
            total += &len;
            i += 2;
        }
        total
    }

    /// Returns `true` if the point lies in the union.
    pub fn contains_point(&self, point: &Dyadic) -> bool {
        // Binary search over the flat endpoint array: the number of endpoints
        // `<= point` is odd exactly when `point` falls inside a pair (it has
        // passed a `lo` but not the matching `hi`).
        self.endpoints().partition_point(|e| e <= point) % 2 == 1
    }

    /// Set union — a linear merge of the two canonical operands.
    ///
    /// The trivial cases (either operand empty, or both handles sharing one
    /// buffer) return an O(1) shared handle instead of merging.
    pub fn union(&self, other: &IntervalUnion) -> IntervalUnion {
        if self.is_empty() || self.shares_storage_with(other) {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (a, b) = (self.endpoints(), other.endpoints());
        let mut out = Vec::with_capacity(a.len() + b.len());
        union_into(a, b, &mut out);
        IntervalUnion::from_endpoints(out)
    }

    /// In-place set union; returns `true` if the value changed.
    ///
    /// The general-graph protocol sends a message on an edge *iff* the relevant
    /// state component changed (Section 4), so change detection is part of the API.
    ///
    /// Merges through a reusable thread-local scratch buffer; steady-state calls
    /// on unshared values do not allocate, and a call on a *shared* value
    /// detaches this handle only (copy-on-write — every sibling handle keeps
    /// the old value). Use [`IntervalUnion::union_in_place_with`] to thread an
    /// explicit scratch buffer instead.
    pub fn union_in_place(&mut self, other: &IntervalUnion) -> bool {
        SCRATCH.with(|scratch| self.union_in_place_with(other, &mut scratch.borrow_mut()))
    }

    /// [`IntervalUnion::union_in_place`] with an explicit scratch buffer, which
    /// is left cleared (capacity retained) for reuse.
    pub fn union_in_place_with(
        &mut self,
        other: &IntervalUnion,
        scratch: &mut Vec<Dyadic>,
    ) -> bool {
        if other.is_empty() || self.shares_storage_with(other) {
            return false;
        }
        if self.is_empty() {
            // ∅ ∪ x = x: share x's buffer instead of copying it. This is how an
            // unchanged label floods onward as one buffer with many handles.
            self.endpoints = other.endpoints.clone();
            return true;
        }
        // Accumulator fast path: `other` splits into a (possibly empty) prefix
        // of parts already contained in `self` and a (possibly empty) suffix of
        // parts lying entirely at or above `self`'s top endpoint. The union is
        // then `self` with the suffix appended (coalescing the boundary pair
        // when the two touch) — O(|other| log |self|) binary searches and an
        // O(|suffix|) amortised append instead of the O(|self| + |other|)
        // merge below. This is the shape of a monotonically growing
        // accumulator: a terminal absorbing mass in ascending positional order
        // receives deltas whose parts are either re-deliveries it already
        // covers (the same mass routed over another path) or fresh mass above
        // everything seen so far. `other`'s parts are ascending, so once one
        // part starts at or above the top, all later parts do too.
        {
            let own = self.endpoints.as_mut().expect("checked non-empty");
            let other_buf = other.endpoints();
            let top = own.len() - 1;
            let mut append_from = None;
            let mut fits = true;
            for (k, part) in other_buf.chunks_exact(2).enumerate() {
                if part[0] >= own[top] {
                    append_from = Some(2 * k);
                    break;
                }
                // `pos` = number of own endpoints ≤ part start. Odd means the
                // start falls inside own part `(pos - 1) / 2` (half-open: a
                // start equal to an own *end* lands in the gap, `pos` even),
                // and the part is covered iff its end stays at or below that
                // own part's end.
                let pos = own.partition_point(|e| *e <= part[0]);
                if pos % 2 == 0 || part[1] > own[pos] {
                    fits = false;
                    break;
                }
            }
            if fits {
                let Some(from) = append_from else {
                    // Every part of `other` was already covered: no-op union.
                    return false;
                };
                let suffix = &other_buf[from..];
                let touching = suffix[0] == own[top];
                let buf = Arc::make_mut(own);
                if touching {
                    *buf.last_mut().expect("non-empty buffer") = suffix[1].clone();
                    buf.extend_from_slice(&suffix[2..]);
                } else {
                    buf.extend_from_slice(suffix);
                }
                self.debug_assert_canonical();
                // The suffix holds mass at or above `self`'s old top endpoint,
                // none of which `self` covered: the union strictly grew.
                return true;
            }
        }
        scratch.clear();
        union_into(self.endpoints(), other.endpoints(), scratch);
        self.adopt_if_changed(scratch)
    }

    /// Set intersection — a linear merge of the two canonical operands.
    pub fn intersection(&self, other: &IntervalUnion) -> IntervalUnion {
        if self.is_empty() || other.is_empty() {
            return IntervalUnion::empty();
        }
        if self.shares_storage_with(other) {
            return self.clone();
        }
        let mut out = Vec::new();
        intersection_into(self.endpoints(), other.endpoints(), &mut out);
        IntervalUnion::from_endpoints(out)
    }

    /// In-place set intersection; returns `true` if the value changed.
    ///
    /// Merges through a reusable thread-local scratch buffer (copy-on-write on
    /// shared values, like [`IntervalUnion::union_in_place`]); see
    /// [`IntervalUnion::intersect_assign_with`] for the explicit-scratch variant.
    pub fn intersect_assign(&mut self, other: &IntervalUnion) -> bool {
        SCRATCH.with(|scratch| self.intersect_assign_with(other, &mut scratch.borrow_mut()))
    }

    /// [`IntervalUnion::intersect_assign`] with an explicit scratch buffer, which
    /// is left cleared (capacity retained) for reuse.
    pub fn intersect_assign_with(
        &mut self,
        other: &IntervalUnion,
        scratch: &mut Vec<Dyadic>,
    ) -> bool {
        if self.is_empty() || self.shares_storage_with(other) {
            return false;
        }
        if other.is_empty() {
            self.endpoints = None;
            return true;
        }
        scratch.clear();
        intersection_into(self.endpoints(), other.endpoints(), scratch);
        self.adopt_if_changed(scratch)
    }

    /// Set difference `self \ other` — a linear sweep over the two canonical
    /// operands.
    pub fn difference(&self, other: &IntervalUnion) -> IntervalUnion {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        if self.shares_storage_with(other) {
            return IntervalUnion::empty();
        }
        let mut out = Vec::new();
        difference_into(self.endpoints(), other.endpoints(), &mut out);
        IntervalUnion::from_endpoints(out)
    }

    /// In-place set difference `self \= other`; returns `true` if the value
    /// changed.
    ///
    /// Merges through a reusable thread-local scratch buffer (copy-on-write on
    /// shared values, like [`IntervalUnion::union_in_place`]); see
    /// [`IntervalUnion::subtract_assign_with`] for the explicit-scratch variant.
    pub fn subtract_assign(&mut self, other: &IntervalUnion) -> bool {
        SCRATCH.with(|scratch| self.subtract_assign_with(other, &mut scratch.borrow_mut()))
    }

    /// [`IntervalUnion::subtract_assign`] with an explicit scratch buffer, which
    /// is left cleared (capacity retained) for reuse.
    pub fn subtract_assign_with(
        &mut self,
        other: &IntervalUnion,
        scratch: &mut Vec<Dyadic>,
    ) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.shares_storage_with(other) {
            // x \ x = ∅, and x is non-empty here.
            self.endpoints = None;
            return true;
        }
        scratch.clear();
        difference_into(self.endpoints(), other.endpoints(), scratch);
        self.adopt_if_changed(scratch)
    }

    /// Swaps in the merged endpoint buffer when it differs from the current
    /// value; always leaves `scratch` cleared (capacity retained where
    /// possible).
    ///
    /// This is where copy-on-write happens: a uniquely owned buffer is reused
    /// in place (allocation-free steady state), a shared one is left to its
    /// sibling handles and replaced by a fresh buffer.
    fn adopt_if_changed(&mut self, scratch: &mut Vec<Dyadic>) -> bool {
        let changed = self.endpoints() != scratch.as_slice();
        if changed {
            if scratch.is_empty() {
                self.endpoints = None;
            } else {
                match self.endpoints.as_mut().and_then(Arc::get_mut) {
                    // Sole owner: recycle the existing allocation.
                    Some(vec) => std::mem::swap(vec, scratch),
                    // Shared (or empty): detach into a fresh buffer. The
                    // scratch buffer is donated to the new value, so this one
                    // path gives up the scratch capacity.
                    None => self.endpoints = Some(Arc::new(std::mem::take(scratch))),
                }
            }
            self.debug_assert_canonical();
        }
        scratch.clear();
        changed
    }

    /// Returns `true` if `self ⊆ other`. Allocation-free: since `other` is
    /// canonical (non-adjacent), each interval of `self` must lie inside a
    /// *single* maximal interval of `other`.
    pub fn is_subset_of(&self, other: &IntervalUnion) -> bool {
        if self.shares_storage_with(other) {
            return true;
        }
        let (a, b) = (self.endpoints(), other.endpoints());
        let mut j = 0usize;
        let mut i = 0usize;
        while i < a.len() {
            let (lo, hi) = (&a[i], &a[i + 1]);
            while j < b.len() && &b[j + 1] < hi {
                j += 2;
            }
            if j >= b.len() || &b[j] > lo {
                return false;
            }
            i += 2;
        }
        true
    }

    /// Returns `true` if the two unions share at least one point.
    /// Allocation-free two-pointer sweep with early exit.
    pub fn intersects(&self, other: &IntervalUnion) -> bool {
        if self.shares_storage_with(other) {
            return !self.is_empty();
        }
        let (a, b) = (self.endpoints(), other.endpoints());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (xl, xh) = (&a[i], &a[i + 1]);
            let (yl, yh) = (&b[j], &b[j + 1]);
            if xl < yh && yl < xh {
                return true;
            }
            if xh <= yh {
                i += 2;
            } else {
                j += 2;
            }
        }
        false
    }

    /// Bits needed to transmit the union: a gamma-coded interval count followed by
    /// each interval's self-delimited endpoints.
    ///
    /// This charges the **encoded intervals**, independent of buffer sharing:
    /// a label flooded as one shared buffer with many handles still pays full
    /// price on every edge, so Theorem 4.3's `O(|E| · |V| log d_out)` bound is
    /// accounted exactly as before.
    pub fn wire_bits(&self) -> u64 {
        let e = self.endpoints();
        bits::elias_gamma_bits((e.len() / 2) as u64)
            + e.iter()
                .map(|d| bits::length_prefixed_bits(d.positional_bits()))
                .sum::<u64>()
    }
}

impl PartialEq for IntervalUnion {
    fn eq(&self, other: &Self) -> bool {
        self.shares_storage_with(other) || self.endpoints() == other.endpoints()
    }
}

impl Eq for IntervalUnion {}

impl PartialOrd for IntervalUnion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IntervalUnion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic on the flat endpoint arrays — identical to the former
        // lexicographic order on interval lists, because pairs are fixed-width.
        self.endpoints().cmp(other.endpoints())
    }
}

impl std::hash::Hash for IntervalUnion {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.endpoints().hash(state);
    }
}

impl From<Interval> for IntervalUnion {
    fn from(interval: Interval) -> Self {
        if interval.is_empty() {
            IntervalUnion::empty()
        } else {
            let (lo, hi) = interval.into_parts();
            IntervalUnion::from_endpoints(vec![lo, hi])
        }
    }
}

impl FromIterator<Interval> for IntervalUnion {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IntervalUnion::from_intervals(iter)
    }
}

impl Extend<Interval> for IntervalUnion {
    fn extend<T: IntoIterator<Item = Interval>>(&mut self, iter: T) {
        let extra = IntervalUnion::from_intervals(iter);
        self.union_in_place(&extra);
    }
}

impl<'a> IntoIterator for &'a IntervalUnion {
    type Item = Interval;
    type IntoIter = Intervals<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for IntervalUnion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let parts: Vec<String> = self.iter().map(|i| i.to_string()).collect();
        write!(f, "{}", parts.join(" ∪ "))
    }
}

impl fmt::Debug for IntervalUnion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IntervalUnion({self})")
    }
}

/// Partitions an interval union `α` into `parts` disjoint interval unions whose
/// union is `α`, following the paper's *canonical partition* (Section 4):
///
/// write `α = I₁ ∪ … ∪ I_r` (maximal intervals in increasing order); split the first
/// interval `I₁` into `parts - 1` pieces with [`Interval::split`]; the pieces become
/// parts `1 … parts-1`, and the remaining intervals `I₂ ∪ … ∪ I_r` become the final
/// part.
///
/// When `α` is empty, every part is empty. When `parts == 1` the single part is `α`.
///
/// # Errors
///
/// Returns [`NumError::EmptyPartition`] when `parts == 0`.
pub fn canonical_partition(
    alpha: &IntervalUnion,
    parts: usize,
) -> Result<Vec<IntervalUnion>, NumError> {
    if parts == 0 {
        return Err(NumError::EmptyPartition);
    }
    if parts == 1 {
        return Ok(vec![alpha.clone()]);
    }
    if alpha.is_empty() {
        return Ok(vec![IntervalUnion::empty(); parts]);
    }
    let e = alpha.endpoints();
    let first = Interval::new_unchecked(e[0].clone(), e[1].clone());
    let rest = IntervalUnion::from_endpoints(e[2..].to_vec());
    let mut out: Vec<IntervalUnion> = first
        .split(parts - 1)?
        .into_iter()
        .map(IntervalUnion::from)
        .collect();
    out.push(rest);
    Ok(out)
}

/// Like [`canonical_partition`], but guarantees that **every** part is non-empty
/// whenever `alpha` itself is non-empty: when `alpha` consists of a single maximal
/// interval, that interval is split into `parts` pieces (instead of `parts - 1`
/// pieces plus an empty remainder).
///
/// The labelling and mapping protocols use this variant so that every vertex
/// reachable from the root is guaranteed to eventually receive interval mass —
/// and therefore a non-empty label — on every out-edge of its predecessors. The
/// paper's literal partition can starve the *last* out-port when the incoming mass
/// is a single interval, which would leave some vertices unlabelled on certain
/// topologies.
///
/// # Errors
///
/// Returns [`NumError::EmptyPartition`] when `parts == 0`.
pub fn canonical_partition_nonempty(
    alpha: &IntervalUnion,
    parts: usize,
) -> Result<Vec<IntervalUnion>, NumError> {
    if parts == 0 {
        return Err(NumError::EmptyPartition);
    }
    if parts == 1 || alpha.is_empty() || alpha.interval_count() > 1 {
        return canonical_partition(alpha, parts);
    }
    // A single maximal interval: split it into `parts` non-empty pieces.
    let out: Vec<IntervalUnion> = alpha
        .first_interval()
        .expect("non-empty union has a first interval")
        .split(parts)?
        .into_iter()
        .map(IntervalUnion::from)
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigUint;

    fn iv(lo: u64, hi: u64, exp: u32) -> Interval {
        Interval::from_dyadic_parts(lo, hi, exp).unwrap()
    }

    fn union_of(list: &[(u64, u64, u32)]) -> IntervalUnion {
        IntervalUnion::from_intervals(list.iter().map(|&(l, h, e)| iv(l, h, e)))
    }

    #[test]
    fn canonical_form_merges_overlaps_and_adjacency() {
        let u = union_of(&[(0, 2, 3), (2, 4, 3), (6, 7, 3), (5, 6, 3)]);
        // [0,1/4) ∪ [1/4,1/2) merge; [5/8,6/8) ∪ [6/8,7/8) merge.
        assert_eq!(u.interval_count(), 2);
        assert_eq!(u, union_of(&[(0, 4, 3), (5, 7, 3)]));
        assert_eq!(u.endpoints().len(), 4);
    }

    #[test]
    fn empty_intervals_are_dropped() {
        let u = IntervalUnion::from_intervals(vec![Interval::empty(), iv(1, 1, 4)]);
        assert!(u.is_empty());
        assert_eq!(u, IntervalUnion::empty());
        assert_eq!(u, IntervalUnion::default());
        assert!(IntervalUnion::from(Interval::empty()).is_empty());
        assert!(u.endpoints().is_empty());
    }

    #[test]
    fn unit_detection() {
        assert!(IntervalUnion::unit().is_unit());
        assert!(!IntervalUnion::empty().is_unit());
        // Two halves reassemble into the unit.
        let u = union_of(&[(0, 1, 1), (1, 2, 1)]);
        assert!(u.is_unit());
        // Missing a piece: not the unit.
        let v = union_of(&[(0, 1, 2), (2, 4, 2)]);
        assert!(!v.is_unit());
    }

    /// Every shape the accumulator fast path in
    /// [`IntervalUnion::union_in_place_with`] distinguishes — pure append
    /// (touching and gapped), contained no-op, contained-prefix + append-
    /// suffix, and the fall-through cases the general merge must still own —
    /// checked against the out-of-place [`IntervalUnion::union`].
    #[test]
    fn union_in_place_accumulator_fast_paths_match_union() {
        type Parts = &'static [(u64, u64, u32)];
        let cases: &[(Parts, Parts)] = &[
            // Append, gapped: other strictly above self's top.
            (&[(0, 1, 3)], &[(4, 5, 3)]),
            // Append, touching: boundary pair must coalesce.
            (&[(0, 2, 3)], &[(2, 3, 3), (5, 6, 3)]),
            // Contained no-op: every part re-delivers covered mass.
            (&[(0, 4, 3), (5, 7, 3)], &[(1, 2, 3), (5, 6, 3)]),
            // Contained prefix + appended suffix (the β-delta shape: old
            // ancestor labels below, one fresh label above).
            (&[(0, 2, 3), (3, 4, 3)], &[(0, 1, 3), (5, 6, 3)]),
            // Fall-through: a part overlaps self's top part but pokes past
            // its end.
            (&[(0, 2, 3), (4, 6, 3)], &[(5, 7, 3)]),
            // Fall-through: a fresh part inside an interior gap.
            (&[(0, 1, 3), (6, 7, 3)], &[(3, 4, 3)]),
            // Fall-through: a part straddles a gap between self's parts.
            (&[(0, 2, 3), (4, 6, 3)], &[(1, 5, 3)]),
        ];
        for (a_parts, b_parts) in cases {
            let a = union_of(a_parts);
            let b = union_of(b_parts);
            let expected = a.union(&b);
            let mut acc = a.clone();
            let changed = acc.union_in_place(&b);
            assert_eq!(acc, expected, "a = {a:?}, b = {b:?}");
            assert_eq!(changed, acc != a, "a = {a:?}, b = {b:?}");
        }
    }

    /// The append arm of the fast path must copy-on-write, never mutate a
    /// buffer other handles still see.
    #[test]
    fn union_in_place_append_respects_shared_storage() {
        let a = union_of(&[(0, 1, 3)]);
        let shared = a.clone();
        let mut acc = a.clone();
        assert!(acc.union_in_place(&union_of(&[(2, 3, 3)])));
        assert_eq!(shared, a, "shared handle must keep the pre-append value");
        assert_eq!(acc, union_of(&[(0, 1, 3), (2, 3, 3)]));
    }

    #[test]
    fn union_covers_both_operands() {
        let a = union_of(&[(0, 2, 3)]);
        let b = union_of(&[(4, 6, 3)]);
        let u = a.union(&b);
        assert_eq!(u, union_of(&[(0, 2, 3), (4, 6, 3)]));
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert_eq!(a.union(&IntervalUnion::empty()), a);
        assert_eq!(IntervalUnion::empty().union(&b), b);
    }

    #[test]
    fn union_merges_adjacency_across_operands() {
        // A bridge interval in `b` fuses two `a`-intervals into one.
        let a = union_of(&[(0, 1, 3), (2, 3, 3)]);
        let b = union_of(&[(1, 2, 3)]);
        assert_eq!(a.union(&b), union_of(&[(0, 3, 3)]));
        assert_eq!(b.union(&a), union_of(&[(0, 3, 3)]));
    }

    #[test]
    fn union_in_place_reports_change() {
        let mut a = union_of(&[(0, 2, 3)]);
        assert!(!a.union_in_place(&IntervalUnion::empty()));
        assert!(!a.union_in_place(&union_of(&[(0, 1, 3)]))); // already covered
        assert!(a.union_in_place(&union_of(&[(4, 5, 3)])));
        assert_eq!(a, union_of(&[(0, 2, 3), (4, 5, 3)]));
    }

    #[test]
    fn in_place_ops_with_explicit_scratch() {
        let mut scratch = Vec::new();
        let mut a = union_of(&[(0, 4, 3), (6, 8, 3)]);
        assert!(a.union_in_place_with(&union_of(&[(4, 5, 3)]), &mut scratch));
        assert_eq!(a, union_of(&[(0, 5, 3), (6, 8, 3)]));
        assert!(scratch.is_empty());
        let cap = scratch.capacity();
        assert!(cap > 0, "scratch capacity is retained for reuse");
        assert!(a.intersect_assign_with(&union_of(&[(2, 7, 3)]), &mut scratch));
        assert_eq!(a, union_of(&[(2, 5, 3), (6, 7, 3)]));
        assert!(a.subtract_assign_with(&union_of(&[(3, 4, 3)]), &mut scratch));
        assert_eq!(a, union_of(&[(2, 3, 3), (4, 5, 3), (6, 7, 3)]));
    }

    #[test]
    fn intersect_assign_reports_change() {
        let mut a = union_of(&[(0, 4, 3)]);
        assert!(!a.intersect_assign(&union_of(&[(0, 8, 3)]))); // superset: no change
        assert!(a.intersect_assign(&union_of(&[(1, 2, 3)])));
        assert_eq!(a, union_of(&[(1, 2, 3)]));
        assert!(a.intersect_assign(&IntervalUnion::empty()));
        assert!(a.is_empty());
        assert!(!a.intersect_assign(&IntervalUnion::unit())); // empty stays empty
    }

    #[test]
    fn subtract_assign_reports_change() {
        let mut a = union_of(&[(0, 4, 3)]);
        assert!(!a.subtract_assign(&IntervalUnion::empty()));
        assert!(!a.subtract_assign(&union_of(&[(5, 6, 3)]))); // disjoint: no change
        assert!(a.subtract_assign(&union_of(&[(1, 2, 3)])));
        assert_eq!(a, union_of(&[(0, 1, 3), (2, 4, 3)]));
        assert!(a.subtract_assign(&IntervalUnion::unit()));
        assert!(a.is_empty());
    }

    #[test]
    fn intersection_cases() {
        let a = union_of(&[(0, 4, 3), (6, 8, 3)]);
        let b = union_of(&[(2, 7, 3)]);
        assert_eq!(a.intersection(&b), union_of(&[(2, 4, 3), (6, 7, 3)]));
        assert_eq!(b.intersection(&a), a.intersection(&b));
        assert!(a.intersection(&IntervalUnion::empty()).is_empty());
        assert!(!a.intersects(&union_of(&[(4, 6, 3)])));
        assert!(a.intersects(&union_of(&[(3, 5, 3)])));
    }

    #[test]
    fn difference_cases() {
        let a = IntervalUnion::unit();
        let b = union_of(&[(1, 2, 2)]); // [1/4, 1/2)
        let d = a.difference(&b);
        assert_eq!(d, union_of(&[(0, 1, 2), (2, 4, 2)]));
        // Removing what we kept plus what we removed gives the empty set.
        assert!(a.difference(&d).difference(&b).is_empty());
        // Difference with self or a superset is empty.
        assert!(a.difference(&a).is_empty());
        assert!(b.difference(&a).is_empty());
        // Difference with empty leaves the value unchanged.
        assert_eq!(a.difference(&IntervalUnion::empty()), a);
    }

    #[test]
    fn difference_across_multiple_intervals() {
        let a = union_of(&[(0, 3, 3), (4, 8, 3)]);
        let b = union_of(&[(1, 2, 3), (5, 6, 3), (7, 8, 3)]);
        let d = a.difference(&b);
        assert_eq!(d, union_of(&[(0, 1, 3), (2, 3, 3), (4, 5, 3), (6, 7, 3)]));
    }

    #[test]
    fn difference_with_spanning_subtrahend() {
        // One b-interval covering the tail of a₁ and the head of a₂ must be
        // consulted for both (the sweep may not advance past it).
        let a = union_of(&[(0, 3, 4), (5, 9, 4), (11, 12, 4)]);
        let b = union_of(&[(2, 6, 4), (8, 16, 4)]);
        assert_eq!(a.difference(&b), union_of(&[(0, 2, 4), (6, 8, 4)]));
    }

    #[test]
    fn subset_relation() {
        let a = union_of(&[(0, 2, 3), (4, 6, 3)]);
        let sub = union_of(&[(0, 1, 3), (5, 6, 3)]);
        assert!(sub.is_subset_of(&a));
        assert!(!a.is_subset_of(&sub));
        assert!(IntervalUnion::empty().is_subset_of(&a));
        assert!(a.is_subset_of(&IntervalUnion::unit()));
        // An interval spanning a gap of the candidate superset is not covered.
        let spanning = union_of(&[(1, 5, 3)]);
        assert!(!spanning.is_subset_of(&a));
    }

    #[test]
    fn total_length_and_contains_point() {
        let a = union_of(&[(0, 1, 2), (2, 3, 2)]);
        assert_eq!(a.total_length(), Dyadic::from_pow2_neg(1));
        assert!(a.contains_point(&Dyadic::zero()));
        assert!(a.contains_point(&Dyadic::from_pow2_neg(1)));
        assert!(!a.contains_point(&Dyadic::from_pow2_neg(2)));
        assert!(!a.contains_point(&Dyadic::from_parts(BigUint::from(3u64), 2)));
        assert!(!IntervalUnion::empty().contains_point(&Dyadic::zero()));
        assert!(!a.contains_point(&Dyadic::one()));
    }

    #[test]
    fn clone_shares_storage_and_writers_detach() {
        let a = union_of(&[(0, 2, 3), (4, 6, 3)]);
        let b = a.clone();
        assert!(b.shares_storage_with(&a));
        assert_eq!(a, b);

        // A no-op write does not detach.
        let mut c = a.clone();
        assert!(!c.union_in_place(&union_of(&[(0, 1, 3)])));
        assert!(c.shares_storage_with(&a));

        // A real write detaches this handle and leaves the siblings untouched.
        let mut d = a.clone();
        assert!(d.union_in_place(&union_of(&[(7, 8, 3)])));
        assert!(!d.shares_storage_with(&a));
        assert_eq!(a, b, "sibling changed by a CoW write");
        assert_eq!(a, union_of(&[(0, 2, 3), (4, 6, 3)]));
        assert_eq!(d, union_of(&[(0, 2, 3), (4, 6, 3), (7, 8, 3)]));
    }

    #[test]
    fn union_into_empty_self_shares_the_operand_buffer() {
        let label = union_of(&[(1, 3, 3)]);
        let mut acc = IntervalUnion::empty();
        assert!(acc.union_in_place(&label));
        assert!(acc.shares_storage_with(&label), "∅ ∪ x must alias x");
        // Equal values in distinct buffers do not count as shared.
        assert!(!label.deep_clone().shares_storage_with(&label));
        assert_eq!(label.deep_clone(), label);
        // Empty handles trivially share (there is no buffer to differ on).
        assert!(IntervalUnion::empty().shares_storage_with(&IntervalUnion::empty()));
        assert!(IntervalUnion::empty()
            .deep_clone()
            .shares_storage_with(&IntervalUnion::empty()));
    }

    #[test]
    fn shared_operand_fast_paths_are_exact() {
        let a = union_of(&[(0, 2, 3), (4, 6, 3)]);
        let b = a.clone();
        assert_eq!(a.union(&b), a);
        assert_eq!(a.intersection(&b), a);
        assert!(a.difference(&b).is_empty());
        assert!(a.is_subset_of(&b));
        assert!(a.intersects(&b));
        let mut c = a.clone();
        assert!(!c.union_in_place(&b));
        assert!(!c.intersect_assign(&b));
        assert!(c.subtract_assign(&b));
        assert!(c.is_empty());
    }

    #[test]
    fn canonical_partition_is_a_partition() {
        let alpha = union_of(&[(0, 3, 3), (5, 7, 3)]);
        for parts in 1..=8usize {
            let pieces = canonical_partition(&alpha, parts).unwrap();
            assert_eq!(pieces.len(), parts);
            // Pairwise disjoint.
            for i in 0..pieces.len() {
                for j in i + 1..pieces.len() {
                    assert!(
                        !pieces[i].intersects(&pieces[j]),
                        "parts {i} and {j} overlap for split into {parts}"
                    );
                }
            }
            // Union reassembles alpha.
            let mut total = IntervalUnion::empty();
            for p in &pieces {
                total.union_in_place(p);
            }
            assert_eq!(total, alpha, "partition into {parts} loses mass");
        }
    }

    #[test]
    fn canonical_partition_of_unit_gives_nonempty_leading_parts() {
        // Used for labels: every vertex with out-degree d keeps piece 0 of a
        // (d+1)-way partition, which must be non-empty whenever the input is.
        for parts in 2..=9usize {
            let pieces = canonical_partition(&IntervalUnion::unit(), parts).unwrap();
            for (idx, p) in pieces.iter().enumerate().take(parts - 1) {
                assert!(!p.is_empty(), "piece {idx} of {parts} is empty");
            }
        }
    }

    #[test]
    fn canonical_partition_edge_cases() {
        assert!(canonical_partition(&IntervalUnion::unit(), 0).is_err());
        let single = canonical_partition(&IntervalUnion::unit(), 1).unwrap();
        assert_eq!(single, vec![IntervalUnion::unit()]);
        let of_empty = canonical_partition(&IntervalUnion::empty(), 4).unwrap();
        assert!(of_empty.iter().all(IntervalUnion::is_empty));
    }

    #[test]
    fn canonical_partition_single_interval_last_part_empty() {
        // With a single maximal interval, the "rest" part is empty, as in the paper.
        let alpha = IntervalUnion::unit();
        let pieces = canonical_partition(&alpha, 4).unwrap();
        assert!(pieces[3].is_empty());
        assert!(!pieces[0].is_empty());
    }

    #[test]
    fn nonempty_partition_never_starves_a_part() {
        for parts in 1..=8usize {
            let pieces = canonical_partition_nonempty(&IntervalUnion::unit(), parts).unwrap();
            assert_eq!(pieces.len(), parts);
            let mut acc = IntervalUnion::empty();
            for p in &pieces {
                assert!(!p.is_empty(), "part empty for {parts}-way split");
                assert!(!acc.intersects(p));
                acc.union_in_place(p);
            }
            assert!(acc.is_unit());
        }
    }

    #[test]
    fn nonempty_partition_falls_back_for_fragmented_input() {
        let alpha = union_of(&[(0, 3, 3), (5, 7, 3)]);
        let a = canonical_partition(&alpha, 4).unwrap();
        let b = canonical_partition_nonempty(&alpha, 4).unwrap();
        assert_eq!(a, b);
        assert!(canonical_partition_nonempty(&IntervalUnion::unit(), 0).is_err());
        let of_empty = canonical_partition_nonempty(&IntervalUnion::empty(), 3).unwrap();
        assert!(of_empty.iter().all(IntervalUnion::is_empty));
    }

    #[test]
    fn wire_bits_grow_with_fragmentation() {
        let coarse = IntervalUnion::unit();
        let fine = union_of(&[(0, 1, 4), (2, 3, 4), (4, 5, 4), (6, 7, 4)]);
        assert!(fine.wire_bits() > coarse.wire_bits());
        assert!(IntervalUnion::empty().wire_bits() >= 1);
        // Sharing is invisible to the wire accounting.
        assert_eq!(fine.clone().wire_bits(), fine.wire_bits());
        assert_eq!(fine.deep_clone().wire_bits(), fine.wire_bits());
        // Identical to the per-interval encoding the intervals would charge.
        let per_interval: u64 = fine.iter().map(|iv| iv.endpoint_bits()).sum();
        assert_eq!(fine.wire_bits(), bits::elias_gamma_bits(4) + per_interval);
    }

    #[test]
    fn iteration_and_first_interval() {
        let u = union_of(&[(0, 1, 3), (2, 3, 3), (5, 6, 3)]);
        let listed: Vec<Interval> = u.iter().collect();
        assert_eq!(listed, vec![iv(0, 1, 3), iv(2, 3, 3), iv(5, 6, 3)]);
        assert_eq!(u.iter().len(), 3);
        assert_eq!(u.first_interval(), Some(iv(0, 1, 3)));
        assert_eq!(IntervalUnion::empty().first_interval(), None);
        // Borrowing IntoIterator matches iter().
        let via_into: Vec<Interval> = (&u).into_iter().collect();
        assert_eq!(via_into, listed);
    }

    #[test]
    fn from_iterator_and_extend() {
        let parts = Interval::unit().split(4).unwrap();
        let collected: IntervalUnion = parts.iter().cloned().collect();
        assert!(collected.is_unit());
        let mut partial = IntervalUnion::from(parts[0].clone());
        partial.extend(parts[1..].iter().cloned());
        assert!(partial.is_unit());
    }

    #[test]
    fn ord_and_hash_follow_the_endpoint_array() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = union_of(&[(0, 1, 3)]);
        let b = union_of(&[(0, 1, 3), (2, 3, 3)]);
        assert!(a < b, "prefix orders before its extension");
        assert!(IntervalUnion::empty() < a);
        let hash = |u: &IntervalUnion| {
            let mut h = DefaultHasher::new();
            u.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&a.deep_clone()));
        assert_eq!(hash(&a), hash(&a.clone()));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(IntervalUnion::empty().to_string(), "∅");
        assert!(IntervalUnion::unit().to_string().contains("[0, 1)"));
    }
}
