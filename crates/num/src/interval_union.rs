//! Finite unions of disjoint intervals over `[0, 1)` — the commodity of the
//! general-graph protocols (Definition 4.1).

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::{bits, Dyadic, Interval, NumError};

/// An element of `U[0, 1)`: a finite union of disjoint half-open intervals.
///
/// # Representation: the flattened endpoint array
///
/// The value is stored as one dense buffer of alternating endpoints
/// `[lo₀, hi₀, lo₁, hi₁, …]` rather than a list of interval structs. The
/// buffer obeys three invariants, which together are the **canonical-form
/// contract**:
///
/// 1. **Even length** — endpoints come in `(lo, hi)` pairs; pair `i` denotes
///    the half-open interval `[e[2i], e[2i+1])`.
/// 2. **Strictly increasing** — `e[k] < e[k+1]` for every `k`. Within a pair
///    this says the interval is non-empty (`lo < hi`); across pairs
///    (`hi_i < lo_{i+1}`, the *canonical gap rule*) it says consecutive
///    intervals are disjoint **and non-adjacent** — touching intervals are
///    merged at construction time, so a gap between pairs is always a strict
///    gap of positive measure.
/// 3. **Empty is empty** — the empty set holds no buffer, never a
///    zero-length one, so `is_empty` is a null check.
///
/// # Endpoint storage: fixed-point words, exact dyadics past 127 bits
///
/// The buffer holds its endpoints in one of two encodings:
///
/// * **Words.** An endpoint `v ∈ [0, 1]` with at most 127 fractional bits is
///   the `u128` word `v · 2¹²⁷`, so `1` is `2¹²⁷`. Comparing two words is one
///   integer compare, with no representation branch and no heap mantissa, and
///   an endpoint takes 16 bytes. Every endpoint the protocols produce on
///   networks of moderate depth fits: each canonical partition appends
///   `O(log d)` bits (Theorem 4.3).
/// * **Exact.** A `Vec<Dyadic>`, used only when some endpoint lies above 1
///   ([`Interval::new`] accepts it) or has more than 127 fractional bits —
///   deep chains of partitions reach them.
///
/// A fourth invariant, the **canonical representation**, makes the encoding
/// a function of the value: a union is stored as words *exactly when* every
/// endpoint fits a word. Equal values therefore share one encoding, so `==`,
/// [`Ord`] and [`Hash`](std::hash::Hash) compare or hash the stored buffers
/// directly, as [`Dyadic`]'s inline/heap invariant lets it derive its own.
/// Debug builds check all four invariants after every operation, and
/// [`IntervalUnion::is_word_sized`] reports the encoding.
///
/// Values change encoding only at the API edges. [`Interval`]s and
/// [`Dyadic`]s come in through [`From<Interval>`],
/// [`IntervalUnion::from_intervals`] and [`IntervalUnion::contains_point`],
/// and go out through [`IntervalUnion::iter`],
/// [`IntervalUnion::first_interval`], [`IntervalUnion::endpoints`] and
/// [`IntervalUnion::total_length`]; the canonical partitions split the first
/// interval as dyadics. Inside, every merge kernel has one body, generic over
/// the endpoint type, which runs on the encoding both operands share. An
/// operand pair of mixed encodings runs on dyadics, the word side converted,
/// and the result is stored as words again when every endpoint fits.
///
/// # The set operations
///
/// Two values compare equal with `==` exactly when they denote the same point
/// set. The set operations *rely* on canonicity: they walk the two flat
/// buffers in one pass with no sorting and no re-canonicalisation, and strict
/// non-adjacency means a merge never needs to look more than one emitted pair
/// back. They cost in proportion to the **smaller** operand, not to the
/// receiver's whole state, because the protocols apply a delta of a pair or
/// two to a state of tens to thousands of pairs on every delivery:
///
/// * [`IntervalUnion::intersection`] skips runs of either operand's pairs
///   that lie before the other operand's current pair by an
///   exponential-then-binary search, so a `k`-pair operand against an
///   `n`-pair one costs O(k log n) comparisons plus the output;
///   [`IntervalUnion::difference`] skips the subtrahend's pairs the same
///   way, so carving a `k`-pair delta by an `n`-pair state costs the same;
/// * [`IntervalUnion::union_in_place`] with an operand of at most a quarter
///   of `self`'s size binary-searches, per part, the window of own pairs the
///   part overlaps or touches, and splices the merged pair into the buffer in
///   place (O(k log n) comparisons and one tail move per part that adds or
///   absorbs pairs); operands of comparable size, and the out-of-place
///   [`IntervalUnion::union`], take one linear merge of both arrays.
///
/// The original collect-sort-merge implementations over dyadics are retained
/// in [`crate::reference`] for differential testing.
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
/// [`IntervalUnion::subtract_assign`]) either merge into a thread-local
/// scratch buffer (one per encoding) and then *adopt* the result, or (a
/// small operand's union) splice it into the buffer itself — reusing the
/// existing allocation when this handle is the buffer's sole owner, and
/// detaching onto a fresh buffer (leaving every sibling handle untouched)
/// when the buffer is shared. Mutating through one handle therefore
/// **never** changes the value observed through another; sharing is an
/// invisible optimisation, observable only through
/// [`IntervalUnion::shares_storage_with`] (and the allocator).
///
/// # Allocation contract of the in-place writes
///
/// On operands of one encoding, an in-place write allocates only for a
/// result that is new and non-empty:
///
/// * a write that changes nothing keeps this handle — shared or not, it
///   never detaches — and allocates nothing;
/// * a write that empties the value leaves the empty set, with no buffer
///   built (the shape of `delta \= state` for a delta the state already
///   holds);
/// * a sole owner's merged result swaps buffers with the scratch, so both
///   allocations are recycled, and a splice grows the buffer in place;
/// * a shared receiver detaches onto a buffer of exactly the result's size,
///   its endpoints moved out of the scratch rather than cloned. The scratch
///   keeps its capacity, so steady-state traffic allocates nothing beyond
///   the results it keeps, and a detached one-pair result does not inherit
///   the capacity of the largest merge the thread ever ran.
///
/// A word-sized value written with an exact operand (or the reverse) first
/// converts the word side to dyadics, which allocates.
///
/// All set operations (`union`, `intersection`, `difference`) are exact, and
/// [`IntervalUnion::wire_bits`] still charges the *encoded intervals* — the
/// paper's bit counts are a property of the value, not of how many handles
/// share its buffer or how its endpoints are stored.
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
    /// `None` ⟺ the empty set; `Some` holds the canonical endpoint buffer.
    /// One pointer, so messages carrying unions stay small.
    endpoints: Option<Arc<Buffer>>,
}

/// The endpoint array of a non-empty [`IntervalUnion`] in its canonical
/// encoding (non-empty, even length, strictly increasing; an in-place write
/// may leave it exact with every endpoint fitting a word until
/// [`IntervalUnion::settle`] runs). The derived `==` and `Hash` are
/// value-based because the encoding is a function of the value.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Buffer {
    /// Every endpoint as a fixed-point word with [`FRACTION_BITS`]
    /// fractional bits, at most [`ONE`].
    Words(Vec<u128>),
    /// Some endpoint does not fit a word.
    Exact(Vec<Dyadic>),
}

/// One endpoint encoding of a [`Buffer`]: `u128` words or exact [`Dyadic`]s.
/// The copy-on-write kernels are generic over it; an implementation only
/// maps the encoding to its buffer variant and its scratch buffer.
trait Endpoint: Ord + Clone {
    /// The endpoints of a buffer stored in this encoding.
    fn of(buffer: &Buffer) -> &[Self];
    /// The endpoint vector of a buffer stored in this encoding.
    fn of_mut(buffer: &mut Buffer) -> &mut Vec<Self>;
    /// A buffer storing `endpoints` in this encoding.
    fn store(endpoints: Vec<Self>) -> Buffer;
    /// Runs `f` on this encoding's thread-local merge buffer.
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self>) -> R) -> R;
}

impl Buffer {
    fn len(&self) -> usize {
        match self {
            Buffer::Words(w) => w.len(),
            Buffer::Exact(e) => e.len(),
        }
    }
}

impl Endpoint for u128 {
    fn of(buffer: &Buffer) -> &[u128] {
        match buffer {
            Buffer::Words(w) => w,
            Buffer::Exact(_) => unreachable!("an exact buffer read as words"),
        }
    }

    fn of_mut(buffer: &mut Buffer) -> &mut Vec<u128> {
        match buffer {
            Buffer::Words(w) => w,
            Buffer::Exact(_) => unreachable!("an exact buffer written as words"),
        }
    }

    fn store(endpoints: Vec<u128>) -> Buffer {
        Buffer::Words(endpoints)
    }

    fn with_scratch<R>(f: impl FnOnce(&mut Vec<u128>) -> R) -> R {
        WORD_SCRATCH.with_borrow_mut(f)
    }
}

impl Endpoint for Dyadic {
    fn of(buffer: &Buffer) -> &[Dyadic] {
        match buffer {
            Buffer::Exact(e) => e,
            Buffer::Words(_) => unreachable!("a word buffer read as dyadics"),
        }
    }

    fn of_mut(buffer: &mut Buffer) -> &mut Vec<Dyadic> {
        match buffer {
            Buffer::Exact(e) => e,
            Buffer::Words(_) => unreachable!("a word buffer written as dyadics"),
        }
    }

    fn store(endpoints: Vec<Dyadic>) -> Buffer {
        Buffer::Exact(endpoints)
    }

    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Dyadic>) -> R) -> R {
        EXACT_SCRATCH.with_borrow_mut(f)
    }
}

/// Fractional bits of a word endpoint: the word `w` stands for `w / 2¹²⁷`.
const FRACTION_BITS: u32 = 127;

/// The word of the endpoint 1.
const ONE: u128 = 1 << FRACTION_BITS;

/// The word of a dyadic, if it lies in `[0, 1]` with at most
/// [`FRACTION_BITS`] fractional bits.
#[inline]
fn word(d: &Dyadic) -> Option<u128> {
    d.to_fixed(FRACTION_BITS)
}

/// The value of a word.
#[inline]
fn dyadic(w: u128) -> Dyadic {
    Dyadic::from_fixed(w, FRACTION_BITS)
}

/// The words of a dyadic endpoint array, if every endpoint fits one.
fn words_of(e: &[Dyadic]) -> Option<Vec<u128>> {
    // Check before allocating: an exact array usually fails early.
    if e.iter().any(|d| word(d).is_none()) {
        return None;
    }
    Some(e.iter().filter_map(word).collect())
}

/// [`Dyadic::positional_bits`] of a word's value: 0 for 0, 1 for 1, and
/// otherwise its fractional bits.
#[inline]
fn positional_bits(w: u128) -> u64 {
    match w {
        0 => 0,
        ONE => 1,
        w => u64::from(FRACTION_BITS - w.trailing_zeros()),
    }
}

/// [`IntervalUnion::union_in_place`] splices the other operand's parts into
/// place when `self` has at least this many times its endpoints, and merges
/// the two arrays linearly when their sizes are comparable.
const SPLICE_RATIO: usize = 4;

thread_local! {
    /// Reusable merge buffer of the in-place ops on word-sized values.
    static WORD_SCRATCH: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
    /// Reusable merge buffer of the in-place ops on exact values.
    static EXACT_SCRATCH: RefCell<Vec<Dyadic>> = const { RefCell::new(Vec::new()) };
}

/// Picks the interval with the smaller lower endpoint off the front of `a` or
/// `b` (cursors `i`/`j` advance by a whole pair), for the union merge.
#[inline]
fn next_pair<'a, E: Ord>(
    a: &'a [E],
    b: &'a [E],
    i: &mut usize,
    j: &mut usize,
) -> Option<(&'a E, &'a E)> {
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
fn union_into<E: Ord + Clone>(a: &[E], b: &[E], out: &mut Vec<E>) {
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

/// Which endpoint of a pair [`skip_pairs`] tests.
const START: usize = 0;
/// See [`START`].
const END: usize = 1;

/// The first pair at or after the pair index `from` whose endpoint `side`
/// ([`START`] or [`END`]) fails `holds` (`e.len()` if none does), for a
/// predicate on endpoints that holds on a prefix of `e` — every pair skipped
/// satisfies it.
///
/// Pairs are probed one, two, four, … ahead and the answer is then
/// binary-searched inside the last stride, so a skip of `d` pairs costs
/// O(log d) comparisons — and a skip of none costs one comparison, inline,
/// which keeps merges of comparable operands as cheap as a plain two-pointer
/// walk.
#[inline(always)]
fn skip_pairs<E>(e: &[E], from: usize, side: usize, holds: impl Fn(&E) -> bool) -> usize {
    if from == e.len() || !holds(&e[from + side]) {
        return from;
    }
    gallop_pairs(e, from, side, holds)
}

/// [`skip_pairs`] past its first step: the pair at `from` is known to be
/// skipped.
#[inline(never)]
fn gallop_pairs<E>(e: &[E], from: usize, side: usize, holds: impl Fn(&E) -> bool) -> usize {
    // The pair at `done` is skipped.
    let (mut done, mut step) = (from, 2);
    loop {
        let probe = done + step;
        if probe >= e.len() || !holds(&e[probe + side]) {
            let rest = &e[done + 2..probe.min(e.len())];
            // An odd count of endpoints that hold means the predicate changes
            // inside a pair: that pair fails on its end, holds on its start.
            let count = rest.partition_point(&holds);
            return done + 2 + ((count + 1 - side) & !1);
        }
        done = probe;
        step *= 2;
    }
}

/// Intersection of two canonical endpoint arrays. Runs of pairs of either
/// operand that end before the other's current pair starts are skipped by
/// [`skip_pairs`], so a small operand against a large one costs
/// O(small · log large) comparisons plus the output.
///
/// Output pieces inherit sortedness, and consecutive pieces are separated by a
/// strict gap (whichever operand interval ended starts its successor strictly
/// beyond the piece's end, by non-adjacency), so `out` is canonical.
fn intersection_into<E: Ord + Clone>(a: &[E], b: &[E], out: &mut Vec<E>) {
    debug_assert!(out.is_empty());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (xl, xh) = (&a[i], &a[i + 1]);
        let (yl, yh) = (&b[j], &b[j + 1]);
        if xh <= yl {
            i = skip_pairs(a, i + 2, END, |x| x <= yl);
        } else if yh <= xl {
            j = skip_pairs(b, j + 2, END, |x| x <= xl);
        } else {
            let x_ends_first = xh <= yh;
            out.push(if xl >= yl { xl } else { yl }.clone());
            if x_ends_first {
                out.push(xh.clone());
                i += 2;
            } else {
                out.push(yh.clone());
                j += 2;
            }
        }
    }
}

/// `a \ b` for canonical endpoint arrays. The `b`-pairs ending before the
/// current `a`-pair starts are skipped by [`skip_pairs`], so a small `a`
/// against a large `b` — a delta carved by a state — costs
/// O(small · log large) comparisons plus the output. `out` is canonical by
/// construction (pieces of one `a`-interval are strictly separated by carved
/// `b`-mass, and distinct `a`-intervals by `a`'s own gaps).
fn difference_into<E: Ord + Clone>(a: &[E], b: &[E], out: &mut Vec<E>) {
    debug_assert!(out.is_empty());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() {
        let (xl, xh) = (&a[i], &a[i + 1]);
        // b-intervals ending by x's start cannot affect x or any later a-interval.
        if j < b.len() && b[j + 1] <= *xl {
            j = skip_pairs(b, j + 2, END, |x| x <= xl);
        }
        // The sweep cursor is a reference into the operands; endpoints are
        // cloned only when a surviving piece is emitted.
        let mut cursor: &E = xl;
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

/// The in-place union for an operand much smaller than `own`, the shape of
/// every protocol delivery (a delta of a pair or two merged into an
/// accumulated state of tens to thousands of pairs); returns whether the
/// value changed.
///
/// Each part of `parts` (a canonical endpoint array) finds the window of own
/// pairs it overlaps or touches — by binary search for the first part, by
/// [`skip_pairs`] onward from there for the rest — and that window is
/// replaced in place by the one merged pair: O(|parts| · log |own|)
/// comparisons plus one tail move per part that inserts or absorbs pairs,
/// instead of a merge over the whole own array and a full-array change
/// check. Parts at or above the top endpoint (the shape of an accumulator
/// absorbing mass in ascending order) need no search and move nothing.
///
/// Copy-on-write is unchanged: the leading parts `own` already covers are
/// checked without writing, so a no-op union never detaches a shared buffer,
/// and the first uncovered part detaches it (leaving every sibling handle on
/// the old value) before anything is written.
fn splice_union<E: Endpoint>(own: &mut Arc<Buffer>, parts: &[E]) -> bool {
    let e = E::of(own);
    // The first own pair ending at or after a part's start is the only one
    // that can cover the part. A first part at or above the top endpoint
    // (an accumulator absorbing mass in ascending order) needs no search;
    // one below lands anywhere (a binary search); later parts land at or
    // after it (a galloping skip).
    let last = e.len() - 1;
    let mut start = match parts[0].cmp(&e[last]) {
        Ordering::Greater => e.len(),
        Ordering::Equal => last - 1,
        Ordering::Less => e.partition_point(|x| x < &parts[0]) & !1,
    };
    let mut k = 0;
    while start < e.len() && e[start] <= parts[k] && parts[k + 1] <= e[start + 1] {
        k += 2;
        if k == parts.len() {
            return false;
        }
        start = skip_pairs(e, start, END, |x| x < &parts[k]);
    }
    let buf = E::of_mut(Arc::make_mut(own));
    for part in parts[k..].chunks_exact(2) {
        let (lo, hi) = (&part[0], &part[1]);
        // Window [start, end): own pairs ending at or after `lo` and
        // starting at or before `hi` (touching pairs merge, as the
        // canonical gap rule demands).
        start = skip_pairs(buf, start, END, |x| x < lo);
        let end = skip_pairs(buf, start, START, |x| x <= hi);
        if start == end {
            buf.splice(start..start, [lo.clone(), hi.clone()]);
        } else {
            if lo < &buf[start] {
                buf[start] = lo.clone();
            }
            if hi > &buf[end - 1] {
                buf[end - 1] = hi.clone();
            }
            buf.drain(start + 1..end - 1);
        }
        // The next part starts above `hi` but may still touch the pair at
        // `start`, so its search starts there.
    }
    true
}

/// Makes the merged endpoint array `scratch` the value of `endpoints` (a
/// non-empty value) when it differs from it; returns whether it did, and
/// always leaves `scratch` cleared with its capacity kept.
///
/// This is where copy-on-write happens, under the type's allocation
/// contract: an unchanged value keeps its handle, an emptied one holds no
/// buffer, a sole owner swaps buffers with `scratch`, and a shared one
/// detaches onto an exact-size buffer its endpoints are moved into, so the
/// scratch keeps the capacity of the largest merge and the result does not.
fn adopt_if_changed<E: Endpoint>(
    endpoints: &mut Option<Arc<Buffer>>,
    scratch: &mut Vec<E>,
) -> bool {
    let own = endpoints
        .as_mut()
        .expect("an in-place write takes a non-empty value");
    let changed = E::of(own) != scratch.as_slice();
    if changed {
        if scratch.is_empty() {
            *endpoints = None;
        } else if let Some(buffer) = Arc::get_mut(own) {
            std::mem::swap(E::of_mut(buffer), scratch);
        } else {
            let mut detached = Vec::with_capacity(scratch.len());
            detached.append(scratch);
            *own = Arc::new(E::store(detached));
        }
    }
    scratch.clear();
    changed
}

/// `a ⊆ b` for canonical endpoint arrays: since `b` is non-adjacent, each
/// interval of `a` must lie inside a *single* maximal interval of `b` — the
/// first one not ending before it does. [`skip_pairs`] gallops to that pair,
/// so testing whether an `n`-pair state already holds a `k`-pair delta costs
/// O(k log n) comparisons.
fn is_subset<E: Ord>(a: &[E], b: &[E]) -> bool {
    let mut j = 0usize;
    for pair in a.chunks_exact(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        j = skip_pairs(b, j, END, |x| x < hi);
        if j == b.len() || &b[j] > lo {
            return false;
        }
    }
    true
}

/// Whether two canonical endpoint arrays share a point: a two-pointer sweep
/// with early exit.
fn overlaps<E: Ord>(a: &[E], b: &[E]) -> bool {
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

/// A binary set operation, run by one merge kernel body on either encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetOp {
    Union,
    Intersection,
    Difference,
}

impl SetOp {
    /// Merges two canonical endpoint arrays into the empty `out`.
    fn merge_into<E: Ord + Clone>(self, a: &[E], b: &[E], out: &mut Vec<E>) {
        match self {
            SetOp::Union => union_into(a, b, out),
            SetOp::Intersection => intersection_into(a, b, out),
            SetOp::Difference => difference_into(a, b, out),
        }
    }

    /// The merged canonical endpoint array of `a` and `b`, in a fresh buffer.
    fn merged<E: Ord + Clone>(self, a: &[E], b: &[E]) -> Vec<E> {
        // A union never outgrows both inputs; the other outputs are usually
        // a delta's few pieces, so they grow on demand.
        let capacity = if self == SetOp::Union {
            a.len() + b.len()
        } else {
            0
        };
        let mut out = Vec::with_capacity(capacity);
        self.merge_into(a, b, &mut out);
        out
    }

    /// `endpoints ∘= other` for a non-empty value stored in encoding `E`,
    /// through that encoding's scratch buffer; returns whether the value
    /// changed. A union with an operand of at most 1/[`SPLICE_RATIO`] of the
    /// value's size is spliced in place. The result may be exact with every
    /// endpoint fitting a word: the caller restores the canonical
    /// representation.
    fn assign<E: Endpoint>(self, endpoints: &mut Option<Arc<Buffer>>, other: &[E]) -> bool {
        let own = endpoints
            .as_mut()
            .expect("an in-place write takes a non-empty value");
        if self == SetOp::Union && other.len() * SPLICE_RATIO <= E::of(own).len() {
            return splice_union(own, other);
        }
        E::with_scratch(|scratch| {
            scratch.clear();
            let own = endpoints.as_deref().expect("checked non-empty above");
            self.merge_into(E::of(own), other, scratch);
            adopt_if_changed(endpoints, scratch)
        })
    }
}

/// A borrowed endpoint array in either encoding, read as dyadics.
#[derive(Debug, Clone, Copy)]
enum Ends<'a> {
    Words(&'a [u128]),
    Exact(&'a [Dyadic]),
}

impl Ends<'_> {
    fn len(self) -> usize {
        match self {
            Ends::Words(w) => w.len(),
            Ends::Exact(e) => e.len(),
        }
    }

    fn get(self, i: usize) -> Dyadic {
        match self {
            Ends::Words(w) => dyadic(w[i]),
            Ends::Exact(e) => e[i].clone(),
        }
    }
}

/// Two operands' endpoint arrays in one encoding.
enum Pair<'a> {
    /// Both operands are word-sized.
    Words(&'a [u128], &'a [u128]),
    /// At least one operand is exact; a word-sized one is converted.
    Exact(Cow<'a, [Dyadic]>, Cow<'a, [Dyadic]>),
}

impl IntervalUnion {
    fn ends(&self) -> Ends<'_> {
        match self.endpoints.as_deref() {
            None => Ends::Words(&[]),
            Some(Buffer::Words(w)) => Ends::Words(w),
            Some(Buffer::Exact(e)) => Ends::Exact(e),
        }
    }

    /// The endpoint array as words, if the value is word-sized.
    fn words(&self) -> Option<&[u128]> {
        match self.endpoints.as_deref() {
            None => Some(&[]),
            Some(Buffer::Words(w)) => Some(w),
            Some(Buffer::Exact(_)) => None,
        }
    }

    /// The endpoint array as dyadics (converted from words if need be).
    fn exact(&self) -> Cow<'_, [Dyadic]> {
        match self.endpoints.as_deref() {
            None => Cow::Borrowed(&[]),
            Some(Buffer::Words(w)) => Cow::Owned(w.iter().map(|&v| dyadic(v)).collect()),
            Some(Buffer::Exact(e)) => Cow::Borrowed(e),
        }
    }
}

/// The operands' endpoint arrays on words when both are word-sized, and on
/// dyadics otherwise.
fn pair<'a>(a: &'a IntervalUnion, b: &'a IntervalUnion) -> Pair<'a> {
    match (a.words(), b.words()) {
        (Some(x), Some(y)) => Pair::Words(x, y),
        _ => Pair::Exact(a.exact(), b.exact()),
    }
}

/// Borrowing iterator over the maximal disjoint intervals of an
/// [`IntervalUnion`], yielding each pair of endpoints as an owned
/// [`Interval`] (allocation-free while the endpoints' mantissas fit the
/// [`Dyadic`] inline fast path).
#[derive(Debug, Clone)]
pub struct Intervals<'a> {
    ends: Ends<'a>,
    next: usize,
}

impl Iterator for Intervals<'_> {
    type Item = Interval;

    fn next(&mut self) -> Option<Interval> {
        if self.next >= self.ends.len() {
            return None;
        }
        let iv = Interval::new_unchecked(self.ends.get(self.next), self.ends.get(self.next + 1));
        self.next += 2;
        Some(iv)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.ends.len() - self.next) / 2;
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
        IntervalUnion::from_words(vec![0, ONE])
    }

    /// Wraps a canonical buffer, or the empty set for an empty one
    /// (debug-asserted).
    fn from_buffer(buffer: Buffer) -> Self {
        let out = IntervalUnion {
            endpoints: (buffer.len() > 0).then(|| Arc::new(buffer)),
        };
        out.debug_assert_canonical();
        out
    }

    /// Wraps a canonical word array.
    fn from_words(words: Vec<u128>) -> Self {
        IntervalUnion::from_buffer(Buffer::Words(words))
    }

    /// Wraps a canonical dyadic array, stored as words when every endpoint
    /// fits one.
    fn from_dyadics(endpoints: Vec<Dyadic>) -> Self {
        IntervalUnion::from_buffer(match words_of(&endpoints) {
            Some(words) => Buffer::Words(words),
            None => Buffer::Exact(endpoints),
        })
    }

    /// Restores the canonical representation after an in-place write changed
    /// the value: an exact buffer whose endpoints now all fit words becomes
    /// words.
    fn settle(&mut self) {
        if let Some(Buffer::Exact(e)) = self.endpoints.as_deref() {
            if let Some(words) = words_of(e) {
                self.endpoints = Some(Arc::new(Buffer::Words(words)));
            }
        }
        self.debug_assert_canonical();
    }

    #[inline]
    fn debug_assert_canonical(&self) {
        #[cfg(debug_assertions)]
        {
            fn assert_pairs<E: Ord>(e: &[E]) {
                debug_assert!(!e.is_empty(), "empty set must hold no buffer");
                debug_assert!(e.len().is_multiple_of(2), "endpoint array has odd length");
                for w in e.windows(2) {
                    debug_assert!(
                        w[0] < w[1],
                        "endpoint array is not strictly increasing (empty, unsorted, \
                         overlapping or adjacent intervals)"
                    );
                }
            }
            match self.endpoints.as_deref() {
                None => {}
                Some(Buffer::Words(w)) => {
                    assert_pairs(w);
                    debug_assert!(w.last() <= Some(&ONE), "word endpoint above one");
                }
                Some(Buffer::Exact(e)) => {
                    assert_pairs(e);
                    debug_assert!(
                        e.iter().any(|d| word(d).is_none()),
                        "exact buffer whose endpoints all fit words"
                    );
                }
            }
        }
    }

    /// The flattened canonical endpoint array `[lo₀, hi₀, lo₁, hi₁, …]` as
    /// owned dyadics: even length, strictly increasing (see the type-level
    /// invariants).
    pub fn endpoints(&self) -> impl ExactSizeIterator<Item = Dyadic> + '_ {
        let ends = self.ends();
        (0..ends.len()).map(move |i| ends.get(i))
    }

    /// Returns `true` unless some endpoint lies above 1 or has more than 127
    /// fractional bits — that is, when the endpoints are stored as 128-bit
    /// fixed-point words (the empty union is word-sized). Like
    /// [`Dyadic::is_inline`], this observes the representation, not the
    /// value's behaviour.
    #[inline]
    pub fn is_word_sized(&self) -> bool {
        !matches!(self.endpoints.as_deref(), Some(Buffer::Exact(_)))
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
                .map(|buffer| Arc::new(Buffer::clone(buffer))),
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
        IntervalUnion::from_dyadics(out)
    }

    /// Returns `true` if the union contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_none()
    }

    /// Returns `true` if the union is exactly `[0, 1)` — the terminal's acceptance
    /// condition `α ∪ β = [0, 1)`.
    pub fn is_unit(&self) -> bool {
        self.words() == Some(&[0, ONE][..])
    }

    /// Number of maximal disjoint intervals.
    #[inline]
    pub fn interval_count(&self) -> usize {
        self.ends().len() / 2
    }

    /// Iterates over the maximal disjoint intervals in increasing order.
    pub fn iter(&self) -> Intervals<'_> {
        Intervals {
            ends: self.ends(),
            next: 0,
        }
    }

    /// The first (smallest) maximal interval, if any.
    pub fn first_interval(&self) -> Option<Interval> {
        self.iter().next()
    }

    /// Every maximal interval but the first.
    fn rest(&self) -> IntervalUnion {
        match self.endpoints.as_deref() {
            None => IntervalUnion::empty(),
            Some(Buffer::Words(w)) => IntervalUnion::from_words(w[2..].to_vec()),
            Some(Buffer::Exact(e)) => IntervalUnion::from_dyadics(e[2..].to_vec()),
        }
    }

    /// Total measure of the union.
    pub fn total_length(&self) -> Dyadic {
        self.iter()
            .fold(Dyadic::zero(), |total, iv| &total + &iv.length())
    }

    /// Returns `true` if the point lies in the union.
    pub fn contains_point(&self, point: &Dyadic) -> bool {
        // Binary search over the flat endpoint array: the number of endpoints
        // `<= point` is odd exactly when `point` falls inside a pair (it has
        // passed a `lo` but not the matching `hi`).
        let below = match (self.endpoints.as_deref(), word(point)) {
            (None, _) => 0,
            (Some(Buffer::Words(w)), Some(p)) => w.partition_point(|&e| e <= p),
            (Some(Buffer::Words(w)), None) => w.partition_point(|&e| dyadic(e) <= *point),
            (Some(Buffer::Exact(e)), _) => e.partition_point(|e| e <= point),
        };
        below % 2 == 1
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
        self.merged(other, SetOp::Union)
    }

    /// `self ∘ other` into a fresh buffer, in the operands' common encoding.
    /// Word operands always yield words (every output endpoint is an input
    /// endpoint); any other pair yields words when every endpoint fits.
    fn merged(&self, other: &IntervalUnion, op: SetOp) -> IntervalUnion {
        match pair(self, other) {
            Pair::Words(a, b) => IntervalUnion::from_words(op.merged(a, b)),
            Pair::Exact(a, b) => IntervalUnion::from_dyadics(op.merged(&a, &b)),
        }
    }

    /// `self ∘= other` for non-empty operands in separate buffers; returns
    /// whether the value changed. Word operands merge through the word
    /// scratch buffer (or splice, see [`SetOp::assign`]); an exact `self`
    /// merges through the dyadic one, a word-sized `other` converted. A
    /// word-sized `self` with an exact `other` merges out of place and is
    /// replaced only if the value changed.
    fn assign(&mut self, other: &IntervalUnion, op: SetOp) -> bool {
        let changed = match (self.is_word_sized(), other.words()) {
            (true, Some(theirs)) => op.assign(&mut self.endpoints, theirs),
            (false, _) => op.assign(&mut self.endpoints, &other.exact()),
            (true, None) => {
                let merged = self.merged(other, op);
                let changed = merged != *self;
                if changed {
                    *self = merged;
                }
                return changed;
            }
        };
        if changed {
            self.settle();
        }
        changed
    }

    /// In-place set union; returns `true` if the value changed.
    ///
    /// The general-graph protocol sends a message on an edge *iff* the relevant
    /// state component changed (Section 4), so change detection is part of the API.
    ///
    /// An operand of at most a quarter of `self`'s endpoints is spliced into
    /// the buffer in place, at O(log n) comparisons per part (see the type
    /// docs); comparable operands merge through a reusable thread-local
    /// scratch buffer. Steady-state calls on unshared word-sized values
    /// allocate nothing beyond buffer growth, and a call on a *shared* value
    /// detaches this handle only (copy-on-write — every sibling handle keeps
    /// the old value).
    pub fn union_in_place(&mut self, other: &IntervalUnion) -> bool {
        if other.is_empty() || self.shares_storage_with(other) {
            return false;
        }
        if self.is_empty() {
            // ∅ ∪ x = x: share x's buffer instead of copying it. This is how an
            // unchanged label floods onward as one buffer with many handles.
            self.endpoints = other.endpoints.clone();
            return true;
        }
        self.assign(other, SetOp::Union)
    }

    /// Set intersection — one pass over the two canonical operands, skipping
    /// runs of either operand's pairs by galloping search (O(k log n) for a
    /// `k`-pair operand against an `n`-pair one, plus the output).
    pub fn intersection(&self, other: &IntervalUnion) -> IntervalUnion {
        if self.is_empty() || other.is_empty() {
            return IntervalUnion::empty();
        }
        if self.shares_storage_with(other) {
            return self.clone();
        }
        self.merged(other, SetOp::Intersection)
    }

    /// In-place set intersection; returns `true` if the value changed.
    ///
    /// Merges through a reusable thread-local scratch buffer (copy-on-write on
    /// shared values, like [`IntervalUnion::union_in_place`]; see the type
    /// docs for what it allocates).
    pub fn intersect_assign(&mut self, other: &IntervalUnion) -> bool {
        if self.is_empty() || self.shares_storage_with(other) {
            return false;
        }
        if other.is_empty() {
            self.endpoints = None;
            return true;
        }
        self.assign(other, SetOp::Intersection)
    }

    /// Set difference `self \ other` — one pass over the two canonical
    /// operands, skipping runs of `other`'s pairs by galloping search
    /// (O(k log n) for a `k`-pair `self` against an `n`-pair `other`, plus
    /// the output).
    pub fn difference(&self, other: &IntervalUnion) -> IntervalUnion {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        if self.shares_storage_with(other) {
            return IntervalUnion::empty();
        }
        self.merged(other, SetOp::Difference)
    }

    /// In-place set difference `self \= other`; returns `true` if the value
    /// changed.
    ///
    /// Merges through a reusable thread-local scratch buffer (copy-on-write on
    /// shared values, like [`IntervalUnion::union_in_place`]). A result that
    /// is empty or unchanged allocates nothing, even on a shared value, and
    /// an unchanged one keeps sharing its buffer: carving a received delta
    /// in place on an O(1) clone allocates only for a result that differs
    /// from the delta, where the out-of-place [`IntervalUnion::difference`]
    /// builds a buffer for every non-empty result.
    pub fn subtract_assign(&mut self, other: &IntervalUnion) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.shares_storage_with(other) {
            // x \ x = ∅, and x is non-empty here.
            self.endpoints = None;
            return true;
        }
        self.assign(other, SetOp::Difference)
    }

    /// Returns `true` if `self ⊆ other`. Gallops over `other`'s pairs, so a
    /// `k`-pair `self` against an `n`-pair `other` costs O(k log n)
    /// comparisons. Allocation-free on operands of one encoding.
    pub fn is_subset_of(&self, other: &IntervalUnion) -> bool {
        if self.shares_storage_with(other) {
            return true;
        }
        match pair(self, other) {
            Pair::Words(a, b) => is_subset(a, b),
            Pair::Exact(a, b) => is_subset(&a, &b),
        }
    }

    /// Returns `true` if the two unions share at least one point.
    /// Allocation-free on word-sized operands.
    pub fn intersects(&self, other: &IntervalUnion) -> bool {
        if self.shares_storage_with(other) {
            return !self.is_empty();
        }
        match pair(self, other) {
            Pair::Words(a, b) => overlaps(a, b),
            Pair::Exact(a, b) => overlaps(&a, &b),
        }
    }

    /// Bits needed to transmit the union: a gamma-coded interval count followed by
    /// each interval's self-delimited endpoints.
    ///
    /// This charges the **encoded intervals**, independent of buffer sharing
    /// and of endpoint storage: a label flooded as one shared buffer with
    /// many handles still pays full price on every edge, so Theorem 4.3's
    /// `O(|E| · |V| log d_out)` bound is accounted exactly as before. A word's
    /// positional bits are read off the word itself (its fractional bits are
    /// 127 minus its trailing zeros).
    pub fn wire_bits(&self) -> u64 {
        let endpoints: u64 = match self.endpoints.as_deref() {
            None => 0,
            Some(Buffer::Words(w)) => w
                .iter()
                .map(|&w| bits::length_prefixed_bits(positional_bits(w)))
                .sum(),
            Some(Buffer::Exact(e)) => e
                .iter()
                .map(|d| bits::length_prefixed_bits(d.positional_bits()))
                .sum(),
        };
        bits::elias_gamma_bits(self.interval_count() as u64) + endpoints
    }
}

impl PartialEq for IntervalUnion {
    fn eq(&self, other: &Self) -> bool {
        // The derived buffer `==` never equates a word-sized value with an
        // exact one: by the canonical representation they differ.
        match (&self.endpoints, &other.endpoints) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            (None, None) => true,
            _ => false,
        }
    }
}

impl Eq for IntervalUnion {}

impl PartialOrd for IntervalUnion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IntervalUnion {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic on the flat endpoint arrays — identical to the
        // lexicographic order on interval lists, because pairs are
        // fixed-width — and, words being an order-preserving encoding, on
        // the stored buffers when both share one encoding.
        match (self.endpoints.as_deref(), other.endpoints.as_deref()) {
            (Some(Buffer::Words(a)), Some(Buffer::Words(b))) => a.cmp(b),
            (Some(Buffer::Exact(a)), Some(Buffer::Exact(b))) => a.cmp(b),
            _ => self.endpoints().cmp(other.endpoints()),
        }
    }
}

impl std::hash::Hash for IntervalUnion {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Value-based by the canonical representation: equal values hash
        // the same buffer.
        self.endpoints.as_deref().hash(state);
    }
}

impl From<Interval> for IntervalUnion {
    fn from(interval: Interval) -> Self {
        if interval.is_empty() {
            return IntervalUnion::empty();
        }
        let (lo, hi) = interval.into_parts();
        match (word(&lo), word(&hi)) {
            (Some(lo), Some(hi)) => IntervalUnion::from_words(vec![lo, hi]),
            _ => IntervalUnion::from_dyadics(vec![lo, hi]),
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
    let Some(first) = alpha.first_interval() else {
        return Ok(vec![IntervalUnion::empty(); parts]);
    };
    let mut out: Vec<IntervalUnion> = first
        .split(parts - 1)?
        .into_iter()
        .map(IntervalUnion::from)
        .collect();
    out.push(alpha.rest());
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

    fn words(u: &IntervalUnion) -> &[u128] {
        u.words().expect("grid endpoints are word-sized")
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
        assert_eq!(u.endpoints().len(), 0);
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

    /// Every shape [`IntervalUnion::splice_union`] distinguishes — append
    /// above the top (touching and gapped), covered no-op, covered prefix
    /// then append, insertion into an interior gap, absorption of one or
    /// several own pairs, bridging a gap, touching on either side, and parts
    /// below the bottom — checked against the linear merge. The cases call
    /// the splice directly: their states are too small for
    /// `union_in_place` to pick it.
    #[test]
    fn splice_union_matches_the_linear_merge() {
        type Parts = &'static [(u64, u64, u32)];
        let cases: &[(Parts, Parts)] = &[
            // Append, gapped and touching (the boundary pair coalesces).
            (&[(0, 1, 3)], &[(4, 5, 3)]),
            (&[(0, 2, 3)], &[(2, 3, 3), (5, 6, 3)]),
            // Covered no-op, and covered prefix + appended suffix.
            (&[(0, 4, 3), (5, 7, 3)], &[(1, 2, 3), (5, 6, 3)]),
            (&[(0, 2, 3), (3, 4, 3)], &[(0, 1, 3), (5, 6, 3)]),
            // Overlaps the top pair and pokes past its end.
            (&[(0, 2, 3), (4, 6, 3)], &[(5, 7, 3)]),
            // Fresh part inside an interior gap, and below the bottom.
            (&[(0, 1, 3), (6, 7, 3)], &[(3, 4, 3)]),
            (&[(2, 3, 4), (6, 7, 4)], &[(0, 1, 4)]),
            // Straddles a gap; bridges two pairs exactly (touching both).
            (&[(0, 2, 3), (4, 6, 3)], &[(1, 5, 3)]),
            (&[(0, 2, 3), (4, 6, 3)], &[(2, 4, 3)]),
            // Touches one pair on the left or on the right only.
            (&[(1, 2, 4), (6, 8, 4)], &[(0, 1, 4)]),
            (&[(1, 2, 4), (6, 8, 4)], &[(2, 3, 4), (9, 10, 4)]),
            // Swallows several pairs, and several parts into one pair.
            (&[(1, 2, 5), (3, 4, 5), (5, 6, 5), (9, 10, 5)], &[(0, 7, 5)]),
            (&[(0, 16, 5)], &[(1, 2, 5), (3, 4, 5), (17, 18, 5)]),
            // Later parts merge into the pair an earlier part widened.
            (&[(0, 1, 5), (8, 9, 5)], &[(1, 3, 5), (4, 6, 5), (6, 8, 5)]),
        ];
        for (a_parts, b_parts) in cases {
            let a = union_of(a_parts);
            let b = union_of(b_parts);
            let expected = a.union(&b);
            let shared = a.clone();
            let mut acc = a.clone();
            let own = acc.endpoints.as_mut().expect("non-empty state");
            let changed = splice_union(own, words(&b));
            assert_eq!(acc, expected, "a = {a:?}, b = {b:?}");
            assert_eq!(changed, acc != a, "a = {a:?}, b = {b:?}");
            assert_eq!(shared, a, "a = {a:?}, b = {b:?}: sibling handle changed");
            assert_eq!(acc.shares_storage_with(&a), !changed);
        }
    }

    /// `union_in_place` picks the splice for a small operand against a large
    /// state, and the result matches the linear merge.
    #[test]
    fn union_in_place_splices_small_operands() {
        let state: Vec<(u64, u64, u32)> = (0..40).map(|k| (4 * k, 4 * k + 2, 8)).collect();
        let state = IntervalUnion::from_intervals(state.iter().map(|&(l, h, e)| iv(l, h, e)));
        for delta in [(2, 4, 8), (81, 83, 8), (158, 200, 8), (0, 1, 8)] {
            let delta = union_of(&[delta]);
            assert!(delta.endpoints().len() * SPLICE_RATIO <= state.endpoints().len());
            let mut acc = state.clone();
            let changed = acc.union_in_place(&delta);
            let merged = SetOp::Union.merged(words(&state), words(&delta));
            assert_eq!(words(&acc), merged, "delta = {delta:?}");
            assert_eq!(changed, acc != state, "delta = {delta:?}");
        }
    }

    /// The splice writes through copy-on-write, never into a buffer other
    /// handles still see.
    #[test]
    fn union_in_place_append_respects_shared_storage() {
        let a = union_of(&[(0, 1, 3)]);
        let shared = a.clone();
        let mut acc = a.clone();
        assert!(acc.union_in_place(&union_of(&[(2, 3, 3)])));
        assert_eq!(shared, a, "shared handle must keep the pre-append value");
        assert_eq!(acc, union_of(&[(0, 1, 3), (2, 3, 3)]));
    }

    /// The galloping skip agrees with a linear scan from every start, on
    /// either side of a pair, for the predicates the merges use.
    #[test]
    fn skip_pairs_matches_a_linear_scan() {
        let e: Vec<Dyadic> = (0..38u64).map(|k| Dyadic::from_u64_parts(k, 6)).collect();
        for from in (0..=e.len()).step_by(2) {
            for key in 0..40u64 {
                let key = Dyadic::from_u64_parts(key, 6);
                for side in [START, END] {
                    for strict in [false, true] {
                        let holds = |x: &Dyadic| if strict { x < &key } else { x <= &key };
                        let mut linear = from;
                        while linear < e.len() && holds(&e[linear + side]) {
                            linear += 2;
                        }
                        let got = skip_pairs(&e, from, side, holds);
                        assert_eq!(got, linear, "from {from}, side {side}, strict {strict}");
                    }
                }
            }
        }
    }

    /// In-place writes build a buffer only for a result that is new and
    /// non-empty: an emptied value holds none, an unchanged one keeps its
    /// handle, and a shared one detaches onto an exact-size buffer while the
    /// scratch keeps the capacity of the largest merge.
    #[test]
    fn in_place_writes_allocate_only_kept_results() {
        let state = IntervalUnion::from_intervals((0..64).map(|k| iv(4 * k, 4 * k + 2, 9)));
        let mut warm = state.deep_clone();
        assert!(warm.subtract_assign(&union_of(&[(1, 2, 9)])));
        let capacity = WORD_SCRATCH.with_borrow(Vec::capacity);
        assert!(capacity >= state.endpoints().len());

        let delta = union_of(&[(1, 3, 9)]);
        let sibling = delta.clone();
        let mut carved = delta.clone();
        assert!(carved.subtract_assign(&state));
        assert_eq!(carved, union_of(&[(2, 3, 9)]));
        match carved.endpoints.as_deref() {
            Some(Buffer::Words(w)) => assert_eq!(w.capacity(), 2),
            _ => panic!("a word-sized result must be stored as words"),
        }
        assert_eq!(WORD_SCRATCH.with_borrow(Vec::capacity), capacity);
        assert_eq!(sibling, union_of(&[(1, 3, 9)]));

        let mut emptied = sibling.clone();
        assert!(emptied.subtract_assign(&union_of(&[(0, 4, 9)])));
        assert!(emptied.endpoints.is_none());
        let mut kept = sibling.clone();
        assert!(!kept.subtract_assign(&union_of(&[(5, 6, 9)])));
        assert!(!kept.intersect_assign(&union_of(&[(0, 4, 9)])));
        assert!(kept.shares_storage_with(&sibling));
        assert_eq!(WORD_SCRATCH.with_borrow(Vec::capacity), capacity);
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
    fn in_place_ops_chain_on_one_value() {
        let mut a = union_of(&[(0, 4, 3), (6, 8, 3)]);
        assert!(a.union_in_place(&union_of(&[(4, 5, 3)])));
        assert_eq!(a, union_of(&[(0, 5, 3), (6, 8, 3)]));
        assert!(a.intersect_assign(&union_of(&[(2, 7, 3)])));
        assert_eq!(a, union_of(&[(2, 5, 3), (6, 7, 3)]));
        assert!(a.subtract_assign(&union_of(&[(3, 4, 3)])));
        assert_eq!(a, union_of(&[(2, 3, 3), (4, 5, 3), (6, 7, 3)]));
    }

    /// A word's positional bits are its dyadic value's, for every count of
    /// fractional bits and at both ends of `[0, 1]`, and the encoding round
    /// trips.
    #[test]
    fn words_encode_dyadics_and_their_positional_bits() {
        let mut cases = vec![0, ONE, ONE - 1, ONE >> 1, 3 << 60, (1 << 64) + 1];
        cases.extend((0..FRACTION_BITS).map(|k| 1u128 << k));
        for w in cases {
            let d = dyadic(w);
            assert_eq!(positional_bits(w), d.positional_bits(), "word {w:#x}");
            assert_eq!(word(&d), Some(w), "word {w:#x}");
        }
        assert_eq!(word(&Dyadic::from_pow2_neg(FRACTION_BITS + 1)), None);
        assert_eq!(word(&Dyadic::from_u64_parts(3, 1)), None);
    }

    /// Endpoints above 1 or past 127 fractional bits keep a union exact, and
    /// an operation that drops every such endpoint stores words again.
    #[test]
    fn exact_storage_only_past_the_word_range() {
        let deep = Dyadic::from_pow2_neg(FRACTION_BITS + 1);
        let tiny = IntervalUnion::from(Interval::new(Dyadic::zero(), deep).unwrap());
        let above = IntervalUnion::from(Interval::new(Dyadic::one(), Dyadic::from_u64(2)).unwrap());
        assert!(!tiny.is_word_sized() && !above.is_word_sized());
        assert!(IntervalUnion::unit().is_word_sized());
        assert!(IntervalUnion::empty().is_word_sized());

        let mut absorbed = tiny.clone();
        assert!(absorbed.union_in_place(&IntervalUnion::unit()));
        assert!(absorbed.is_unit() && absorbed.is_word_sized());
        let mut widened = IntervalUnion::unit();
        assert!(widened.union_in_place(&above));
        assert!(!widened.is_word_sized());
        assert_eq!(widened.interval_count(), 1);
        assert!(widened.subtract_assign(&above));
        assert!(widened.is_unit() && widened.is_word_sized());
        let mut cut = tiny.union(&above);
        assert!(cut.intersect_assign(&IntervalUnion::unit()));
        assert_eq!(cut, tiny);
        assert!(cut.subtract_assign(&tiny));
        assert!(cut.is_empty());
        assert_eq!(IntervalUnion::unit().difference(&tiny).interval_count(), 1);
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
