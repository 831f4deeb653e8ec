//! Differential properties: the optimised fast paths versus the retained
//! reference implementations in `anet_num::reference`.
//!
//! Mirrors the simulation engine's `run_full_scan` cross-check: the fast
//! small-value `Dyadic` arithmetic (inline `u64` mantissa) and the linear
//! two-pointer `IntervalUnion` merges must be *bit-identical* — value-equal
//! results with identical canonical interval lists — to the original
//! always-heap / collect-sort-merge implementations, across
//!
//! * random interval soups (overlapping, unordered, empty),
//! * boundary-touching and adjacent-merge grids,
//! * deep-exponent dyadics crossing the inline→heap mantissa boundary,
//!   including pairs with one leading-bit position (the comparisons decided
//!   word by word below the top bit),
//! * unions on either side of the word/exact storage boundary — endpoints
//!   with 126, 127 and 128 fractional bits, endpoints equal to and above 1,
//!   and unions widened past 127 bits — as word×word, exact×exact and mixed
//!   operand pairs, and
//! * skewed operands: deltas of a few intervals against states of hundreds,
//!   the shape every protocol delivery merges (galloping skips and in-place
//!   splices), including the redundant β echo — a shared delta the state
//!   already holds, or misses, tested and carved in place.

use anet_num::{bits, reference, BigUint, Dyadic, Interval, IntervalUnion};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a dyadic whose mantissa straddles the inline→heap boundary.
///
/// `bits` ranges over 0..=96, so mantissas land well below, exactly at, and
/// well above the 64-bit inline limit; `low` fills in arbitrary low bits and
/// `exp` pushes the exponent past word size.
fn boundary_dyadic() -> impl Strategy<Value = Dyadic> {
    (0u32..99, any::<u64>(), 0u32..100).prop_map(|(bits, low, exp)| {
        let mantissa = match bits {
            0 => BigUint::zero(), // exact zero, a case with no leading bit
            1 => BigUint::from(low),
            _ => &BigUint::pow2(bits - 1) + &BigUint::from(low),
        };
        Dyadic::from_parts(mantissa, exp)
    })
}

/// Strategy: a pair `(a, b)` with `b` derived from `a` so the two usually
/// share a leading-bit position: `a`'s mantissa widened by 0–80 extra low
/// bits (scaling the exponent to match), then nudged by −1, 0 or +1 in the
/// last place. Operands drawn independently share a leading-bit position in
/// about 1 % of cases; these pairs reach the word-by-word comparison of
/// top-aligned mantissas almost always, inline and heap, equal and off by
/// one unit in the last place.
fn equal_magnitude_pair() -> impl Strategy<Value = (Dyadic, Dyadic)> {
    (boundary_dyadic(), 0u32..81, 0u8..3).prop_map(|(a, extra, nudge)| {
        let widened = a.mantissa() << extra;
        let mantissa = match nudge {
            0 => widened.checked_sub(&BigUint::one()).unwrap_or(widened),
            1 => widened,
            _ => &widened + &BigUint::one(),
        };
        let b = Dyadic::from_parts(mantissa, a.exponent() + extra);
        (a, b)
    })
}

/// Strategy: a small dyadic in `[0, 1)` with a dyadic-grid endpoint, the shape
/// protocol endpoints actually take.
fn grid_dyadic() -> impl Strategy<Value = Dyadic> {
    (0u64..1 << 16, 0u32..17).prop_map(|(m, e)| Dyadic::from_u64_parts(m % (1 << e.max(1)), e))
}

/// Strategy: an arbitrary (possibly empty) interval with grid endpoints.
fn grid_interval() -> impl Strategy<Value = Interval> {
    (grid_dyadic(), grid_dyadic()).prop_map(|(a, b)| {
        if a <= b {
            Interval::new(a, b).expect("ordered")
        } else {
            Interval::new(b, a).expect("ordered")
        }
    })
}

/// Strategy: an interval union built from a random soup of up to 8 intervals.
fn soup_union() -> impl Strategy<Value = IntervalUnion> {
    prop::collection::vec(grid_interval(), 0..8).prop_map(IntervalUnion::from_intervals)
}

/// Strategy: a union of cells from a coarse grid — adjacent and
/// boundary-touching intervals are overwhelmingly likely, exercising the
/// merge-on-touch rule of the canonical form.
fn adjacent_union() -> impl Strategy<Value = IntervalUnion> {
    prop::collection::vec((0u64..30, 1u64..4), 0..8).prop_map(|cells| {
        IntervalUnion::from_intervals(cells.into_iter().map(|(start, len)| {
            Interval::from_dyadic_parts(start, (start + len).min(32), 5).expect("ordered")
        }))
    })
}

/// Whether an endpoint fits a 128-bit fixed-point word: it lies in `[0, 1]`
/// with at most 127 fractional bits.
fn fits_word(d: &Dyadic) -> bool {
    d <= &Dyadic::one() && d.exponent() <= 127
}

/// Asserts that a union satisfies the endpoint-array canonical-form contract
/// the linear merges rely on — even length, strictly increasing (so intervals
/// are non-empty, sorted, pairwise disjoint and non-adjacent), empty ⟺ absent
/// — and the canonical representation: stored as words exactly when every
/// endpoint fits one.
fn assert_canonical(u: &IntervalUnion) -> Result<(), TestCaseError> {
    let e: Vec<Dyadic> = u.endpoints().collect();
    prop_assert_eq!(e.len() % 2, 0, "endpoint array has odd length");
    prop_assert_eq!(e.is_empty(), u.is_empty());
    prop_assert_eq!(e.len() / 2, u.interval_count());
    for w in e.windows(2) {
        prop_assert!(
            w[0] < w[1],
            "endpoint array not strictly increasing: {:?}",
            u
        );
    }
    prop_assert_eq!(
        u.is_word_sized(),
        e.iter().all(fits_word),
        "storage does not follow the endpoints: {:?}",
        u
    );
    Ok(())
}

/// The wire size of a union recomputed from its materialized dyadic
/// intervals: the gamma-coded count and each interval's self-delimited
/// positional endpoints.
fn encoded_bits(u: &IntervalUnion) -> u64 {
    bits::elias_gamma_bits(u.interval_count() as u64)
        + u.iter().map(|iv| iv.endpoint_bits()).sum::<u64>()
}

/// Monotone widening of every endpoint by the factor `1 + 2^-k`, which
/// preserves strict order (and zero), so a widened union is canonical iff
/// the original was. Every non-zero endpoint gains `k` fractional bits.
fn widen(u: &IntervalUnion, k: u32) -> IntervalUnion {
    let factor = Dyadic::from_parts(&BigUint::pow2(k) + &BigUint::one(), k);
    IntervalUnion::from_intervals(u.iter().map(|iv| {
        Interval::new(iv.lo() * &factor, iv.hi() * &factor).expect("widening is monotone")
    }))
}

/// Widening by `1 + 2^-70`: every non-zero endpoint mantissa passes the
/// 64-bit inline limit of [`Dyadic`], while the union stays word-sized (grid
/// endpoints reach at most 86 fractional bits).
fn widen_to_heap(u: &IntervalUnion) -> IntervalUnion {
    widen(u, 70)
}

/// Widening by `1 + 2^-130`: every non-zero endpoint passes 127 fractional
/// bits, so a non-empty union is stored exact.
fn widen_past_words(u: &IntervalUnion) -> IntervalUnion {
    widen(u, 130)
}

/// Strategy: a soup union with every endpoint on the heap mantissa path.
fn heap_union() -> impl Strategy<Value = IntervalUnion> {
    soup_union().prop_map(|u| widen_to_heap(&u))
}

/// Strategy: an endpoint at the word/exact storage boundary — 0, 1, a value
/// above 1, a grid value, or a value in `(0, 1)` with exactly 126, 127 or 128
/// fractional bits. All share the top bits `top / 16`, so endpoints of
/// different classes interleave, touch and coincide.
fn boundary_endpoint() -> impl Strategy<Value = Dyadic> {
    (0u8..7, 0u64..16, any::<u64>()).prop_map(|(class, top, low)| match class {
        0 => Dyadic::zero(),
        1 => Dyadic::one(),
        2 => Dyadic::from_u64_parts(16 + top, 4),
        3 => Dyadic::from_u64_parts(top, 4),
        _ => {
            let bits = 122 + u32::from(class); // 126, 127 or 128
            let tail = BigUint::from(low | 1);
            Dyadic::from_parts(&(BigUint::from(top) << (bits - 4)) + &tail, bits)
        }
    })
}

/// Strategy: a union of up to 6 intervals between boundary endpoints, so
/// roughly half the unions are stored exact.
fn boundary_union() -> impl Strategy<Value = IntervalUnion> {
    prop::collection::vec((boundary_endpoint(), boundary_endpoint()), 0..7).prop_map(|ends| {
        IntervalUnion::from_intervals(ends.into_iter().map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::new(lo, hi).expect("ordered")
        }))
    })
}

/// Checks every set operation of `a` and `b` — out of place, in place with a
/// sibling handle sharing the receiver's buffer, and the derived predicates —
/// against the reference, with the canonical representation and the wire
/// size of every result.
fn check_against_reference(a: &IntervalUnion, b: &IntervalUnion) -> Result<(), TestCaseError> {
    let union = reference::union(a, b);
    let meet = reference::intersection(a, b);
    let carved = reference::difference(a, b);
    let fast = [a.union(b), a.intersection(b), a.difference(b)];
    for (got, want) in fast.iter().zip([&union, &meet, &carved]) {
        prop_assert_eq!(got, want);
        assert_canonical(got)?;
        prop_assert_eq!(got.wire_bits(), encoded_bits(got));
    }
    prop_assert_eq!(&b.difference(a), &reference::difference(b, a));
    prop_assert_eq!(a.intersects(b), !meet.is_empty());
    prop_assert_eq!(a.is_subset_of(b), carved.is_empty());

    let frozen = a.deep_clone();
    for (op, want) in [&union, &meet, &carved].into_iter().enumerate() {
        let sibling = a.clone();
        let mut writer = a.clone();
        let changed = match op {
            0 => writer.union_in_place(b),
            1 => writer.intersect_assign(b),
            _ => writer.subtract_assign(b),
        };
        prop_assert_eq!(&writer, want);
        prop_assert_eq!(changed, writer != *a);
        assert_canonical(&writer)?;
        prop_assert_eq!(&sibling, &frozen);
        if changed {
            prop_assert!(!writer.shares_storage_with(&sibling));
        }
    }
    Ok(())
}

/// How [`skewed_operands`] maps every third grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cells {
    /// Every cell is its inline grid value.
    Inline,
    /// Every third cell is a heap mantissa of 65–84 bits: still a word.
    Heap,
    /// Every third cell has 142 fractional bits: stored exact.
    Exact,
}

/// Strategy: a skewed triple `(state, delta, cells)`: a state of exactly
/// 50–299 maximal intervals on a `2^-12` grid (gaps of at least one cell keep
/// every stripe maximal) and a delta of 1–3 intervals whose endpoints are
/// state endpoints shifted by −1, 0 or +1 cells, so deltas touch, overlap,
/// bridge and nest in state intervals far more often than random placement
/// would. Except under [`Cells::Inline`], every third grid cell maps to a
/// value a fraction of a cell above its grid value instead — a heap mantissa
/// that still fits a word, or an endpoint past 127 fractional bits: the map
/// stays a strictly increasing function of the cell (touching cells still
/// touch), and neighbouring endpoints share a leading-bit position, so the
/// searches compare across representations at equal magnitude. Under
/// [`Cells::Exact`] the state is stored exact and the delta may be stored
/// either way.
fn skewed_operands() -> impl Strategy<Value = (IntervalUnion, IntervalUnion, Cells)> {
    let stripes = prop::collection::vec((1u64..4, 1u64..4), 50..300);
    let delta = prop::collection::vec((0usize..1 << 16, 0u64..3, 0usize..9, 0u64..3), 1..4);
    (stripes, delta, 0u8..3).prop_map(|(stripes, delta, mode)| {
        let mode = [Cells::Inline, Cells::Heap, Cells::Exact][usize::from(mode)];
        let mut cells = Vec::with_capacity(2 * stripes.len());
        let mut at = 0u64;
        for (gap, len) in stripes {
            at += gap;
            cells.push(at);
            at += len;
            cells.push(at);
        }
        let cell = |c: u64| {
            // A tail below the cell's grid value, wider than 64 bits.
            let shift = match mode {
                _ if !c.is_multiple_of(3) => 0,
                Cells::Inline => 0,
                Cells::Heap => 70,
                Cells::Exact => 130,
            };
            if shift == 0 {
                return Dyadic::from_u64_parts(c, 12);
            }
            let tail = &BigUint::pow2(shift - 5) + &BigUint::one();
            Dyadic::from_parts(&(BigUint::from(c) << shift) + &tail, 12 + shift)
        };
        let interval = |lo: u64, hi: u64| Interval::new(cell(lo), cell(hi)).expect("ordered");
        let state =
            IntervalUnion::from_intervals(cells.chunks_exact(2).map(|p| interval(p[0], p[1])));
        // Each delta interval starts at a state endpoint (±1 cell) and ends at
        // one a few endpoints later (±1 cell), possibly across gaps.
        let delta = IntervalUnion::from_intervals(delta.into_iter().map(
            |(anchor, lo_shift, reach, hi_shift)| {
                let i = anchor % cells.len();
                let j = (i + reach).min(cells.len() - 1);
                let lo = (cells[i] + lo_shift).saturating_sub(1);
                let hi = (cells[j] + hi_shift).saturating_sub(1).max(lo + 1);
                interval(lo, hi)
            },
        ));
        (state, delta, mode)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ---- Dyadic fast path vs always-heap reference -------------------------

    #[test]
    fn dyadic_cmp_matches_reference(a in boundary_dyadic(), b in boundary_dyadic()) {
        prop_assert_eq!(a.cmp(&b), reference::dyadic_cmp(&a, &b));
    }

    #[test]
    fn dyadic_cmp_matches_reference_at_equal_magnitude(pair in equal_magnitude_pair()) {
        let (a, b) = pair;
        prop_assert_eq!(a.cmp(&b), reference::dyadic_cmp(&a, &b));
        prop_assert_eq!(b.cmp(&a), reference::dyadic_cmp(&b, &a));
        prop_assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn dyadic_add_matches_reference(a in boundary_dyadic(), b in boundary_dyadic()) {
        let fast = &a + &b;
        let slow = reference::dyadic_add(&a, &b);
        prop_assert_eq!(&fast, &slow);
        // Representation invariant: inline iff the mantissa fits a u64.
        prop_assert_eq!(fast.is_inline(), fast.mantissa().to_u64().is_some());
    }

    #[test]
    fn dyadic_sub_matches_reference(a in boundary_dyadic(), b in boundary_dyadic()) {
        let fast = a.checked_sub(&b);
        let slow = reference::dyadic_checked_sub(&a, &b);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn dyadic_mul_matches_reference(a in boundary_dyadic(), b in boundary_dyadic()) {
        // Cap the exponents so the product exponent cannot overflow u32.
        let fast = &a * &b;
        let slow = reference::dyadic_mul(&a, &b);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.is_inline(), fast.mantissa().to_u64().is_some());
    }

    #[test]
    fn dyadic_small_chain_stays_inline_and_exact(m in 1u64..1 << 20, e in 0u32..24, k in 1u32..40) {
        // Repeated halvings — the protocols' actual workload — must stay on the
        // inline path and agree with the reference at every step.
        let mut x = Dyadic::from_u64_parts(m, e);
        for _ in 0..k {
            let halved = x.halve();
            prop_assert!(halved.is_inline());
            prop_assert_eq!(reference::dyadic_add(&halved, &halved), x);
            x = halved;
        }
    }

    // ---- IntervalUnion linear merges vs collect-sort-merge reference -------

    #[test]
    fn union_matches_reference_on_soups(a in soup_union(), b in soup_union()) {
        let fast = a.union(&b);
        prop_assert_eq!(&fast, &reference::union(&a, &b));
        assert_canonical(&fast)?;
    }

    #[test]
    fn intersection_matches_reference_on_soups(a in soup_union(), b in soup_union()) {
        let fast = a.intersection(&b);
        prop_assert_eq!(&fast, &reference::intersection(&a, &b));
        assert_canonical(&fast)?;
    }

    #[test]
    fn difference_matches_reference_on_soups(a in soup_union(), b in soup_union()) {
        let fast = a.difference(&b);
        prop_assert_eq!(&fast, &reference::difference(&a, &b));
        assert_canonical(&fast)?;
    }

    #[test]
    fn set_ops_match_reference_on_adjacent_grids(a in adjacent_union(), b in adjacent_union()) {
        prop_assert_eq!(a.union(&b), reference::union(&a, &b));
        prop_assert_eq!(a.intersection(&b), reference::intersection(&a, &b));
        prop_assert_eq!(a.difference(&b), reference::difference(&a, &b));
        prop_assert_eq!(b.difference(&a), reference::difference(&b, &a));
    }

    #[test]
    fn in_place_ops_match_out_of_place(a in soup_union(), b in adjacent_union()) {
        let mut u = a.clone();
        let changed = u.union_in_place(&b);
        prop_assert_eq!(&u, &reference::union(&a, &b));
        prop_assert_eq!(changed, u != a);

        let mut i = a.clone();
        let changed = i.intersect_assign(&b);
        prop_assert_eq!(&i, &reference::intersection(&a, &b));
        prop_assert_eq!(changed, i != a);

        let mut s = a.clone();
        let changed = s.subtract_assign(&b);
        prop_assert_eq!(&s, &reference::difference(&a, &b));
        prop_assert_eq!(changed, s != a);
    }

    #[test]
    fn derived_predicates_match_reference(a in soup_union(), b in soup_union()) {
        prop_assert_eq!(a.intersects(&b), !reference::intersection(&a, &b).is_empty());
        prop_assert_eq!(a.is_subset_of(&b), reference::difference(&a, &b).is_empty());
        prop_assert_eq!(b.is_subset_of(&a), reference::difference(&b, &a).is_empty());
    }

    #[test]
    fn point_membership_matches_linear_scan(a in soup_union(), p in grid_dyadic()) {
        let linear = a.iter().any(|iv| iv.contains(&p));
        prop_assert_eq!(a.contains_point(&p), linear);
    }

    #[test]
    fn set_algebra_laws_hold(a in soup_union(), b in soup_union()) {
        // (a \ b) ∪ (a ∩ b) = a, and the operands' union absorbs both.
        let recombined = a.difference(&b).union(&a.intersection(&b));
        prop_assert_eq!(&recombined, &a);
        let u = a.union(&b);
        prop_assert!(a.is_subset_of(&u));
        prop_assert!(b.is_subset_of(&u));
        prop_assert!(!a.difference(&b).intersects(&b));
    }

    // ---- Inline→heap Dyadic boundary, under the endpoint-array merges -------

    #[test]
    fn set_ops_match_reference_on_heap_endpoints(a in heap_union(), b in heap_union()) {
        for iv in a.iter().chain(b.iter()) {
            prop_assert!(iv.lo().is_zero() || !iv.lo().is_inline());
            prop_assert!(!iv.hi().is_inline(), "widened hi endpoint stayed inline");
        }
        let u = a.union(&b);
        prop_assert_eq!(&u, &reference::union(&a, &b));
        assert_canonical(&u)?;
        prop_assert_eq!(a.intersection(&b), reference::intersection(&a, &b));
        prop_assert_eq!(a.difference(&b), reference::difference(&a, &b));
        prop_assert_eq!(b.difference(&a), reference::difference(&b, &a));
    }

    #[test]
    fn set_ops_match_reference_across_the_inline_heap_boundary(a in soup_union(), b in soup_union()) {
        // Mixed-representation operands: one inline, one heap-widened.
        let hb = widen_to_heap(&b);
        prop_assert_eq!(a.union(&hb), reference::union(&a, &hb));
        prop_assert_eq!(a.intersection(&hb), reference::intersection(&a, &hb));
        prop_assert_eq!(a.difference(&hb), reference::difference(&a, &hb));
        prop_assert_eq!(hb.difference(&a), reference::difference(&hb, &a));
    }

    // ---- Word/exact storage boundary ----------------------------------------

    #[test]
    fn set_ops_match_reference_at_the_storage_boundary(a in boundary_union(), b in boundary_union()) {
        assert_canonical(&a)?;
        assert_canonical(&b)?;
        prop_assert_eq!(a.wire_bits(), encoded_bits(&a));
        check_against_reference(&a, &b)?;
    }

    #[test]
    fn set_ops_match_reference_on_word_exact_and_mixed_pairs(
        a in soup_union(),
        b in adjacent_union(),
        widen_a in any::<bool>(),
        widen_b in any::<bool>(),
    ) {
        // Word×word, exact×exact and both mixed orders, by which operands
        // are widened past 127 fractional bits.
        let a = if widen_a { widen_past_words(&a) } else { a };
        let b = if widen_b { widen_past_words(&b) } else { b };
        prop_assert_eq!(a.is_word_sized(), a.is_empty() || !widen_a);
        prop_assert_eq!(b.is_word_sized(), b.is_empty() || !widen_b);
        check_against_reference(&a, &b)?;
        check_against_reference(&b, &a)?;
    }

    // ---- Skewed operands: small deltas against large states ----------------

    #[test]
    fn skewed_set_ops_match_reference(operands in skewed_operands()) {
        let (state, delta, cells) = operands;
        prop_assert!(state.interval_count() >= 50);
        prop_assert!((1..=3).contains(&delta.interval_count()));
        prop_assert_eq!(state.endpoints().any(|e| !e.is_inline()), cells != Cells::Inline);
        prop_assert_eq!(state.is_word_sized(), cells != Cells::Exact);
        assert_canonical(&state)?;
        assert_canonical(&delta)?;
        let union = reference::union(&state, &delta);
        let meet = reference::intersection(&delta, &state);
        let fresh = reference::difference(&delta, &state);
        let carved = reference::difference(&state, &delta);

        // The delivery shapes: a delta spliced into the state (with a sibling
        // handle sharing the state's buffer), carved by it and cut against
        // it, and the state carved and cut by the delta.
        let sibling = state.clone();
        let frozen = state.deep_clone();
        let mut merged = state.clone();
        let changed = merged.union_in_place(&delta);
        prop_assert_eq!(&merged, &union);
        prop_assert_eq!(changed, merged != state);
        assert_canonical(&merged)?;
        prop_assert_eq!(&sibling, &frozen);
        prop_assert!(sibling.shares_storage_with(&state));
        // A no-op splice keeps sharing; a real one detached the writer.
        prop_assert_eq!(merged.shares_storage_with(&state), !changed);
        let mut covered = state.clone();
        prop_assert!(!covered.union_in_place(&meet));
        prop_assert!(covered.shares_storage_with(&state));

        let mut delta_left = delta.clone();
        prop_assert_eq!(delta_left.subtract_assign(&state), fresh != delta);
        prop_assert_eq!(&delta_left, &fresh);
        assert_canonical(&delta_left)?;
        let mut state_left = state.clone();
        prop_assert_eq!(state_left.subtract_assign(&delta), carved != state);
        prop_assert_eq!(&state_left, &carved);
        prop_assert_eq!(&sibling, &frozen);

        prop_assert_eq!(&delta.intersection(&state), &meet);
        prop_assert_eq!(&state.intersection(&delta), &meet);
        assert_canonical(&state.intersection(&delta))?;
        prop_assert_eq!(&delta.difference(&state), &fresh);
        prop_assert_eq!(&state.difference(&delta), &carved);
        assert_canonical(&state.difference(&delta))?;

        // The echo test, both ways: a delta inside the state is redundant.
        prop_assert_eq!(delta.is_subset_of(&state), fresh.is_empty());
        prop_assert_eq!(state.is_subset_of(&delta), carved.is_empty());
        prop_assert!(meet.is_subset_of(&state));
        prop_assert_eq!(fresh.is_subset_of(&state), fresh.is_empty());

        // Echo writes: a shared delta that lies inside the state (`meet`) or
        // misses it (`fresh`), carved and cut in place by the state. Carving
        // what the state holds, or cutting what it misses, empties the delta
        // and leaves no buffer; the other two writes change nothing and keep
        // sharing. The sibling handle never moves.
        for (echo, inside) in [(&meet, true), (&fresh, false)] {
            let frozen_echo = echo.deep_clone();
            for subtract in [true, false] {
                let sibling = echo.clone();
                let mut writer = echo.clone();
                let (changed, want) = if subtract {
                    (writer.subtract_assign(&state), reference::difference(echo, &state))
                } else {
                    (writer.intersect_assign(&state), reference::intersection(echo, &state))
                };
                prop_assert_eq!(&writer, &want);
                if subtract == inside {
                    prop_assert!(writer.is_empty());
                    prop_assert_eq!(changed, !echo.is_empty());
                } else {
                    prop_assert_eq!(&writer, echo);
                    prop_assert!(!changed);
                    prop_assert!(writer.shares_storage_with(&sibling));
                }
                assert_canonical(&writer)?;
                prop_assert_eq!(writer.wire_bits(), encoded_bits(&writer));
                prop_assert_eq!(&sibling, &frozen_echo);
                prop_assert_eq!(echo, &frozen_echo);
            }
        }
    }

    // ---- Copy-on-write aliasing contract ------------------------------------

    #[test]
    fn cow_mutation_never_touches_the_sibling_handle(
        a in soup_union(),
        b in adjacent_union(),
        op in 0usize..3,
    ) {
        let sibling = a.clone();
        prop_assert!(sibling.shares_storage_with(&a));
        let frozen = a.deep_clone();
        // Empty handles have no buffer to share; non-empty deep clones never share.
        prop_assert_eq!(frozen.shares_storage_with(&a), a.is_empty());

        let mut writer = a.clone();
        let (changed, expected) = match op {
            0 => (writer.union_in_place(&b), reference::union(&a, &b)),
            1 => (writer.intersect_assign(&b), reference::intersection(&a, &b)),
            _ => (writer.subtract_assign(&b), reference::difference(&a, &b)),
        };
        prop_assert_eq!(&writer, &expected);
        prop_assert_eq!(changed, writer != a);
        // The sibling handles still observe the original value...
        prop_assert_eq!(&sibling, &frozen);
        prop_assert_eq!(&a, &frozen);
        // ...and a genuine change detached the writer from the shared buffer.
        if changed {
            prop_assert!(!writer.shares_storage_with(&a));
        }
        assert_canonical(&writer)?;
    }

    #[test]
    fn empty_union_in_place_shares_instead_of_copying(a in soup_union()) {
        let mut acc = IntervalUnion::empty();
        let changed = acc.union_in_place(&a);
        prop_assert_eq!(changed, !a.is_empty());
        prop_assert_eq!(&acc, &a);
        prop_assert!(acc.shares_storage_with(&a), "∅ ∪ x must alias x");
        // O(1) clones share; deep clones never do (unless both are empty).
        prop_assert!(a.clone().shares_storage_with(&a));
        prop_assert_eq!(a.deep_clone().shares_storage_with(&a), a.is_empty());
    }
}
