//! Direct coverage of `IdSet` word-boundary behaviour and edge cases that the
//! mapping protocol only exercises indirectly: sets straddling the 64-bit word
//! boundary (sizes 63/64/65) and `union_with` growth in both directions; and
//! of `IdBag` against `BTreeSet<u32>` across its representation switches,
//! with its storage bound up to `u32::MAX`.

use std::collections::BTreeSet;

use anet_num::intern::{IdBag, IdSet};
use proptest::prelude::*;

/// Dense sets of exactly `n` ids `0..n`, the word-boundary workhorses.
fn dense(n: u32) -> IdSet {
    (0..n).collect()
}

#[test]
fn dense_sets_across_the_word_boundary() {
    for n in [63u32, 64, 65] {
        let set = dense(n);
        assert_eq!(set.len(), n as usize, "size {n}");
        assert!(!set.is_empty());
        for id in 0..n {
            assert!(set.contains(id), "size {n} missing id {id}");
        }
        assert!(!set.contains(n), "size {n} must not contain {n}");
        assert!(!set.contains(n + 63));
        assert!(!set.contains(n + 64));
        assert_eq!(set.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        // Re-inserting every id reports nothing fresh and changes nothing.
        let mut again = set.clone();
        for id in 0..n {
            assert!(!again.insert(id), "size {n} re-insert of {id}");
        }
        assert_eq!(again, set);
        // Inserting exactly the next id grows by one (crossing the boundary
        // for n = 64).
        assert!(again.insert(n));
        assert_eq!(again.len(), n as usize + 1);
        assert!(again.contains(n));
        assert_ne!(again, set);
    }
}

#[test]
fn boundary_ids_alone() {
    // Single-bit sets at the extremes of each word.
    for id in [0u32, 63, 64, 65, 127, 128] {
        let mut set = IdSet::new();
        assert!(set.insert(id));
        assert_eq!(set.len(), 1);
        assert!(set.contains(id));
        assert!(id == 0 || !set.contains(id - 1));
        assert!(!set.contains(id + 1));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![id]);
    }
}

#[test]
fn union_with_growth_in_both_directions() {
    for (small_n, large_n) in [(63u32, 64u32), (63, 65), (64, 65), (1, 130)] {
        let small = dense(small_n);
        let large = dense(large_n);
        // Growing union: the short word vector must extend.
        let mut grown = small.clone();
        grown.union_with(&large);
        assert_eq!(grown, large, "{small_n} ∪= {large_n}");
        assert_eq!(grown.len(), large_n as usize);
        // Shrinking direction: union with a subset changes nothing.
        let mut kept = large.clone();
        kept.union_with(&small);
        assert_eq!(kept, large, "{large_n} ∪= {small_n}");
        assert_eq!(kept.len(), large_n as usize);
    }
}

#[test]
fn union_with_empty_operands() {
    let set: IdSet = [3u32, 64, 129].into_iter().collect();
    let mut grown = set.clone();
    grown.union_with(&IdSet::new());
    assert_eq!(grown, set);
    let mut empty = IdSet::new();
    empty.union_with(&set);
    assert_eq!(empty, set);
    assert_eq!(empty.len(), 3);
    let mut both = IdSet::new();
    both.union_with(&IdSet::new());
    assert!(both.is_empty());
}

#[test]
fn union_with_disjoint_words_counts_len_exactly() {
    // Disjoint halves split exactly at the boundary.
    let low: IdSet = (0u32..64).collect();
    let high: IdSet = (64u32..128).collect();
    let mut all = low.clone();
    all.union_with(&high);
    assert_eq!(all.len(), 128);
    assert_eq!(all, dense(128));
    // Partial overlap across the boundary double-counts nothing.
    let a: IdSet = (60u32..70).collect();
    let b: IdSet = (65u32..75).collect();
    let mut u = a.clone();
    u.union_with(&b);
    assert_eq!(u.len(), 15);
    assert_eq!(u.iter().collect::<Vec<_>>(), (60..75).collect::<Vec<_>>());
}

#[test]
fn with_capacity_behaves_like_new() {
    let mut a = IdSet::with_capacity(129);
    let mut b = IdSet::new();
    assert_eq!(a, b);
    for id in [0u32, 63, 64, 128] {
        assert_eq!(a.insert(id), b.insert(id));
    }
    assert_eq!(a, b);
    assert_eq!(a.len(), 4);
}

/// Inserts `ids` into a bag and a `BTreeSet` side by side, checking after
/// every insert what `insert` returned, `contains`, `len`, the ascending
/// `iter` and the storage bound; returns the bag's representation after each.
fn insert_checked(bag: &mut IdBag, model: &mut BTreeSet<u32>, ids: &[u32]) -> Vec<bool> {
    ids.iter()
        .map(|&id| {
            assert_eq!(bag.insert(id), model.insert(id), "insert {id}");
            assert!(bag.contains(id));
            assert_eq!(bag.len(), model.len());
            assert!(bag.storage_bytes() <= 8 * bag.len(), "{bag:?}");
            matches!(bag, IdBag::Dense(_))
        })
        .collect()
}

fn assert_same_ids(bag: &IdBag, model: &BTreeSet<u32>) {
    assert_eq!(
        bag.iter().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    for &id in model {
        assert!(bag.contains(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `0..16` makes a bitset, a mid-range outlier past one word per id
    /// turns it back into a vector, the tail fills its words densely enough
    /// for a bitset again, and a last id far above them leaves it once more.
    #[test]
    fn idbag_agrees_with_a_btreeset_across_switches(
        head in prop::collection::vec(0u32..64, 0..60),
        outlier in 8_192u32..16_384,
        tail in prop::collection::vec(0u32..16_384, 700..1_400),
        far in (1u32 << 20)..u32::MAX,
        misses in prop::collection::vec(any::<u32>(), 0..32),
    ) {
        let mut bag = IdBag::new();
        let mut model = BTreeSet::new();
        let prefix: Vec<u32> = (0..16).collect();
        let ids: Vec<u32> = [&prefix[..], &head, &[outlier], &tail, &[far], &head].concat();
        let dense = insert_checked(&mut bag, &mut model, &ids);
        let switches = dense.windows(2).filter(|pair| pair[0] != pair[1]).count();
        prop_assert!(dense[15], "0..16 fill one word");
        prop_assert!(!dense[16 + head.len()], "the outlier ends the bitset");
        prop_assert!(switches >= 3, "only {switches} switches");
        assert_same_ids(&bag, &model);
        for id in misses {
            prop_assert_eq!(bag.contains(id), model.contains(&id));
        }
    }
}

/// Ids spread up to `u32::MAX`, in ascending, descending and interleaved
/// order, never build a bitset past one word per id.
#[test]
fn idbag_spread_up_to_u32_max_stays_within_the_bound() {
    let step = u32::MAX / 4_096;
    let spread: Vec<u32> = (0..=4_096u32).map(|i| i * step).chain([u32::MAX]).collect();
    let descending: Vec<u32> = spread.iter().rev().copied().collect();
    let interleaved: Vec<u32> = (0..2_048u32)
        .flat_map(|i| [i, u32::MAX - i * step])
        .collect();
    for ids in [spread, descending, interleaved] {
        let mut bag = IdBag::new();
        let mut model = BTreeSet::new();
        insert_checked(&mut bag, &mut model, &ids);
        assert_same_ids(&bag, &model);
        assert!(bag.contains(u32::MAX));
    }
}
