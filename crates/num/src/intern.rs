//! Hash-consing interners and dense-id bitsets.
//!
//! The flooding protocols repeatedly ship the *same* facts (labelled vertex and
//! edge records) over many edges. Keeping those facts as owned values makes
//! every hop pay a deep clone and every set operation a tree comparison. This
//! module provides the identifier economy that avoids both:
//!
//! * [`Interner`] — a hash-consing arena mapping values to **dense** `u32` ids:
//!   the first occurrence of a value is stored once and assigned the next free
//!   id; every later occurrence resolves to the same id. Density (ids are
//!   exactly `0..len`) is what makes the companion bitset representation work.
//! * [`IdSet`] — a growable bitset over such dense ids with the word-level set
//!   operations a flooding protocol needs: `insert` (reporting whether the id
//!   is new — the mapping protocol floods exactly those) and `contains`. The
//!   bulk [`union_with`](IdSet::union_with) is provision for the protocols
//!   named in the ROADMAP follow-up (`labeling`/`general_broadcast`), which
//!   merge whole sets.
//! * [`IdBag`] — an id set that switches between a sorted vector and a
//!   bitset by occupancy as it grows, never storing more than twice the
//!   vector's bytes.
//!
//! # Invariants
//!
//! * **Id density** — [`Interner::intern`] assigns ids `0, 1, 2, …` in first-use
//!   order and never reuses or frees an id; `resolve(id)` is a plain slice
//!   index. A bitset over the ids of an interner with `n` values therefore
//!   occupies `⌈n / 64⌉` words.
//! * **Hash consing** — two values compare equal if and only if they intern to
//!   the same id, so protocols may replace value equality by `u32` equality.
//! * **Logical set equality** — [`IdSet`] comparisons ignore trailing zero
//!   words: a set grown by a large insert and a compact set holding the same
//!   ids are equal.
//!
//! Interners deliberately do **not** implement any wire-size accounting: an id
//! is a run-local name, not something a protocol may transmit for free. Callers
//! that flood interned values must still account the *encoded* values (see
//! `anet_core::mapping`, whose messages carry id slices but charge the full
//! record encoding to the wire).

use std::collections::HashMap;
use std::hash::Hash;

use crate::fnv::FnvBuildHasher;

/// A hash-consing arena assigning dense `u32` ids to values.
///
/// See the [module docs](self) for the id-density and hash-consing invariants.
/// The lookup map hashes with the workspace's unkeyed [`crate::Fnv1a`] (via
/// [`FnvBuildHasher`]) rather than the standard library's keyed SipHash: the
/// keys are protocol-generated records, not attacker input, and FNV is faster
/// on the short keys interners see. Ids were always assigned in insertion
/// order, so the swap cannot change any id — it is purely a hot-path speedup
/// (`BENCH_scaling.json` records the before/after microbenchmark).
///
/// # Example
///
/// ```
/// use anet_num::intern::Interner;
///
/// let mut table = Interner::new();
/// let a = table.intern(&"alpha");
/// let b = table.intern(&"beta");
/// assert_eq!(table.intern(&"alpha"), a); // hash-consed: same value, same id
/// assert_eq!((a, b), (0, 1)); // dense, first-use order
/// assert_eq!(table.resolve(b), &"beta");
/// ```
#[derive(Debug, Clone)]
pub struct Interner<T> {
    lookup: HashMap<T, u32, FnvBuildHasher>,
    values: Vec<T>,
}

// Manual impl: an empty interner exists for any `T`, Default-or-not.
impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            lookup: HashMap::default(),
            values: Vec::new(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the id of `value`, interning it first if it is new.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct values are interned.
    pub fn intern(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.lookup.get(value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interner overflow: > u32::MAX values");
        self.lookup.insert(value.clone(), id);
        self.values.push(value.clone());
        id
    }

    /// Like [`intern`](Self::intern), taking ownership (one clone fewer on a
    /// miss). Provision for adopters that build values to intern rather than
    /// interning borrowed message contents (see the ROADMAP
    /// `labeling`/`general_broadcast` follow-up); the mapping protocol interns
    /// borrowed records and uses [`intern`](Self::intern).
    pub fn intern_owned(&mut self, value: T) -> u32 {
        if let Some(&id) = self.lookup.get(&value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interner overflow: > u32::MAX values");
        self.lookup.insert(value.clone(), id);
        self.values.push(value);
        id
    }

    /// The id of `value`, if it has been interned.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.lookup.get(value).copied()
    }

    /// The value behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    /// Number of interned values (equivalently: the next id to be assigned).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(id, value)` pairs in id (first-use) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

/// A growable bitset over dense `u32` ids.
///
/// Built for the flooding pattern "insert what arrived, forward what was
/// new": [`insert`](Self::insert) reports whether the id was absent.
/// Equality is *logical*: trailing zero words do not distinguish sets.
///
/// # Example
///
/// ```
/// use anet_num::intern::IdSet;
///
/// let mut known = IdSet::new();
/// assert!(known.insert(70)); // new: forward it…
/// assert!(!known.insert(70)); // …once
/// assert!(known.contains(70) && !known.contains(3));
/// assert_eq!(known.iter().collect::<Vec<_>>(), vec![70]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Creates an empty set with room for ids `0..capacity` pre-allocated.
    /// Provision for callers that know their interner's size up front (the
    /// mapping protocol's [`IdBag`]s size their bitset by the largest id they
    /// hold when they switch to one).
    pub fn with_capacity(capacity: usize) -> Self {
        IdSet {
            words: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
        }
    }

    fn grow_for(&mut self, id: u32) {
        let word = id as usize / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Inserts `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: u32) -> bool {
        self.grow_for(id);
        let (word, bit) = (id as usize / 64, id % 64);
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Word-level union: adds every id of `other` to `self`.
    pub fn union_with(&mut self, other: &IdSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            self.len += (b & !*a).count_ones() as usize;
            *a |= b;
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        Bits::new(&self.words)
    }
}

/// The ids of a bitset's words, in ascending order.
struct Bits<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Index of the word `rest` came from.
    word: usize,
    /// The bits of that word not yet yielded.
    rest: u64,
}

impl<'a> Bits<'a> {
    fn new(words: &'a [u64]) -> Self {
        Bits {
            words: words.iter().enumerate(),
            word: 0,
            rest: 0,
        }
    }
}

impl Iterator for Bits<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.rest == 0 {
            let (word, &bits) = self.words.next()?;
            self.word = word;
            self.rest = bits;
        }
        let bit = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some(self.word as u32 * 64 + bit)
    }
}

impl PartialEq for IdSet {
    fn eq(&self, other: &IdSet) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for IdSet {}

impl FromIterator<u32> for IdSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = IdSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// An id set that sizes its representation by occupancy as it grows.
///
/// A plain [`IdSet`] occupies `⌈(max id + 1) / 64⌉` words *regardless of how
/// many ids it holds*. That is perfect for a set that holds most of an id
/// range, and catastrophic for a handful of ids drawn from a huge id space:
/// at n = 10⁵ nodes, per-vertex bitsets over a ~10⁶-record interner would
/// cost gigabytes. An `IdBag` chooses as it grows:
///
/// * a sorted `Vec<u32>` (4 bytes an id, O(log n) lookup, O(n) insert) while
///   its ids are sparse;
/// * an [`IdSet`] (O(1) insert and lookup) from the insert after which it
///   holds eight ids or more and the bitset's words would take no more
///   bytes than the vector (one word per two ids), for as long as they take
///   at most twice as many (one word per id held);
/// * a sorted vector again when an outlying id would grow the bitset past
///   that bound.
///
/// So a bag never stores more than twice the bytes of its sorted vector
/// ([`storage_bytes`](Self::storage_bytes)). A switch costs O(len), and
/// between a switch to the vector and the next switch back the bag more than
/// doubles, so switching adds amortised O(1) per insert.
///
/// Both representations observe **identical semantics** — `insert` reports
/// a new id identically and `iter` yields ascending ids in both — so no
/// caller can tell which one holds its ids. Equality is logical
/// (representation-blind).
///
/// # Example
///
/// ```
/// use anet_num::intern::IdBag;
///
/// let mut known = IdBag::new();
/// for id in (0..16).rev() {
///     assert!(known.insert(id));
/// }
/// assert!(matches!(known, IdBag::Dense(_))); // sixteen ids in one word
/// assert!(!known.insert(3));
/// assert!(known.insert(1 << 20)); // an outlier: back to a sorted vector
/// assert!(matches!(known, IdBag::Sparse(_)) && known.contains(1 << 20));
/// assert_eq!(known.iter().last(), Some(1 << 20));
/// ```
#[derive(Debug, Clone)]
pub enum IdBag {
    /// Sorted vector of ids — memory proportional to the ids actually held.
    Sparse(Vec<u32>),
    /// Bitset over the id space, holding at least one id per word.
    Dense(IdSet),
}

impl Default for IdBag {
    fn default() -> Self {
        IdBag::Sparse(Vec::new())
    }
}

/// The fewest ids an [`IdBag`] holds as a bitset. A shorter sorted vector is
/// as quick to search as a bit test, and a bag that switched at two ids
/// would often switch straight back: a vertex deep in a tree learns the
/// run's first few records (ids 0, 1, …) before its ancestors' larger ones,
/// and would pay two allocations for nothing.
const MIN_DENSE_LEN: usize = 8;

impl IdBag {
    /// An empty bag.
    pub fn new() -> Self {
        IdBag::default()
    }

    /// Inserts `id`; returns whether it was newly inserted. Switches the
    /// representation when the bag's occupancy calls for it (see the
    /// [type docs](Self)).
    pub fn insert(&mut self, id: u32) -> bool {
        match self {
            IdBag::Dense(set) => {
                let word = id as usize / 64;
                // Past the last word, the bitset grows to `word + 1` words for
                // `len + 1` ids: at most one word per id, or back to a vector.
                if word >= set.words.len() && word > set.len {
                    // Collected by doubling, as a vector that had only ever
                    // been one would have grown: an exact fit would double on
                    // its next insert.
                    let mut ids: Vec<u32> = set.iter().collect();
                    ids.push(id);
                    *self = IdBag::Sparse(ids);
                    return true;
                }
                set.insert(id)
            }
            IdBag::Sparse(ids) => {
                let Err(pos) = ids.binary_search(&id) else {
                    return false;
                };
                ids.insert(pos, id);
                let words = *ids.last().expect("just inserted") as usize / 64 + 1;
                if ids.len() >= MIN_DENSE_LEN && 2 * words <= ids.len() {
                    let mut set = IdSet {
                        words: vec![0; words],
                        len: 0,
                    };
                    for &id in ids.iter() {
                        set.insert(id);
                    }
                    *self = IdBag::Dense(set);
                }
                true
            }
        }
    }

    /// Whether `id` is in the bag.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            IdBag::Sparse(ids) => ids.binary_search(&id).is_ok(),
            IdBag::Dense(set) => set.contains(id),
        }
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        match self {
            IdBag::Sparse(ids) => ids.len(),
            IdBag::Dense(set) => set.len(),
        }
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the representation stores, allocation slack aside: 4 per id as
    /// a sorted vector, 8 per word as a bitset. Never more than
    /// `8 * len()`, twice the sorted vector's.
    pub fn storage_bytes(&self) -> usize {
        match self {
            IdBag::Sparse(ids) => 4 * ids.len(),
            IdBag::Dense(set) => 8 * set.words.len(),
        }
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (sparse, dense): (&[u32], &[u64]) = match self {
            IdBag::Sparse(ids) => (ids, &[]),
            IdBag::Dense(set) => (&[], &set.words),
        };
        sparse.iter().copied().chain(Bits::new(dense))
    }
}

impl PartialEq for IdBag {
    fn eq(&self, other: &IdBag) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for IdBag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_ids_in_first_use_order() {
        let mut t = Interner::new();
        assert!(t.is_empty());
        let ids: Vec<u32> = ["a", "b", "a", "c", "b"]
            .iter()
            .map(|s| t.intern(s))
            .collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.resolve(2), &"c");
        assert_eq!(t.get(&"b"), Some(1));
        assert_eq!(t.get(&"z"), None);
        let listed: Vec<(u32, &&str)> = t.iter().collect();
        assert_eq!(listed, vec![(0, &"a"), (1, &"b"), (2, &"c")]);
    }

    #[test]
    fn intern_owned_agrees_with_intern() {
        let mut t = Interner::new();
        let a = t.intern(&String::from("x"));
        assert_eq!(t.intern_owned(String::from("x")), a);
        assert_eq!(t.intern_owned(String::from("y")), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn idset_insert_contains_len() {
        let mut s = IdSet::new();
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(63));
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(1) && !s.contains(999) && !s.contains(100_000));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1000]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    fn idset_equality_is_logical() {
        let mut a = IdSet::new();
        a.insert(5);
        a.insert(500); // grows to many words
        let mut b = IdSet::new();
        b.insert(5);
        assert_ne!(a, b);
        // After matching contents, trailing zero words must not matter.
        let mut c: IdSet = [5u32, 500].into_iter().collect();
        assert_eq!(a, c);
        c.insert(7);
        assert_ne!(a, c);
        let compact: IdSet = [5u32].into_iter().collect();
        let mut grown = IdSet::new();
        grown.insert(900);
        grown.clear();
        grown.insert(5);
        assert_eq!(compact, grown);
    }

    #[test]
    fn union_with_tracks_len_across_word_boundaries() {
        let a: IdSet = [1u32, 64, 129].into_iter().collect();
        let b: IdSet = [1u32, 2, 200].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 5);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 64, 129, 200]);
        // Union with a shorter set must not shrink the word vector.
        let mut v = b.clone();
        v.union_with(&a);
        assert_eq!(u, v);
    }

    fn is_dense(bag: &IdBag) -> bool {
        matches!(bag, IdBag::Dense(_))
    }

    fn bag_from(ids: &[u32]) -> IdBag {
        let mut bag = IdBag::new();
        for &id in ids {
            bag.insert(id);
        }
        bag
    }

    #[test]
    fn idbag_representations_agree_on_basic_ops() {
        // {5, 64, 900} is sparse (15 words for 3 ids); the same ids plus
        // 0..60 fill the words densely enough for a bitset.
        let filler: Vec<u32> = (0..60).collect();
        for dense in [false, true] {
            let extra = if dense { &filler[..] } else { &[] };
            let mut bag = bag_from(&[&[5, 900, 5, 64], extra].concat());
            let mut expected: Vec<u32> = [&[5, 64, 900], extra].concat();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(is_dense(&bag), dense);
            assert_eq!(bag.len(), expected.len());
            assert!(bag.contains(900) && bag.contains(5) && !bag.contains(901));
            assert!(!bag.insert(64));
            assert!(bag.insert(63));
            expected.insert(expected.binary_search(&63).unwrap_err(), 63);
            assert_eq!(bag.iter().collect::<Vec<_>>(), expected);
            assert_eq!(is_dense(&bag), dense);
            assert!(!bag.is_empty());
        }
        assert!(IdBag::new().is_empty());
        // Logical equality crosses representations: 0..16 then 640 is a
        // bitset of 11 words for 17 ids, while 640 first never gives the
        // vector's 17 ids the 22 a bitset of 11 words would need.
        let ascending: Vec<u32> = (0..16).chain([640]).collect();
        let outlier_first: Vec<u32> = [640].into_iter().chain(0..16).collect();
        let (dense, sparse) = (bag_from(&ascending), bag_from(&outlier_first));
        assert!(is_dense(&dense) && !is_dense(&sparse));
        assert_eq!(sparse, dense);
        assert_ne!(bag_from(&ascending[..16]), sparse);
        assert_ne!(bag_from(&[1, 2]), bag_from(&[1, 3]));
    }

    #[test]
    fn idbag_switches_to_a_bitset_and_back_by_occupancy() {
        let min = MIN_DENSE_LEN as u32;
        let mut bag = IdBag::new();
        for id in 0..min - 1 {
            assert!(bag.insert(id));
            assert!(!is_dense(&bag), "{} ids stay a vector", bag.len());
        }
        assert!(bag.insert(min - 1));
        assert!(is_dense(&bag), "{min} ids in one word");
        assert_eq!(bag.storage_bytes(), 8);
        // Growing the bitset to one word per id is allowed…
        assert!(bag.insert(min * 64));
        assert!(is_dense(&bag), "{} ids in {} words", min + 1, min + 1);
        assert_eq!(bag.storage_bytes(), 8 * (min as usize + 1));
        // …one word further is not.
        let outlier = (min + 2) * 64;
        assert!(bag.insert(outlier));
        assert!(!is_dense(&bag), "{} ids in {} words", min + 2, min + 3);
        assert_eq!(bag.storage_bytes(), 4 * (min as usize + 2));
        let mut expected: Vec<u32> = (0..min).chain([min * 64, outlier]).collect();
        assert_eq!(bag.iter().collect::<Vec<_>>(), expected);
        // Those words are worth a bitset from twice as many ids on.
        let words = min as usize + 3;
        while bag.len() + 1 < 2 * words {
            assert!(bag.insert(bag.len() as u32 - 2));
            assert!(!is_dense(&bag), "{} ids in {words} words", bag.len());
        }
        assert!(bag.insert(bag.len() as u32 - 2));
        assert!(is_dense(&bag), "{} ids in {words} words", bag.len());
        assert_eq!(bag.storage_bytes(), 8 * words);
        let small = 2 * words as u32 - 2;
        expected = (0..small).chain([min * 64, outlier]).collect();
        assert_eq!(bag.iter().collect::<Vec<_>>(), expected);
        assert!(!bag.insert(outlier));
        assert!(bag.insert(u32::MAX));
        assert!(!is_dense(&bag));
        expected.push(u32::MAX);
        assert_eq!(bag.iter().collect::<Vec<_>>(), expected);
    }
}
