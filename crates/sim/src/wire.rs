//! Wire-size accounting for protocol messages, and the shared-slice message
//! payload used by flooding protocols.

use std::sync::Arc;

/// A message that knows its own transmitted size in bits.
///
/// The paper's complexity theorems count bits on edges; every protocol message type
/// therefore reports the size of its (self-delimiting) encoding. Implementations
/// must be consistent — two equal messages report equal sizes — and should reflect
/// an encoding a real implementation could use (length-prefixed binary expansions,
/// gamma-coded exponents, …), not merely `size_of`.
pub trait Wire {
    /// Number of bits this message occupies on an edge.
    fn wire_bits(&self) -> u64;
}

impl Wire for () {
    fn wire_bits(&self) -> u64 {
        1
    }
}

impl Wire for u64 {
    fn wire_bits(&self) -> u64 {
        64
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_bits(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::wire_bits)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_bits(&self) -> u64 {
        self.0.wire_bits() + self.1.wire_bits()
    }
}

/// A reference-counted slice payload whose clone is O(1), with a caller-supplied
/// encoded size.
///
/// Flooding protocols send the *same* batch of newly learned facts on every
/// out-port. Carrying the batch as an owned `Vec` makes each send pay a deep
/// clone; a `SharedSlice` is an `Arc<[T]>`, so the per-port (and per-trace-event)
/// clone is a reference-count bump regardless of batch size — which is why
/// [`Clone`] here deliberately does **not** require `T: Clone`. An empty batch
/// (most activations flood nothing) holds no `Arc` and allocates nothing.
///
/// The wire size is supplied at construction: the slice elements are typically
/// run-local names (interned ids) whose honest on-the-wire cost is the encoding
/// of the *values they name*, which only the caller can account. Constructors
/// must pass the full self-delimiting encoded size of the batch (length prefix
/// included); two batches holding equal elements are expected to report equal
/// sizes, keeping the [`Wire`] consistency contract.
#[derive(Debug)]
pub struct SharedSlice<T> {
    /// `None` for an empty batch.
    items: Option<Arc<[T]>>,
    encoded_bits: u64,
}

impl<T> SharedSlice<T> {
    /// Wraps `items`, declaring that the batch occupies `encoded_bits` bits on
    /// an edge (self-delimiting encoding, length prefix included).
    pub fn new(items: Vec<T>, encoded_bits: u64) -> Self {
        SharedSlice {
            items: (!items.is_empty()).then(|| items.into()),
            encoded_bits,
        }
    }

    /// An empty batch costing `encoded_bits` bits (the length prefix of zero).
    pub fn empty(encoded_bits: u64) -> Self {
        SharedSlice::new(Vec::new(), encoded_bits)
    }

    /// The shared elements.
    pub fn items(&self) -> &[T] {
        self.items.as_deref().unwrap_or(&[])
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// Whether the batch holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_none()
    }

    /// The declared encoded size in bits (same value [`Wire::wire_bits`] reports).
    pub fn encoded_bits(&self) -> u64 {
        self.encoded_bits
    }
}

// Manual impl: an `Arc` clone is a refcount bump, so `T: Clone` is not needed —
// this is what keeps per-delivery message clones O(1) for slice-carrying
// messages.
impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice {
            items: self.items.clone(),
            encoded_bits: self.encoded_bits,
        }
    }
}

impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.encoded_bits == other.encoded_bits && self.items() == other.items()
    }
}

impl<T: Eq> Eq for SharedSlice<T> {}

impl<T> std::ops::Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.items()
    }
}

impl<T> Wire for SharedSlice<T> {
    fn wire_bits(&self) -> u64 {
        self.encoded_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().wire_bits(), 1);
        assert_eq!(7u64.wire_bits(), 64);
        assert_eq!((3u64, ()).wire_bits(), 65);
    }

    #[test]
    fn option_adds_presence_bit() {
        let none: Option<u64> = None;
        assert_eq!(none.wire_bits(), 1);
        assert_eq!(Some(1u64).wire_bits(), 65);
    }

    /// A payload type that deliberately cannot be cloned: `SharedSlice` must
    /// still clone (the Arc is shared, not the elements).
    #[derive(Debug, PartialEq, Eq)]
    struct NoClone(u8);

    #[test]
    fn shared_slice_clones_without_element_clone() {
        let a = SharedSlice::new(vec![NoClone(1), NoClone(2)], 17);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.wire_bits(), 17);
        assert_eq!(b.items(), &[NoClone(1), NoClone(2)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        // Deref gives slice methods for free.
        assert_eq!(b.first(), Some(&NoClone(1)));
    }

    #[test]
    fn shared_slice_empty_clone_shares_the_empty_slice() {
        let empty: SharedSlice<NoClone> = SharedSlice::empty(3);
        let clone = empty.clone();
        assert!(clone.is_empty());
        assert_eq!(clone.len(), 0);
        assert_eq!(clone.wire_bits(), 3);
        assert_eq!(clone.encoded_bits(), 3);
        assert_eq!(clone.items(), &[] as &[NoClone]);
        assert_eq!(empty, clone);
        // Deref to the empty slice works on both the original and the clone.
        assert_eq!(empty.first(), None);
        assert!(clone.iter().next().is_none());
        // `empty` and `new(vec![], _)` are the same construction.
        let via_new: SharedSlice<NoClone> = SharedSlice::new(Vec::new(), 3);
        assert_eq!(via_new, clone);
    }

    #[test]
    fn shared_slice_one_element_clone_is_shared_not_deep() {
        let one = SharedSlice::new(vec![NoClone(42)], 11);
        let clone = one.clone();
        // The clone is an Arc bump: both views observe the same allocation.
        assert!(std::ptr::eq(one.items().as_ptr(), clone.items().as_ptr()));
        assert_eq!(clone.len(), 1);
        assert!(!clone.is_empty());
        assert_eq!(clone.wire_bits(), 11);
        assert_eq!(clone.first(), Some(&NoClone(42)));
        assert_eq!(clone.last(), Some(&NoClone(42)));
        assert_eq!(one, clone);
        // Dropping the original keeps the clone's contents alive.
        drop(one);
        assert_eq!(clone.items(), &[NoClone(42)]);
    }

    #[test]
    fn shared_slice_equality_covers_bits_and_items() {
        let a = SharedSlice::new(vec![1u32, 2], 9);
        assert_eq!(a, SharedSlice::new(vec![1u32, 2], 9));
        assert_ne!(a, SharedSlice::new(vec![1u32, 2], 10));
        assert_ne!(a, SharedSlice::new(vec![1u32, 3], 9));
        let empty: SharedSlice<u32> = SharedSlice::empty(1);
        assert!(empty.is_empty());
        assert_eq!(empty.encoded_bits(), 1);
        assert_eq!(empty.wire_bits(), 1);
    }
}
