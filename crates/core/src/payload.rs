//! The broadcast payload `m`.

use std::sync::Arc;

use anet_num::bits;
use anet_sim::Wire;

/// The message `m` being broadcast.
///
/// Only its size matters for the complexity accounting (`|m|` in every bound), but
/// carrying real bytes keeps the examples honest: the report can verify that every
/// vertex ended up holding the same payload the root injected.
///
/// The bytes are shared: cloning a payload into a message or a trace event
/// bumps a reference count instead of copying them. Equality and hashing go
/// by the bytes, never by the shared buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload {
    data: Arc<[u8]>,
}

impl Payload {
    /// An empty payload (`|m| = 0`), used when only termination detection matters.
    pub fn empty() -> Self {
        Payload::default()
    }

    /// Builds a payload from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Payload { data: bytes.into() }
    }

    /// Builds a synthetic payload of exactly `bits` bits (rounded up to whole
    /// bytes), used by the benchmark sweeps over `|m|`.
    pub fn synthetic(bits: u64) -> Self {
        let bytes = usize::try_from(bits.div_ceil(8)).expect("payload size fits in memory");
        Payload::from(vec![0xA5; bytes])
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// `|m|` in bits.
    pub fn len_bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Wire for Payload {
    fn wire_bits(&self) -> u64 {
        bits::length_prefixed_bits(self.len_bits())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::from_bytes(bytes)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        Payload { data: data.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_size() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::empty().len_bits(), 0);
        let p = Payload::from_bytes(b"abc");
        assert_eq!(p.len_bits(), 24);
        assert_eq!(p.as_bytes(), b"abc");
        assert_eq!(Payload::default(), Payload::empty());
    }

    #[test]
    fn synthetic_rounds_up_to_bytes() {
        assert_eq!(Payload::synthetic(0).len_bits(), 0);
        assert_eq!(Payload::synthetic(1).len_bits(), 8);
        assert_eq!(Payload::synthetic(64).len_bits(), 64);
        assert_eq!(Payload::synthetic(65).len_bits(), 72);
    }

    #[test]
    fn wire_size_includes_length_prefix() {
        let p = Payload::synthetic(64);
        assert!(p.wire_bits() > 64);
        assert!(p.wire_bits() < 64 + 32);
        assert!(Payload::empty().wire_bits() >= 1);
    }

    #[test]
    fn clones_share_storage_and_compare_by_value() {
        use std::hash::{BuildHasher, RandomState};
        let p = Payload::from_bytes(b"shared");
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.data, &q.data), "a clone copied the bytes");
        let fresh = Payload::from_bytes(b"shared");
        assert!(!Arc::ptr_eq(&p.data, &fresh.data));
        assert_eq!(q, fresh);
        let state = RandomState::new();
        assert_eq!(state.hash_one(&q), state.hash_one(&fresh));
        assert_ne!(p, Payload::from_bytes(b"other"));
    }

    #[test]
    fn conversions() {
        let p: Payload = b"xy".as_slice().into();
        assert_eq!(p.len_bits(), 16);
        let q: Payload = vec![1, 2, 3].into();
        assert_eq!(q.len_bits(), 24);
    }
}
