//! The workspace's stock *stable* hash: incremental FNV-1a over 64 bits.
//!
//! Pure integer arithmetic, so values are identical across platforms,
//! processes and runs — unlike [`std::hash::Hasher`] implementations, which
//! make no such promise. It backs trace digests, the sweep subsystem's
//! partitioner and file fingerprints, and the graph canonical fingerprints,
//! so the magic constants live in exactly one place.

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// `PRIME_POW[k]` is `PRIME^k` (mod 2⁶⁴): absorbing `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

impl Fnv1a {
    /// A hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a `u64` as its little-endian bytes.
    ///
    /// Absorbing a zero byte xors nothing in and leaves one multiply by the
    /// prime, so the value's zero high bytes fold into a single multiply by
    /// a power of the prime: the result equals [`Fnv1a::write`] of all eight
    /// bytes, for every value.
    pub fn write_u64(&mut self, value: u64) {
        let significant = 8 - value.leading_zeros() as usize / 8;
        let mut rest = value;
        for _ in 0..significant {
            self.0 ^= rest & 0xff;
            self.0 = self.0.wrapping_mul(PRIME);
            rest >>= 8;
        }
        self.0 = self.0.wrapping_mul(PRIME_POW[8 - significant]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// A [`std::hash::Hasher`] adapter over [`Fnv1a`], so the workspace's stable
/// hash can back `HashMap`s directly.
///
/// SipHash (the standard-library default) is keyed per process to resist
/// collision flooding — pointless for the workspace's interners, whose keys
/// are protocol-generated records. FNV-1a is unkeyed, so it is also
/// deterministic across runs. Interner *ids* never depended on hasher state
/// (they are assigned in insertion order), so the choice of hasher moves no
/// output, only speed.
///
/// Integer writes (`write_u64`, `write_usize`: derived `Hash` length
/// prefixes, discriminants, degrees, ports and mantissa words) go through
/// [`Fnv1a::write_u64`], which folds a value's zero high bytes into one
/// multiply; the hash equals [`Fnv1a::write`] over the value's eight
/// little-endian bytes.
#[derive(Debug, Clone, Default)]
pub struct FnvHasher(Fnv1a);

impl std::hash::Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    fn write_u64(&mut self, value: u64) {
        self.0.write_u64(value);
    }

    fn write_usize(&mut self, value: usize) {
        self.0.write_u64(value as u64);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// [`std::hash::BuildHasher`] for [`FnvHasher`] — plug into
/// `HashMap::with_hasher` or a `HashMap<K, V, FnvBuildHasher>` type alias.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(Fnv1a::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors: the empty string hashes to the offset
        // basis; "a" and "foobar" to the published 64-bit values.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_adapter_matches_raw_fnv() {
        use std::hash::{BuildHasher, Hasher};
        let mut adapted = FnvBuildHasher.build_hasher();
        adapted.write(b"foobar");
        let mut raw = Fnv1a::new();
        raw.write(b"foobar");
        assert_eq!(adapted.finish(), raw.finish());
        // Unkeyed: two independent builders agree.
        let mut again = FnvBuildHasher.build_hasher();
        again.write(b"foobar");
        assert_eq!(adapted.finish(), again.finish());
    }

    /// Integer writes through the `Hasher` adapter hash exactly as the byte
    /// loop over their little-endian bytes: at every byte boundary, and for
    /// the writes a derived `Hash` makes.
    #[test]
    fn hasher_integer_writes_match_the_byte_loop() {
        use std::hash::{BuildHasher, Hasher};
        let mut values = vec![0, u64::MAX];
        for k in 1..8 {
            values.extend([(1u64 << (8 * k)) - 1, 1 << (8 * k)]);
        }
        for value in values {
            let mut bytes = Fnv1a::new();
            bytes.write(&value.to_le_bytes());
            let mut adapted = FnvBuildHasher.build_hasher();
            adapted.write_u64(value);
            assert_eq!(adapted.finish(), bytes.finish(), "u64 {value:#x}");
            let mut adapted = FnvBuildHasher.build_hasher();
            adapted.write_usize(value as usize);
            assert_eq!(adapted.finish(), bytes.finish(), "usize {value:#x}");
        }

        #[derive(Hash)]
        enum Kind {
            _Vertex,
            Edge { port: usize },
        }
        #[derive(Hash)]
        struct Key {
            kind: Kind,
            word: u64,
            tag: u8,
            parts: Vec<u32>,
        }
        let key = Key {
            kind: Kind::Edge { port: 0x1_0000 },
            word: u64::MAX - 1,
            tag: 7,
            parts: vec![1, 0x0102_0304],
        };
        // The discriminant (written as a `usize`), each field's little-endian
        // bytes, and the vector's length prefix before its elements.
        let mut bytes = Fnv1a::new();
        bytes.write(&1usize.to_le_bytes());
        bytes.write(&0x1_0000usize.to_le_bytes());
        bytes.write(&(u64::MAX - 1).to_le_bytes());
        bytes.write(&[7]);
        bytes.write(&2usize.to_le_bytes());
        bytes.write(&1u32.to_le_bytes());
        bytes.write(&0x0102_0304u32.to_le_bytes());
        assert_eq!(FnvBuildHasher.hash_one(&key), bytes.finish());
    }

    #[test]
    fn write_u64_is_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]);
        assert_eq!(a.finish(), b.finish());
    }

    /// The folded zero high bytes match the byte loop at zero, on both sides
    /// of every byte-length boundary, and at the maximum — from the initial
    /// state and after earlier input.
    #[test]
    fn write_u64_matches_the_byte_loop_at_every_length() {
        let mut values = vec![0, u64::MAX];
        for k in 1..8 {
            values.extend([(1u64 << (8 * k)) - 1, 1 << (8 * k)]);
        }
        for value in values {
            for prefix in [&b""[..], b"foobar"] {
                let mut folded = Fnv1a::new();
                folded.write(prefix);
                folded.write_u64(value);
                let mut bytes = Fnv1a::new();
                bytes.write(prefix);
                bytes.write(&value.to_le_bytes());
                assert_eq!(folded.finish(), bytes.finish(), "value {value:#x}");
            }
        }
    }
}
