//! Stable content hashing for run identities.
//!
//! The sweep engine caches finished runs under a key derived from
//! *everything that determines the result*: the scenario recipe, the seed,
//! and the run parameters. That key must be stable across processes,
//! platforms and Rust versions — `std::hash::Hasher` implementations give
//! no such guarantee — so this module pins its own algorithm:
//! **FNV-1a 64** over a canonical byte encoding.
//!
//! Canonical encoding rules (all little-endian):
//!
//! * integers are written as fixed-width little-endian bytes;
//! * floats are written as their IEEE-754 bit patterns (`to_bits`), so
//!   `-0.0` and `0.0` hash differently — callers should normalize if they
//!   consider them equal;
//! * strings/byte-slices are length-prefixed (`u64` length, then bytes),
//!   so `("ab", "c")` and `("a", "bc")` cannot collide.
//!
//! # Example
//!
//! ```
//! use dot11_adhoc::hash::StableHasher;
//!
//! let mut h = StableHasher::new();
//! h.write_str("four_station");
//! h.write_u64(105);
//! let a = h.finish();
//!
//! let mut h = StableHasher::new();
//! h.write_str("four_station");
//! h.write_u64(105);
//! assert_eq!(a, h.finish(), "same content, same key — in any process");
//! ```

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A hasher whose output is pinned by this file alone (FNV-1a 64 over a
/// canonical encoding) — safe to persist in cache filenames and golden
/// tests.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes *without* a length prefix. Use the typed writers
    /// below unless you are framing the data yourself.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write_raw(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// Absorbs an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 64-bit digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_the_offset_basis() {
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn known_vector_is_pinned() {
        // FNV-1a 64 of the raw bytes "a" — the published test vector.
        let mut h = StableHasher::new();
        h.write_raw(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writers_differ_from_each_other() {
        let mut a = StableHasher::new();
        a.write_u32(7);
        let mut b = StableHasher::new();
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish(), "width is part of the encoding");
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = StableHasher::new();
        a.write_f64(82.5);
        let mut b = StableHasher::new();
        b.write_f64(82.5);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_f64(82.5000001);
        assert_ne!(a.finish(), c.finish());
    }
}
