//! A fast, non-cryptographic hasher for the hot-path name lookups.
//!
//! The interner keys are short trusted strings from study specifications —
//! never attacker-controlled — so SipHash's DoS resistance buys nothing
//! here while its per-lookup cost shows up in every `notify_event` call.
//! This is the classic multiply-rotate-xor construction (as popularized by
//! rustc's FxHash), written in-house to keep the crate dependency-free.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden ratio (same constant family FxHash uses);
/// spreads low-entropy inputs across the full 64-bit state.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A multiply-rotate-xor [`Hasher`] over 8-byte words.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add_word(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if let Some((chunk, rest)) = bytes.split_first_chunk::<4>() {
            self.add_word(u64::from(u32::from_le_bytes(*chunk)));
            bytes = rest;
        }
        for &b in bytes {
            self.add_word(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed with the fast in-house hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(hash_of(b"ELECT"), hash_of(b"ELECT"));
        assert_ne!(hash_of(b"ELECT"), hash_of(b"ELECTX"));
        assert_ne!(hash_of(b"AB"), hash_of(b"BA"));
        assert_ne!(hash_of(b"GO"), hash_of(b"DONE"));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("GO".to_owned(), 1);
        m.insert("DONE".to_owned(), 2);
        assert_eq!(m.get("GO"), Some(&1));
        assert_eq!(m.get("DONE"), Some(&2));
        assert_eq!(m.get("NOPE"), None);
    }

    #[test]
    fn mixed_width_writes_feed_the_same_state() {
        let mut a = FxHasher::default();
        a.write_u32(7);
        a.write_u64(9);
        let mut b = FxHasher::default();
        b.write_u32(7);
        assert_ne!(a.finish(), b.finish());
    }
}
