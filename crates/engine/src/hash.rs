//! A fixed, deterministic hasher for the simulator's per-access maps.
//!
//! `std`'s default SipHash with per-process random keys is built to resist
//! adversarial keys; the simulator's keys (line addresses, array ids, stat
//! names) come from its own deterministic runs, so that cost buys nothing
//! on the cache-tag, directory and speculative-store lookups every access
//! makes. This is the multiply-rotate word hash popularized by Firefox and
//! rustc ("FxHash"). Output never depends on iteration order: every caller
//! either looks up point-wise or sorts before rendering.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// The word-at-a-time multiply-rotate hasher behind [`FixedMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FixedHasher`]: same results on every run
/// and host, and a few multiplies per lookup instead of SipHash rounds.
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FixedHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_fixed_and_spread() {
        assert_eq!(hash_of(1u64), hash_of(1u64));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("abc"), hash_of("abd"));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        let mut m: FixedMap<u64, u64> = FixedMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&999), Some(&1998));
    }
}
