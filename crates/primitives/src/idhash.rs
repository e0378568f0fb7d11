//! A fast hasher for integer ids the program generates itself.
//!
//! `std`'s default hasher, SipHash-1-3, resists hash flooding: whoever
//! picks the keys cannot force them into one bucket. Keys the program
//! derives itself — creator tokens, hash requirements, link indices —
//! need no such defence, and on them SipHash costs more than the table
//! probe it feeds. [`IdHasher`] is the multiply-rotate hash of
//! rustc-hash 2: each word is added to the state and the sum multiplied
//! by an odd constant, which carries its entropy into the high bits.
//! The std table (hashbrown) picks a bucket by the low bits of the hash,
//! so [`finish`](Hasher::finish) rotates the high bits down.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of rustc-hash 2 (64-bit).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for program-generated integer keys. Not
/// flooding-resistant: never key it by untrusted input.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    /// Byte keys are folded in as little-endian words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by program-generated ids.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of program-generated ids.
pub type IdSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    /// The most keys that share a bucket of a `2^bits`-slot table that
    /// picks buckets by the low bits of the hash, as hashbrown does.
    fn worst_bucket<T: Hash>(keys: impl Iterator<Item = T>, bits: u32) -> usize {
        let mask = (1u64 << bits) - 1;
        let mut load = std::collections::HashMap::new();
        for key in keys {
            *load.entry(hash_of(key) & mask).or_insert(0) += 1;
        }
        load.into_values().max().unwrap_or(0)
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_buckets() {
        // A product keeps the zero low bits of `k << 32`: without the
        // final rotation all 4,096 keys would share bucket 0.
        assert!(worst_bucket((0..4_096u64).map(|k| k << 32), 12) <= 4);
    }

    #[test]
    fn dense_strided_and_paired_ids_spread_over_buckets() {
        assert!(worst_bucket(0..4_096u64, 12) <= 4);
        assert!(worst_bucket((0..4_096u64).map(|k| k * 4_096), 12) <= 4);
        let pairs =
            (0..1_024u64).flat_map(|t| [256u64, 512, 1 << 16, 10u64.pow(19)].map(|h| (t, h)));
        assert!(worst_bucket(pairs, 12) <= 4);
    }

    #[test]
    fn pairs_hash_by_both_fields_in_order() {
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        assert_ne!(hash_of((0u64, 512u64)), hash_of((0u64, 1_024u64)));
        assert_eq!(hash_of((7u64, 512u64)), hash_of((7u64, 512u64)));
        // A `u32` id hashes as its `u64` widening: one word.
        assert_eq!(hash_of((7u32, 512u64)), hash_of((7u64, 512u64)));
    }

    #[test]
    fn byte_keys_fold_every_byte() {
        let mut a = IdHasher::default();
        a.write(b"abcdefgh-tail");
        let mut b = IdHasher::default();
        b.write(b"abcdefgh-tall");
        assert_ne!(a.finish(), b.finish());
        let mut word = IdHasher::default();
        word.write(&7u64.to_le_bytes());
        let mut int = IdHasher::default();
        int.write_u64(7);
        assert_eq!(word.finish(), int.finish());
    }

    #[test]
    fn id_sets_hold_what_sip_sets_hold() {
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i % 977, 1 << (i % 9))).collect();
        let id: IdSet<(u64, u64)> = pairs.iter().copied().collect();
        let sip: std::collections::HashSet<(u64, u64)> = pairs.iter().copied().collect();
        assert_eq!(id.len(), sip.len());
        assert!(sip.iter().all(|p| id.contains(p)));
    }
}
