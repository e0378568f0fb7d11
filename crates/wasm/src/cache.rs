//! Memoized fingerprinting keyed by module content hash.
//!
//! §3.2: the paper found the same miner builds deployed across many
//! domains — *"In fact, only a few mining scripts are used by the vast
//! majority of sites"*. A scan therefore fingerprints the same byte-for-byte
//! module over and over; [`FingerprintCache`] hashes the raw dump once and
//! reuses the parsed fingerprint for every later sighting.
//!
//! Only the *fingerprint* is cached, never a classification: family
//! assignment depends on per-domain context (e.g. which WebSocket backend
//! the page opened), so callers re-classify the cached fingerprint per
//! sighting. The cache is sharded for low contention and safe to share
//! across pipeline workers.

use crate::fingerprint::{fingerprint_with, Fingerprint};
use crate::module::Module;
use minedig_primitives::Hash32;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards; a power of two so the hash's
/// low bits spread entries evenly.
const SHARDS: usize = 16;

/// A concurrent, content-addressed fingerprint memo.
///
/// Keys are `SHA-256(raw module bytes)`; values are the parse outcome —
/// `None` records that the bytes are not a valid module, so malformed
/// dumps are also only parsed once.
#[derive(Debug)]
pub struct FingerprintCache {
    shards: Vec<Mutex<HashMap<Hash32, Option<Fingerprint>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for FingerprintCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintCache {
    /// Creates an empty cache.
    pub fn new() -> FingerprintCache {
        FingerprintCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Parses and fingerprints `dump`, memoized by content hash.
    ///
    /// Returns `None` if the bytes do not parse as a module. `scratch` is
    /// the caller's reusable encode buffer (see
    /// [`fingerprint_with`](crate::fingerprint::fingerprint_with)); it is
    /// only touched on a miss.
    pub fn fingerprint(&self, dump: &[u8], scratch: &mut Vec<u8>) -> Option<Fingerprint> {
        let key = Hash32::sha256(dump);
        let shard = &self.shards[key.low_u64() as usize % SHARDS];
        if let Some(cached) = shard.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fp = Module::parse(dump)
            .ok()
            .map(|m| fingerprint_with(&m, scratch));
        shard.lock().insert(key, fp.clone());
        fp
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to parse and fingerprint.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct modules seen (valid or not).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::module::ModuleBuilder;
    use crate::opcode::Instr;

    fn sample_module(xors: usize) -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let t = b.add_type(vec![], vec![]);
        let mut body = vec![Instr::I32Const(1), Instr::I32Const(2)];
        for _ in 0..xors {
            body.push(Instr::I32Xor);
            body.push(Instr::I32Const(3));
        }
        body.push(Instr::Drop);
        body.push(Instr::Drop);
        let f = b.add_function(t, vec![], body);
        b.export("run", f);
        b.finish().encode()
    }

    #[test]
    fn cached_fingerprint_matches_direct_computation() {
        let cache = FingerprintCache::new();
        let bytes = sample_module(4);
        let mut scratch = Vec::new();
        let via_cache = cache.fingerprint(&bytes, &mut scratch).unwrap();
        let direct = fingerprint(&Module::parse(&bytes).unwrap());
        assert_eq!(via_cache, direct);
    }

    #[test]
    fn repeat_lookups_hit() {
        let cache = FingerprintCache::new();
        let bytes = sample_module(2);
        let mut scratch = Vec::new();
        for _ in 0..5 {
            cache.fingerprint(&bytes, &mut scratch).unwrap();
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 4);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn invalid_modules_memoize_the_failure() {
        let cache = FingerprintCache::new();
        let mut scratch = Vec::new();
        assert!(cache.fingerprint(b"not wasm", &mut scratch).is_none());
        assert!(cache.fingerprint(b"not wasm", &mut scratch).is_none());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn distinct_modules_occupy_distinct_entries() {
        let cache = FingerprintCache::new();
        let mut scratch = Vec::new();
        let a = cache.fingerprint(&sample_module(1), &mut scratch).unwrap();
        let b = cache.fingerprint(&sample_module(9), &mut scratch).unwrap();
        assert_ne!(a.sha256, b.sha256);
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn shared_across_threads() {
        let cache = FingerprintCache::new();
        let bytes = sample_module(3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut scratch = Vec::new();
                    for _ in 0..25 {
                        cache.fingerprint(&bytes, &mut scratch).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 100);
        assert_eq!(cache.entries(), 1);
        assert!(cache.hits() > 90);
    }
}
