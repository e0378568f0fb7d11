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
//!
//! ## Persistence
//!
//! Because the memo is content-addressed, it survives a process exit
//! untouched by crawl state: [`FingerprintCache::save`] writes every
//! entry through the crash-safe snapshot format in
//! `minedig_primitives::ckpt`, and [`FingerprintCache::load`] warm-starts
//! a later run from it. The snapshot is *keyed by corpus content*
//! ([`corpus_content_key`]): a snapshot built against a different module
//! universe is reported [`CacheWarmth::Stale`] and ignored rather than
//! poisoning the run with fingerprints no dump can produce. Warm-started
//! entries are tracked separately from entries computed this run, so
//! reports can split the hit rate into its warm and cold components.

use crate::corpus::CorpusEntry;
use crate::fingerprint::{fingerprint_with, Features, Fingerprint};
use crate::module::Module;
use minedig_primitives::ckpt::{CkptError, SnapReader, SnapWriter, Snapshot, SnapshotStore};
use minedig_primitives::sha256::Sha256;
use minedig_primitives::Hash32;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards; a power of two so the hash's
/// low bits spread entries evenly.
const SHARDS: usize = 16;

/// One memo slot: the parse outcome plus whether it arrived from a
/// snapshot (warm) or was computed during this run (cold).
#[derive(Clone, Debug)]
struct Slot {
    fp: Option<Fingerprint>,
    warm: bool,
}

/// How [`FingerprintCache::load`] started the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheWarmth {
    /// No snapshot on disk: every first sighting must parse.
    Cold,
    /// A snapshot existed but was keyed to a different corpus; it was
    /// left untouched and the cache starts empty.
    Stale {
        /// The corpus key the on-disk snapshot was built for.
        found_key: u64,
    },
    /// The snapshot matched and its entries were preloaded.
    Warm {
        /// Entries preloaded from the snapshot.
        entries: usize,
    },
}

/// A content key over a module corpus: the low half of a SHA-256 over
/// every module's encoded bytes, in corpus order. Two runs whose dumps
/// come from the same generated universe agree on this key; regenerating
/// the corpus differently (new seed, new profiles) changes it and
/// invalidates any persisted fingerprint memo keyed to it.
pub fn corpus_content_key(corpus: &[CorpusEntry]) -> u64 {
    let mut hasher = Sha256::new();
    for entry in corpus {
        let bytes = entry.module.encode();
        hasher.update(&(bytes.len() as u64).to_le_bytes());
        hasher.update(&bytes);
    }
    Hash32(hasher.finalize()).low_u64()
}

/// A concurrent, content-addressed fingerprint memo.
///
/// Keys are `SHA-256(raw module bytes)`; values are the parse outcome —
/// `None` records that the bytes are not a valid module, so malformed
/// dumps are also only parsed once.
#[derive(Debug)]
pub struct FingerprintCache {
    shards: Vec<Mutex<HashMap<Hash32, Slot>>>,
    warm_hits: AtomicU64,
    cold_hits: AtomicU64,
    misses: AtomicU64,
    preloaded: u64,
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
            warm_hits: AtomicU64::new(0),
            cold_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            preloaded: 0,
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
            if cached.warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.cold_hits.fetch_add(1, Ordering::Relaxed);
            }
            return cached.fp.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fp = Module::parse(dump)
            .ok()
            .map(|m| fingerprint_with(&m, scratch));
        shard.lock().insert(
            key,
            Slot {
                fp: fp.clone(),
                warm: false,
            },
        );
        fp
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.warm_hits() + self.cold_hits()
    }

    /// Lookups answered by entries preloaded from a snapshot.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Lookups answered by entries computed during this run.
    pub fn cold_hits(&self) -> u64 {
        self.cold_hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to parse and fingerprint.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Fraction of lookups answered by snapshot-preloaded entries —
    /// the warm component of [`hit_rate`](FingerprintCache::hit_rate).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = (self.hits() + self.misses()) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.warm_hits() as f64 / total
        }
    }

    /// Number of distinct modules seen (valid or not).
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Entries this cache was warm-started with (0 for a cold start).
    pub fn preloaded(&self) -> u64 {
        self.preloaded
    }

    /// Persists every entry as a crash-safe snapshot named `name` in
    /// `store`, keyed by `corpus_key` (see [`corpus_content_key`]).
    /// Entries are written in key order, so saving an unchanged cache
    /// rewrites byte-identical payloads. Returns the snapshot size.
    pub fn save(
        &self,
        store: &SnapshotStore,
        name: &str,
        corpus_key: u64,
    ) -> Result<u64, CkptError> {
        let mut entries: Vec<(Hash32, Option<Fingerprint>)> = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            entries.extend(guard.iter().map(|(k, slot)| (*k, slot.fp.clone())));
        }
        entries.sort_by_key(|e| e.0);
        let mut w = SnapWriter::new();
        w.len(entries.len());
        for (key, fp) in &entries {
            w.hash(key);
            w.opt(fp.as_ref(), put_fingerprint);
        }
        store.save(name, &Snapshot::new(corpus_key, w.finish()))
    }

    /// Loads the snapshot named `name` from `store`, warm-starting a new
    /// cache when the snapshot's corpus key matches `corpus_key`.
    ///
    /// A missing snapshot is a [`CacheWarmth::Cold`] start and a
    /// mismatched key a [`CacheWarmth::Stale`] one — both return an
    /// empty, fully usable cache. Only a corrupt or unreadable snapshot
    /// is an error.
    pub fn load(
        store: &SnapshotStore,
        name: &str,
        corpus_key: u64,
    ) -> Result<(FingerprintCache, CacheWarmth), CkptError> {
        let snap = match store.load(name)? {
            None => return Ok((FingerprintCache::new(), CacheWarmth::Cold)),
            Some(snap) => snap,
        };
        if snap.progress_key != corpus_key {
            return Ok((
                FingerprintCache::new(),
                CacheWarmth::Stale {
                    found_key: snap.progress_key,
                },
            ));
        }
        let mut r = SnapReader::new(snap.full_payload()?);
        let count = r.len()?;
        let mut cache = FingerprintCache::new();
        for _ in 0..count {
            let key = r.hash()?;
            let fp = r.opt(take_fingerprint)?;
            let shard = &cache.shards[key.low_u64() as usize % SHARDS];
            if shard.lock().insert(key, Slot { fp, warm: true }).is_some() {
                return Err(CkptError::Corrupt("duplicate cache key in snapshot"));
            }
        }
        r.expect_end()?;
        cache.preloaded = count as u64;
        Ok((cache, CacheWarmth::Warm { entries: count }))
    }
}

/// Encodes one fingerprint: signature hash, the eleven scalar features,
/// then the two name lists. Append-only — extend at the end and bump
/// the snapshot format version if the layout must change.
fn put_fingerprint(w: &mut SnapWriter, fp: &Fingerprint) {
    w.hash(&fp.sha256);
    let f = &fp.features;
    for v in [
        f.functions,
        f.total_instrs,
        f.xor,
        f.shift,
        f.load,
        f.store,
        f.arith,
        f.logic,
        f.control,
        f.plumbing,
        f.memory_pages,
    ] {
        w.u64(u64::from(v));
    }
    w.len(f.export_names.len());
    for n in &f.export_names {
        w.str(n);
    }
    w.len(f.function_names.len());
    for n in &f.function_names {
        w.str(n);
    }
}

/// Mirror of [`put_fingerprint`].
fn take_fingerprint(r: &mut SnapReader<'_>) -> Result<Fingerprint, CkptError> {
    let sha256 = r.hash()?;
    let mut scalars = [0u32; 11];
    for s in &mut scalars {
        *s = u32::try_from(r.u64()?)
            .map_err(|_| CkptError::Corrupt("feature counter overflows u32"))?;
    }
    let strings = |r: &mut SnapReader<'_>| -> Result<Vec<String>, CkptError> {
        let n = r.len()?;
        (0..n).map(|_| r.str()).collect()
    };
    let export_names = strings(r)?;
    let function_names = strings(r)?;
    Ok(Fingerprint {
        sha256,
        features: Features {
            functions: scalars[0],
            total_instrs: scalars[1],
            xor: scalars[2],
            shift: scalars[3],
            load: scalars[4],
            store: scalars[5],
            arith: scalars[6],
            logic: scalars[7],
            control: scalars[8],
            plumbing: scalars[9],
            memory_pages: scalars[10],
            export_names,
            function_names,
        },
    })
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
        assert!((cache.hit_rate() - 0.8).abs() < 1e-12);
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

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("minedig-fpcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).expect("open store")
    }

    #[test]
    fn saved_cache_warm_starts_a_second_run() {
        let store = temp_store("warm");
        let cold = FingerprintCache::new();
        let mut scratch = Vec::new();
        let dumps = [sample_module(1), sample_module(5), b"not wasm".to_vec()];
        for d in &dumps {
            cold.fingerprint(d, &mut scratch);
        }
        let bytes = cold.save(&store, "fpcache", 42).expect("save");
        assert!(bytes > 0);

        let (warm, warmth) = FingerprintCache::load(&store, "fpcache", 42).expect("load");
        assert_eq!(warmth, CacheWarmth::Warm { entries: 3 });
        assert_eq!(warm.preloaded(), 3);
        assert_eq!(warm.entries(), 3);
        // Every dump — including the memoized parse failure — answers
        // from the preloaded memo, and the answers match a fresh parse.
        for d in &dumps {
            assert_eq!(
                warm.fingerprint(d, &mut scratch),
                cold.fingerprint(d, &mut scratch)
            );
        }
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.warm_hits(), 3);
        assert_eq!(warm.cold_hits(), 0);
        assert!((warm.warm_hit_rate() - 1.0).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mismatched_corpus_key_reads_as_a_stale_start() {
        let store = temp_store("stale");
        let cache = FingerprintCache::new();
        let mut scratch = Vec::new();
        cache.fingerprint(&sample_module(2), &mut scratch);
        cache.save(&store, "fpcache", 7).expect("save");

        let (reloaded, warmth) = FingerprintCache::load(&store, "fpcache", 8).expect("load");
        assert_eq!(warmth, CacheWarmth::Stale { found_key: 7 });
        assert_eq!(reloaded.entries(), 0);
        assert_eq!(reloaded.preloaded(), 0);

        let (_, missing) = FingerprintCache::load(&store, "absent", 7).expect("load");
        assert_eq!(missing, CacheWarmth::Cold);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn warm_and_cold_hits_split_the_rate() {
        let store = temp_store("split");
        let first = FingerprintCache::new();
        let mut scratch = Vec::new();
        first.fingerprint(&sample_module(1), &mut scratch);
        first.save(&store, "fpcache", 1).expect("save");

        let (cache, _) = FingerprintCache::load(&store, "fpcache", 1).expect("load");
        // Two warm hits on the preloaded module, one miss plus one cold
        // hit on a module first seen this run.
        cache.fingerprint(&sample_module(1), &mut scratch);
        cache.fingerprint(&sample_module(1), &mut scratch);
        cache.fingerprint(&sample_module(9), &mut scratch);
        cache.fingerprint(&sample_module(9), &mut scratch);
        assert_eq!(cache.warm_hits(), 2);
        assert_eq!(cache.cold_hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.75).abs() < 1e-12);
        assert!((cache.warm_hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_is_deterministic_across_insertion_orders() {
        let store = temp_store("det");
        let a = FingerprintCache::new();
        let b = FingerprintCache::new();
        let mut scratch = Vec::new();
        let dumps = [sample_module(1), sample_module(4), sample_module(7)];
        for d in &dumps {
            a.fingerprint(d, &mut scratch);
        }
        for d in dumps.iter().rev() {
            b.fingerprint(d, &mut scratch);
        }
        a.save(&store, "a", 3).expect("save");
        b.save(&store, "b", 3).expect("save");
        let bytes_a = std::fs::read(store.path("a")).expect("read a");
        let bytes_b = std::fs::read(store.path("b")).expect("read b");
        assert_eq!(bytes_a, bytes_b, "key-sorted export must be order-free");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corpus_key_tracks_corpus_content() {
        use crate::corpus::generate_corpus;
        let a = corpus_content_key(&generate_corpus(7));
        let again = corpus_content_key(&generate_corpus(7));
        let other = corpus_content_key(&generate_corpus(8));
        assert_eq!(a, again, "same corpus, same key");
        assert_ne!(a, other, "a regenerated corpus must invalidate the memo");
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
        assert!(cache.hit_rate() > 0.9);
    }
}
