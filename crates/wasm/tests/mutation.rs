//! Mutation robustness on the path the Chrome scan takes: corrupt real
//! corpus binaries, then fingerprint and classify every mutant that
//! parses, and pass the raw mutated bytes through the fingerprint memo.
//! A malformed dump must fail with a typed parse error; nothing may
//! panic.
//!
//! A crawler ingests Wasm dumped from arbitrary (possibly hostile) pages,
//! and the scan fingerprints whatever parses without validating it, so
//! the §3.2 pipeline is only sound if no parseable mutant can take it
//! down.

use minedig_primitives::DetRng;
use minedig_wasm::corpus::{default_profiles, generate_corpus, generate_module};
use minedig_wasm::fingerprint::{fingerprint, Fingerprint};
use minedig_wasm::module::Module;
use minedig_wasm::sigdb::{MatchKind, SignatureDb, WasmClass};
use minedig_wasm::FingerprintCache;

const SEED: u64 = 99;

/// One corpus build of each profile: its class, bytes and fingerprint.
fn bases() -> Vec<(WasmClass, Vec<u8>, Fingerprint)> {
    default_profiles()
        .iter()
        .map(|p| {
            let module = generate_module(p, 0, SEED);
            (p.class, module.encode(), fingerprint(&module))
        })
        .collect()
}

/// What a scan keeps across dumps: the catalogue and the memo.
struct Scan {
    db: SignatureDb,
    cache: FingerprintCache,
    scratch: Vec<u8>,
    parsed: usize,
}

impl Scan {
    /// A scan whose catalogue holds every build of the corpus the bases
    /// come from.
    fn new() -> Scan {
        let mut db = SignatureDb::new();
        for entry in generate_corpus(SEED) {
            db.insert(&fingerprint(&entry.module), entry.class);
        }
        Scan {
            db,
            cache: FingerprintCache::new(),
            scratch: Vec::new(),
            parsed: 0,
        }
    }

    /// Sees one dump mutated from `base`: the memo answers what a direct
    /// parse and fingerprint answer, and a mutant that parses is
    /// classified. One whose code is the base's keeps the base's class.
    fn sees(&mut self, dump: &[u8], base: &(WasmClass, Vec<u8>, Fingerprint)) {
        let direct = Module::parse(dump).map(|m| fingerprint(&m));
        let memo = self.cache.fingerprint(dump, &mut self.scratch);
        assert_eq!(memo, direct.clone().ok());
        let Ok(fp) = direct else { return };
        self.parsed += 1;
        let hit = self.db.classify(&fp);
        if let Some(hit) = &hit {
            assert!((0.0..=1.0).contains(&hit.score), "score {}", hit.score);
        }
        if fp.sha256 == base.2.sha256 {
            let hit = hit.expect("the base's code is catalogued");
            assert_eq!((hit.class, hit.kind), (base.0, MatchKind::Exact));
        }
    }
}

#[test]
fn random_byte_flips_never_panic() {
    let mut rng = DetRng::seed(0xf1a6);
    let mut scan = Scan::new();
    let bases = bases();
    for base in &bases {
        for _ in 0..2_000 {
            let mut mutated = base.1.clone();
            let flips = 1 + rng.gen_range(4) as usize;
            for _ in 0..flips {
                let i = rng.range_usize(0, mutated.len());
                mutated[i] ^= 1 << rng.gen_range(8);
            }
            scan.sees(&mutated, base);
        }
    }
    assert!(scan.parsed > 0, "no flipped mutant parsed");
}

#[test]
fn truncations_never_panic() {
    let mut scan = Scan::new();
    for base in &bases() {
        for cut in (0..base.1.len()).step_by(7) {
            scan.sees(&base.1[..cut], base);
        }
    }
}

#[test]
fn byte_insertions_never_panic() {
    let mut rng = DetRng::seed(0xadd);
    let mut scan = Scan::new();
    let bases = bases();
    for base in &bases {
        for _ in 0..200 {
            let mut mutated = base.1.clone();
            let i = rng.range_usize(0, mutated.len());
            mutated.insert(i, rng.gen_range(256) as u8);
            scan.sees(&mutated, base);
        }
    }
    assert!(scan.parsed > 0, "no inserted mutant parsed");
}
