//! Wasm forensics: parse, fingerprint and classify captured modules.
//!
//! Takes three binaries from the wild-corpus generator — an unseen and a
//! catalogued Coinhive-style miner build and a benign codec — parses them
//! with the workspace's own Wasm decoder, fingerprints them as §3.2 does
//! (a SHA-256 over the ordered function bodies, plus the instruction mix
//! the paper found "quite distinctive") and classifies each against the
//! signature database. Nothing runs: the fingerprint reads the code.
//!
//! Run with: `cargo run --example wasm_forensics`

use minedig::core::scan::build_reference_db;
use minedig::wasm::corpus::{default_profiles, generate_module};
use minedig::wasm::fingerprint::fingerprint;
use minedig::wasm::module::Module;
use minedig::wasm::sigdb::{BenignKind, MinerFamily, WasmClass};

fn inspect(label: &str, bytes: &[u8], db: &minedig::wasm::sigdb::SignatureDb) {
    println!("== {label} ({} bytes) ==", bytes.len());
    let module = Module::parse(bytes).expect("parse");
    println!(
        "   {} functions, {} exports, memory {:?} pages",
        module.functions.len(),
        module.exports.len(),
        module.memory_pages
    );

    let fp = fingerprint(&module);
    let mix = fp.features.mix();
    println!("   sha256 signature: {}", fp.sha256);
    println!(
        "   instruction mix: xor {:.1}% shift {:.1}% load {:.1}% store {:.1}% arith {:.1}%",
        mix[0] * 100.0,
        mix[1] * 100.0,
        mix[2] * 100.0,
        mix[3] * 100.0,
        mix[4] * 100.0
    );
    println!(
        "   export name hints at hashing: {}",
        fp.features.has_hash_name_hint()
    );

    match db.classify(&fp) {
        Some(hit) => println!(
            "   classification: {} via {:?} (score {:.3})\n",
            hit.class.label(),
            hit.kind,
            hit.score
        ),
        None => println!("   classification: UNKNOWN\n"),
    }
}

fn main() {
    let db = build_reference_db(0.7);
    let profiles = default_profiles();

    let miner_profile = profiles
        .iter()
        .find(|p| p.class == WasmClass::Miner(MinerFamily::Coinhive))
        .unwrap();
    // Version 55 is outside the 70% catalogue — forces the similarity
    // path. Similarity reliably says *miner*, but CryptoNight kernels of
    // different families share near-identical instruction mixes, so the
    // family may come out wrong; the scan pipeline disambiguates with the
    // page's WebSocket backend, exactly as the paper describes.
    let unseen_miner = generate_module(miner_profile, 55, minedig::web::page::CORPUS_SEED);
    inspect("unseen Coinhive build (v55)", &unseen_miner.encode(), &db);

    let known_miner = generate_module(miner_profile, 3, minedig::web::page::CORPUS_SEED);
    inspect("catalogued Coinhive build (v3)", &known_miner.encode(), &db);

    let codec_profile = profiles
        .iter()
        .find(|p| p.class == WasmClass::Benign(BenignKind::Codec))
        .unwrap();
    let codec = generate_module(codec_profile, 1, minedig::web::page::CORPUS_SEED);
    inspect("benign codec", &codec.encode(), &db);
}
