//! Integration: the §3 measurement pipelines against ground truth.
//!
//! These tests assert the *relationships* the paper reports, across the
//! full stack (web generator → zgrab/browser → NoCoin/fingerprinting),
//! not just per-crate behaviour.

use minedig::core::scan::{build_reference_db, chrome_scan, zgrab_scan};
use minedig::primitives::Hash32;
use minedig::web::churn::{second_scan, DEFAULT_REMOVAL_RATE};
use minedig::web::universe::Population;
use minedig::web::zone::Zone;

const SEED: u64 = 20_181_031; // the conference date

#[test]
fn static_scan_sees_fewer_sites_than_executing_scan() {
    // zgrab is TLS-only and static; Chrome follows http and executes.
    let pop = Population::generate(Zone::Org, SEED, 100);
    let db = build_reference_db(0.7);
    let zg = zgrab_scan(&pop, SEED);
    let ch = chrome_scan(&pop, &db, SEED);
    assert!(
        ch.nocoin_domains > zg.hit_domains,
        "chrome NoCoin {} must exceed zgrab {}",
        ch.nocoin_domains,
        zg.hit_domains
    );
}

/// The Chrome scan's outcomes for the seed-2018 Alexa and .org
/// populations, hashed: a change to what a page load captures, or to how
/// the scan classifies a capture, fails here.
#[test]
fn chrome_outcomes_match_the_golden_digest() {
    let db = build_reference_db(0.7);
    let mut outcomes = String::new();
    for zone in [Zone::Alexa, Zone::Org] {
        let pop = Population::generate(zone, 2018, 500);
        outcomes.push_str(&format!("{:?}\n", chrome_scan(&pop, &db, 2018)));
    }
    assert_eq!(
        Hash32::keccak(outcomes.as_bytes()).to_hex(),
        "9702ed952e41ac5c5c307ac79014d3f0f721115c1ebf8482fc5ce84a8b229974"
    );
}

#[test]
fn signature_approach_dominates_block_list_everywhere() {
    let db = build_reference_db(0.7);
    for zone in [Zone::Alexa, Zone::Org] {
        let pop = Population::generate(zone, SEED, 50);
        let out = chrome_scan(&pop, &db, SEED);
        let factor = out.miner_wasm_domains as f64 / out.blocked_by_nocoin.max(1) as f64;
        assert!(factor > 2.0, "{zone:?}: factor {factor} (paper: 3–5.7x)");
        // Alexa miners are more evasive than .org miners.
        if zone == Zone::Alexa {
            let missed = out.missed_by_nocoin as f64 / out.miner_wasm_domains as f64;
            assert!(missed > 0.75, "Alexa missed fraction {missed}");
        }
    }
}

#[test]
fn no_false_positives_on_clean_web() {
    let db = build_reference_db(1.0);
    for zone in [Zone::Alexa, Zone::Org] {
        let pop = Population::generate(zone, SEED, 400);
        let zg = zgrab_scan(&pop, SEED);
        assert_eq!(zg.clean_sample_hits, 0, "{zone:?} zgrab FP");
        let ch = chrome_scan(&pop, &db, SEED);
        assert_eq!(ch.clean_sample_miner_hits, 0, "{zone:?} chrome FP");
    }
}

#[test]
fn detection_is_bounded_by_ground_truth() {
    // The miner detector can never find more miners than exist, and the
    // union of blocked+missed equals its total finds.
    let pop = Population::generate(Zone::Alexa, SEED, 20);
    let db = build_reference_db(0.7);
    let out = chrome_scan(&pop, &db, SEED);
    let truth = pop.true_active_miners() as u64;
    assert!(out.miner_wasm_domains <= truth);
    assert_eq!(
        out.miner_wasm_domains,
        out.blocked_by_nocoin + out.missed_by_nocoin
    );
    // And recall is high (jsMiner has no Wasm; a few pages never load).
    assert!(out.miner_wasm_domains as f64 >= truth as f64 * 0.9);
}

#[test]
fn churn_reduces_both_pipelines_consistently() {
    let pop = Population::generate(Zone::Net, SEED, 20);
    let first = zgrab_scan(&pop, SEED);
    let second_pop = second_scan(&pop, SEED, DEFAULT_REMOVAL_RATE);
    let second = zgrab_scan(&second_pop, SEED);
    let ratio = second.hit_domains as f64 / first.hit_domains as f64;
    assert!(
        (0.80..0.95).contains(&ratio),
        "second-scan ratio {ratio} (paper: 0.84–0.90)"
    );
}

#[test]
fn full_dataset_prevalence_is_below_008_percent() {
    // The paper's conclusion: < 0.08% of probed sites mine.
    let pop = Population::generate(Zone::Com, SEED, 10);
    let db_rate = pop.true_active_miners() as f64 / pop.total as f64;
    assert!(db_rate < 0.0008, "prevalence {db_rate}");
}
