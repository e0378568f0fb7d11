//! Ablations of the design choices DESIGN.md calls out, one
//! `[ablation]` line each (EXPERIMENTS.md quotes them):
//!
//! 1. signature DB with vs without the similarity fallback (classification
//!    coverage of versioned builds),
//! 2. observer endpoint fan-out (1 endpoint vs all 32 → blob coverage),
//! 3. the 256 kB page truncation (zgrab recall vs bytes fetched),
//! 4. observer poll interval vs attribution recall.
//!
//! Every input is fixed, so the output is the same on every run and
//! every machine; `crates/bench/tests/ablations.rs` pins it.

use minedig_analysis::scenario::{run_scenario, ScenarioConfig};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_core::scan::build_reference_db;
use minedig_nocoin::NoCoinEngine;
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::{configured, read_env, Hash32};
use minedig_wasm::corpus::generate_corpus;
use minedig_wasm::fingerprint::fingerprint;
use minedig_wasm::sigdb::SignatureDb;
use minedig_web::page::synthesize_page;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::collections::HashSet;

/// Exact-only vs exact+similarity classification coverage.
fn sigdb_fallback() {
    let corpus = generate_corpus(0x1660);
    let fps: Vec<_> = corpus.iter().map(|e| fingerprint(&e.module)).collect();
    let with_fallback = build_reference_db(0.7);
    // Threshold 1.01 can never be met: similarity path disabled.
    let mut exact_only = SignatureDb::new().with_threshold(1.01);
    for e in corpus.iter().filter(|e| e.version < 2) {
        exact_only.insert(&fingerprint(&e.module), e.class);
    }
    let coverage = |db: &SignatureDb| {
        fps.iter().filter(|fp| db.classify(fp).is_some()).count() as f64 / fps.len() as f64
    };
    println!(
        "[ablation] classification coverage: exact-only {:.1}%, with similarity fallback {:.1}%",
        coverage(&exact_only) * 100.0,
        coverage(&with_fallback) * 100.0
    );
}

/// Polling one endpoint vs all of them.
fn endpoint_fanout() {
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 1,
        prev_id: Hash32::keccak(b"tip"),
        prev_timestamp: 1_000,
        reward: 1,
        difficulty: 1,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"m"))],
    });
    let distinct_blobs = |endpoints: usize| {
        let mut blobs = HashSet::new();
        for e in 0..endpoints {
            for t in (1_000..1_130).step_by(5) {
                if let Ok(job) = pool.peek_job(e, t) {
                    blobs.insert(job.blob_hex.clone());
                }
            }
        }
        blobs.len()
    };
    println!(
        "[ablation] distinct blobs per height: 1 endpoint → {}, 2 → {}, 32 → {}",
        distinct_blobs(1),
        distinct_blobs(2),
        distinct_blobs(32)
    );
}

/// zgrab truncation: how much listed markup hides past the cut at
/// various fetch budgets.
fn truncation() {
    let engine = NoCoinEngine::new();
    let pop = Population::generate(Zone::Org, 7, 0);
    let pages: Vec<(&str, String)> = pop
        .artifacts
        .iter()
        .filter(|d| d.tls)
        .map(|d| (d.name.as_str(), synthesize_page(d, 7).html))
        .collect();
    let hits_at = |cut: usize| {
        pages
            .iter()
            .filter(|(domain, html)| {
                let mut c = cut.min(html.len());
                while !html.is_char_boundary(c) {
                    c -= 1;
                }
                !engine.page_labels(domain, &html[..c]).is_empty()
            })
            .count()
    };
    let full = hits_at(usize::MAX);
    println!(
        "[ablation] zgrab recall vs fetch budget: 64kB {}/{full}, 256kB {}/{full}, full {full}/{full}",
        hits_at(64 * 1024),
        hits_at(256 * 1024)
    );
}

/// Observer poll interval vs attribution recall. The guaranteed
/// end-of-interval sample keeps recall exact down to very coarse grids
/// (DESIGN.md explains why this matches the paper's 500 ms cadence); the
/// interval mostly trades diagnostic blob coverage for polling cost.
fn poll_interval() {
    // 1 s is the finest grid whole-second virtual time allows; the paper
    // polled every 500 ms.
    for interval in [1u64, 15, 60, 300] {
        let (r, _) = run_scenario(
            ScenarioConfig {
                duration_days: 1,
                poll_interval_secs: interval,
                seed: 11,
                ..ScenarioConfig::default()
            },
            None,
        )
        .expect("a straight run cannot fail");
        println!(
            "[ablation] poll every {interval:>3}s: recall {:.1}%, {} polls, max {} blobs/height",
            r.recall() * 100.0,
            r.poll_stats.polls,
            r.poll_stats.max_blobs_per_prev
        );
    }
}

fn main() {
    // No knobs: every MINEDIG_* variable is refused.
    let _ = configured(read_env(&[]));
    sigdb_fallback();
    endpoint_fanout();
    truncation();
    poll_interval();
}
