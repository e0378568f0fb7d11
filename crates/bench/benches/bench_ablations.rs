//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. the 256 kB page truncation (zgrab recall vs bytes fetched),
//! 2. signature DB with vs without the similarity fallback (classification
//!    coverage of versioned builds),
//! 3. observer endpoint fan-out (1 endpoint vs all 32 → blob coverage).
//!
//! These are correctness/coverage ablations wrapped in Criterion so the
//! numbers land in the bench report next to their runtime cost.

use criterion::{criterion_group, criterion_main, Criterion};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_core::scan::build_reference_db;
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::Hash32;
use minedig_wasm::corpus::generate_corpus;
use minedig_wasm::fingerprint::fingerprint;
use std::hint::black_box;

/// Ablation 2: exact-only vs exact+similarity classification coverage.
fn ablation_sigdb_fallback(c: &mut Criterion) {
    let corpus = generate_corpus(0x1660);
    let fps: Vec<_> = corpus.iter().map(|e| fingerprint(&e.module)).collect();
    let with_fallback = build_reference_db(0.7);
    let exact_only = {
        // Threshold 1.01 can never be met: similarity path disabled.
        let mut db = minedig_wasm::sigdb::SignatureDb::new().with_threshold(1.01);
        for e in generate_corpus(0x1660) {
            if e.version < 2 {
                db.insert(&fingerprint(&e.module), e.class);
            }
        }
        db
    };
    let coverage = |db: &minedig_wasm::sigdb::SignatureDb| {
        fps.iter().filter(|fp| db.classify(fp).is_some()).count() as f64 / fps.len() as f64
    };
    println!(
        "[ablation] classification coverage: exact-only {:.1}%, with similarity fallback {:.1}%",
        coverage(&exact_only) * 100.0,
        coverage(&with_fallback) * 100.0
    );
    let mut group = c.benchmark_group("ablation_sigdb");
    group.bench_function("classify_with_fallback", |b| {
        b.iter(|| {
            black_box(
                fps.iter()
                    .filter(|fp| with_fallback.classify(fp).is_some())
                    .count(),
            )
        })
    });
    group.bench_function("classify_exact_only", |b| {
        b.iter(|| {
            black_box(
                fps.iter()
                    .filter(|fp| exact_only.classify(fp).is_some())
                    .count(),
            )
        })
    });
    group.finish();
}

/// Ablation 3: polling one endpoint vs all of them.
fn ablation_endpoint_fanout(c: &mut Criterion) {
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
        let mut blobs = std::collections::HashSet::new();
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
    let mut group = c.benchmark_group("ablation_fanout");
    group.bench_function("poll_one_endpoint", |b| {
        b.iter(|| black_box(distinct_blobs(1)))
    });
    group.bench_function("poll_all_endpoints", |b| {
        b.iter(|| black_box(distinct_blobs(32)))
    });
    group.finish();
}

/// Ablation 1: zgrab truncation — how much listed markup hides past the
/// cut at various fetch budgets.
fn ablation_truncation(c: &mut Criterion) {
    use minedig_nocoin::NoCoinEngine;
    use minedig_web::universe::Population;
    use minedig_web::zone::Zone;

    let engine = NoCoinEngine::new();
    let pop = Population::generate(Zone::Org, 7, 0);
    let pages: Vec<(String, String)> = pop
        .artifacts
        .iter()
        .filter(|d| d.tls)
        .map(|d| {
            let page = minedig_web::page::synthesize_page(d, 7);
            (d.name.clone(), page.html)
        })
        .collect();
    let hits_at = |cut: usize| {
        pages
            .iter()
            .filter(|(domain, html)| {
                let mut h = html.clone();
                if h.len() > cut {
                    let mut c = cut;
                    while c > 0 && !h.is_char_boundary(c) {
                        c -= 1;
                    }
                    h.truncate(c);
                }
                !engine.page_labels(domain, &h).is_empty()
            })
            .count()
    };
    let full = hits_at(usize::MAX);
    println!(
        "[ablation] zgrab recall vs fetch budget: 64kB {}/{full}, 256kB {}/{full}, full {full}/{full}",
        hits_at(64 * 1024),
        hits_at(256 * 1024)
    );
    let mut group = c.benchmark_group("ablation_truncation");
    group.sample_size(10);
    group.bench_function("scan_at_256kB", |b| {
        b.iter(|| black_box(hits_at(256 * 1024)))
    });
    group.finish();
}

/// Ablation 4: observer poll interval vs attribution recall. The
/// guaranteed end-of-interval sample keeps recall exact down to very
/// coarse grids (DESIGN.md explains why this matches the paper's 500 ms
/// cadence); the interval mostly trades diagnostic blob coverage for
/// polling cost.
fn ablation_poll_interval(c: &mut Criterion) {
    use minedig_analysis::scenario::{run_scenario, ScenarioConfig};
    let run = |interval: u64| {
        let r = run_scenario(
            ScenarioConfig {
                duration_days: 1,
                poll_interval_secs: interval,
                seed: 11,
                ..ScenarioConfig::default()
            },
            None,
        )
        .expect("a straight run cannot fail")
        .0;
        (
            r.recall(),
            r.poll_stats.polls,
            r.poll_stats.max_blobs_per_prev,
        )
    };
    // 1 s is the finest grid whole-second virtual time allows; the paper
    // polled every 500 ms.
    for interval in [1u64, 15, 60, 300] {
        let (recall, polls, blobs) = run(interval);
        println!(
            "[ablation] poll every {interval:>3}s: recall {:.1}%, {polls} polls, max {blobs} blobs/height",
            recall * 100.0
        );
    }
    let mut group = c.benchmark_group("ablation_poll_interval");
    group.sample_size(10);
    group.bench_function("day_at_1s", |b| b.iter(|| black_box(run(1))));
    group.bench_function("day_at_15s", |b| b.iter(|| black_box(run(15))));
    group.bench_function("day_at_300s", |b| b.iter(|| black_box(run(300))));
    group.finish();
}

criterion_group!(
    benches,
    ablation_sigdb_fallback,
    ablation_endpoint_fanout,
    ablation_truncation,
    ablation_poll_interval
);
criterion_main!(benches);
