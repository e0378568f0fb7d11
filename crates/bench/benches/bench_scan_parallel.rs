//! Scan scaling: the same zone-scan campaign at 1/2/4/8 shards.
//!
//! Outcomes are bit-identical at every shard count (enforced by the
//! proptests in `tests/backend_matrix.rs`), so this bench isolates pure
//! backend scaling. Expect near-linear throughput up to the physical
//! core count — on a single-core host every shard count measures the
//! same, which is itself worth seeing (sharding overhead ≈ 0).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minedig_core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig_core::scan::{build_reference_db, scan_len, FetchModel};
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;

const SEED: u64 = 2018;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// zgrab + NoCoin over ≥100k domains (~2k .org artifacts plus a 100k
/// clean sample — the shape of a real zone file walk).
fn bench_zgrab_shards(c: &mut Criterion) {
    let population = Population::generate(Zone::Org, SEED, 100_000);
    let model = FetchModel::default();
    let mut group = c.benchmark_group("zgrab_scan_100k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(scan_len(&population) as u64));
    for shards in SHARD_COUNTS {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &s| {
            b.iter(|| {
                black_box(run_to_end(ZgrabCampaign::new(
                    &population,
                    SEED,
                    &model,
                    Backend::Sharded(s),
                )))
            })
        });
    }
    group.finish();
}

/// Instrumented-browser scan (page load + Wasm classification) — the
/// expensive pipeline, on a smaller population.
fn bench_chrome_shards(c: &mut Criterion) {
    let population = Population::generate(Zone::Org, SEED, 1_000);
    let db = build_reference_db(0.7);
    let model = FetchModel::default();
    let mut group = c.benchmark_group("chrome_scan_org");
    group.sample_size(10);
    group.throughput(Throughput::Elements(scan_len(&population) as u64));
    for shards in SHARD_COUNTS {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &s| {
            b.iter(|| {
                black_box(run_to_end(ChromeCampaign::new(
                    &population,
                    &db,
                    SEED,
                    &model,
                    None,
                    Backend::Sharded(s),
                )))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_zgrab_shards, bench_chrome_shards);
criterion_main!(benches);
