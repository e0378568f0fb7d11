//! Shortlink-enumeration scaling: the same ID-space walk campaign at
//! 1/2/4/8 shards.
//!
//! Results are identical to the sequential walk at every shard count
//! (enforced by `tests/backend_matrix.rs`), so this bench isolates the
//! sharded backend's scaling on the probe workload. The final probe
//! window's overshoot is part of the cost being measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_shortlink::campaign::EnumCampaign;
use minedig_shortlink::model::{LinkPopulation, ModelConfig};
use minedig_shortlink::probe::ProbePolicy;
use minedig_shortlink::service::ShortlinkService;
use std::hint::black_box;

const SEED: u64 = 2018;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const LINKS: u64 = 100_000;
const DEAD_RUN_LIMIT: u64 = 256;

fn bench_enumerate_shards(c: &mut Criterion) {
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: LINKS,
        users: 5_000,
        seed: SEED,
    }));
    let policy = ProbePolicy::default();
    let mut group = c.benchmark_group("enumerate_100k");
    group.sample_size(10);
    // Probes the sequential walk performs: the live prefix + the dead run.
    group.throughput(Throughput::Elements(LINKS + DEAD_RUN_LIMIT));
    for shards in SHARD_COUNTS {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &s| {
            b.iter(|| {
                black_box(run_to_end(EnumCampaign::new(
                    &service,
                    &policy,
                    DEAD_RUN_LIMIT,
                    Backend::Sharded(s),
                )))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_enumerate_shards);
criterion_main!(benches);
