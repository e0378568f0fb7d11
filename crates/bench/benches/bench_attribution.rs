//! Attribution-pipeline throughput: simulated chain-days per second of
//! wall time with full observer polling (what bounds the Table 6 sweep).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minedig_analysis::scenario::{run_scenario, ScenarioConfig};
use minedig_chain::merkle::{coinbase_path, root_from_path, tree_hash};
use minedig_primitives::Hash32;
use std::hint::black_box;

fn bench_scenario_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("attribution");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    group.bench_function("one_simulated_day", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let r = run_scenario(
                ScenarioConfig {
                    duration_days: 1,
                    seed,
                    ..ScenarioConfig::default()
                },
                None,
            )
            .expect("a straight run cannot fail")
            .0;
            black_box(r.total_blocks)
        })
    });
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Hash32> = (0..13u64)
        .map(|i| Hash32::keccak(&i.to_le_bytes()))
        .collect();
    c.bench_function("tree_hash_13_leaves", |b| {
        b.iter(|| black_box(tree_hash(black_box(&leaves))))
    });
    // What a template refresh pays: the Coinbase's root from its path,
    // which the pool computes once per tip.
    let path = coinbase_path(&leaves[1..]);
    c.bench_function("coinbase_root_13_leaves", |b| {
        b.iter(|| black_box(root_from_path(black_box(leaves[0]), black_box(&path))))
    });
}

criterion_group!(benches, bench_scenario_day, bench_merkle);
criterion_main!(benches);
