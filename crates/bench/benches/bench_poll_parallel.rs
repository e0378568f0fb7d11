//! Endpoint polling: 30 sweeps of every endpoint across one template
//! window through `Observer::poll_all`, measuring the in-line
//! poll/de-obfuscate/parse work every backend runs. Sweeps are not
//! sharded: at 32 endpoints a thread spawn per sweep cost more than it
//! saved.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use minedig_analysis::poller::Observer;
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::Hash32;
use std::hint::black_box;

fn pool_with_tip() -> Pool {
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"bench-prev"),
        prev_timestamp: 1_000,
        reward: 1_000_000,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"bench-tx"))],
    });
    pool
}

fn bench_poll_sweeps(c: &mut Criterion) {
    let pool = pool_with_tip();
    let sweeps = 30u64;
    let polls = sweeps * pool.endpoint_count() as u64;
    let mut group = c.benchmark_group("poll_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(polls));
    group.bench_function(BenchmarkId::new("backend", "sequential"), |b| {
        b.iter(|| {
            let mut observer = Observer::new(pool.clone(), true);
            for sweep in 0..sweeps {
                observer.poll_all(1_000 + sweep * 5);
            }
            black_box(observer.stats().answered)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_poll_sweeps);
criterion_main!(benches);
