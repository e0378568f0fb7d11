//! Smoke-sized scaling run of the sharded backend: the zone-scan and
//! shortlink-enumeration campaigns run to the end at several shard
//! counts, writing a shards→wall-time map to `BENCH_parallel.json`
//! (override with `MINEDIG_BENCH_OUT`). Poll sweeps run in-line on
//! every backend, so they get one row, labelled 1 shard.
//!
//! One timed pass per shard count, small populations, machine-readable
//! output. Outcomes are identical across shard counts by construction,
//! so only the timings vary. The Chrome scan's scaling is read off
//! `MINEDIG_SHARDS=1|2|4|8 minedig scan org`, whose `chrome:` line
//! gives its wall time.

use minedig_analysis::poller::Observer;
use minedig_bench::{bench_out, seed, BENCH_OUT_ENV, SEED_ENV};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_core::campaign::ZgrabCampaign;
use minedig_core::scan::{scan_len, FetchModel};
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_primitives::Hash32;
use minedig_primitives::{configured, read_env};
use minedig_shortlink::campaign::EnumCampaign;
use minedig_shortlink::model::{LinkPopulation, ModelConfig};
use minedig_shortlink::probe::ProbePolicy;
use minedig_shortlink::service::ShortlinkService;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    name: &'static str,
    items: u64,
    /// (shards, wall seconds), one entry per shard count.
    runs: Vec<(usize, f64)>,
}

/// Times `run` once per shard count on [`Backend::Sharded`].
fn sweep<T>(mut run: impl FnMut(Backend) -> T) -> Vec<(usize, f64)> {
    SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let t0 = Instant::now();
            black_box(run(Backend::Sharded(shards)));
            (shards, t0.elapsed().as_secs_f64())
        })
        .collect()
}

fn main() {
    let env = configured(read_env(&[SEED_ENV, BENCH_OUT_ENV]));
    let seed = configured(seed(&env));
    let out = configured(bench_out(&env, "BENCH_parallel.json"));
    let mut workloads = Vec::new();

    // §3: zgrab + NoCoin over a .org-shaped population.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let model = FetchModel::default();
    workloads.push(Workload {
        name: "zgrab_scan",
        items: scan_len(&population) as u64,
        runs: sweep(|backend| run_to_end(ZgrabCampaign::new(&population, seed, &model, backend))),
    });

    // §4.1: shortlink ID-space enumeration.
    let dead_run_limit = 256u64;
    let links = 50_000u64;
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: links,
        users: 4_000,
        seed,
    }));
    let policy = ProbePolicy::default();
    workloads.push(Workload {
        name: "enumerate_links",
        items: links + dead_run_limit,
        runs: sweep(|backend| {
            run_to_end(EnumCampaign::new(
                &service,
                &policy,
                dead_run_limit,
                backend,
            ))
        }),
    });

    // §4.2: in-line endpoint sweeps across a template window.
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"smoke-prev"),
        prev_timestamp: 1_000,
        reward: 1_000_000,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"smoke-tx"))],
    });
    let times: Vec<u64> = (1_000..1_150).step_by(5).collect();
    let t0 = Instant::now();
    for _ in 0..20 {
        let mut obs = Observer::new(pool.clone(), true);
        for &t in &times {
            obs.poll_all(t);
        }
        black_box(obs.stats().answered);
    }
    workloads.push(Workload {
        name: "poll_all",
        items: 20 * times.len() as u64 * pool.endpoint_count() as u64,
        runs: vec![(1, t0.elapsed().as_secs_f64())],
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        let base = w.runs[0].1;
        for &(shards, secs) in &w.runs {
            println!(
                "  {shards} shard{}: {secs:.3}s (speedup {:.2}x)",
                if shards == 1 { "" } else { "s" },
                base / secs.max(1e-9)
            );
        }
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"runs\": [",
            w.name, w.items
        ));
        for (j, &(shards, secs)) in w.runs.iter().enumerate() {
            json.push_str(&format!(
                "{{\"shards\": {shards}, \"secs\": {secs:.6}}}{}",
                if j + 1 == w.runs.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
