//! Smoke-sized concurrency sweep of the cooperative async backend: each
//! workload's campaign runs to the end on `Backend::Async` at several
//! in-flight budgets, writing concurrency→wall-time to
//! `BENCH_async.json` (override with `MINEDIG_BENCH_OUT`).
//!
//! Outcomes are identical across concurrency levels by construction —
//! every workload folds through the executor's reorder buffer — so only
//! the timings vary. Simulated network latency is virtual: the timer
//! wheel skips over it instead of sleeping through, which is why the
//! budget can be hundreds of tasks on a single thread.

use minedig_bench::env_u64;
use minedig_core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig_core::scan::{build_reference_db, scan_len, FetchModel};
use minedig_primitives::supervise::{run_to_end, Backend};
use minedig_shortlink::campaign::EnumCampaign;
use minedig_shortlink::model::{LinkPopulation, ModelConfig};
use minedig_shortlink::probe::ProbePolicy;
use minedig_shortlink::service::ShortlinkService;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;
use std::time::Instant;

const CONCURRENCY_LEVELS: [usize; 4] = [1, 16, 64, 256];

struct Workload {
    name: &'static str,
    items: u64,
    /// (concurrency, wall seconds), one entry per level.
    runs: Vec<(usize, f64)>,
}

/// Times `run` once per concurrency level on [`Backend::Async`].
fn sweep<T>(mut run: impl FnMut(Backend) -> T) -> Vec<(usize, f64)> {
    CONCURRENCY_LEVELS
        .iter()
        .map(|&concurrency| {
            let t0 = Instant::now();
            black_box(run(Backend::Async { concurrency }));
            (concurrency, t0.elapsed().as_secs_f64())
        })
        .collect()
}

fn main() {
    let seed = env_u64("MINEDIG_SEED", 2018);
    let mut workloads = Vec::new();

    // §3.1: zgrab fetch → NoCoin match as cooperative tasks.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let domains = scan_len(&population) as u64;
    let model = FetchModel::default();
    workloads.push(Workload {
        name: "zgrab_scan",
        items: domains,
        runs: sweep(|backend| run_to_end(ZgrabCampaign::new(&population, seed, &model, backend))),
    });

    // §3.2: chrome load → Wasm fingerprint on the same fan-out.
    let db = build_reference_db(0.7);
    workloads.push(Workload {
        name: "chrome_scan",
        items: domains,
        runs: sweep(|backend| {
            run_to_end(ChromeCampaign::new(
                &population,
                &db,
                seed,
                &model,
                None,
                backend,
            ))
        }),
    });

    // §4.1: the walk with the unbiased tail resolved as it goes.
    let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: 120_000,
        users: 8_000,
        seed,
    }));
    let policy = ProbePolicy::default();
    let mut items = 0u64;
    let runs = sweep(|backend| {
        let walk = run_to_end(
            EnumCampaign::new(&service, &policy, 256, backend).with_tail_resolver(&service, 10_000),
        );
        items = walk.enumeration.probed;
        walk
    });
    workloads.push(Workload {
        name: "enumerate_resolve",
        items,
        runs,
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        let base = w.runs[0].1;
        for &(concurrency, secs) in &w.runs {
            println!(
                "  {concurrency} in flight: {secs:.3}s (vs one in flight {:.2}x)",
                base / secs.max(1e-9),
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
        for (j, &(concurrency, secs)) in w.runs.iter().enumerate() {
            json.push_str(&format!(
                "{{\"concurrency\": {concurrency}, \"secs\": {secs:.6}}}{}",
                if j + 1 == w.runs.len() { "" } else { ", " }
            ));
        }
        json.push_str(&format!(
            "]}}{}\n",
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("MINEDIG_BENCH_OUT").unwrap_or_else(|_| "BENCH_async.json".into());
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
