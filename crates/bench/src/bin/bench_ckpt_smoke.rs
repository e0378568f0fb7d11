//! Smoke-sized checkpoint-overhead sweep, writing per-workload
//! wall-time plus supervision counters to `BENCH_checkpoint.json`
//! (override with `MINEDIG_BENCH_OUT`).
//!
//! Each workload runs once unsupervised (the overhead baseline), then
//! supervised at several checkpoint cadences with two simulated kills
//! injected — so the recorded times include snapshot encoding, the
//! atomic file replace or journal append, restore-on-restart, and the
//! redone tail items. Every supervised outcome is asserted
//! bit-identical to the baseline before its row is emitted: a bench
//! that drifted from the correctness contract would be measuring the
//! wrong thing.
//!
//! The headline ratio is `secs` at cadence 64 (the CLI default) vs the
//! unsupervised row. These smoke items are microseconds each, so the
//! snapshot write dominates; what the sweep pins down is the
//! per-checkpoint cost (divide the delta by `checkpoints`) and the
//! bytes written (`bytes_written`, over the whole run). The scan
//! rewrites its full state at every checkpoint; the enumeration walk
//! appends deltas, so its bytes grow with the walk, not its square.

use minedig_bench::{bench_out, seed, BENCH_OUT_ENV, SEED_ENV};
use minedig_core::campaign::ZgrabCampaign;
use minedig_core::scan::{zgrab_scan_with, FetchModel};
use minedig_core::shortlink_study::{run_study, StudyConfig};
use minedig_primitives::ckpt::SnapshotStore;
use minedig_primitives::supervise::{Backend, Ckpt, CrashPolicy, Supervisor};
use minedig_primitives::{configured, read_env};
use minedig_shortlink::model::ModelConfig;
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;
use std::time::Instant;

const CADENCES: [u64; 3] = [16, 64, 256];

struct Row {
    /// Checkpoint every this many items; 0 = unsupervised baseline.
    every: u64,
    secs: f64,
    checkpoints: u64,
    /// Bytes written to the snapshot store over the run.
    bytes_written: u64,
    crashes: u64,
    items_redone: u64,
}

struct Workload {
    name: &'static str,
    items: u64,
    rows: Vec<Row>,
}

fn store_for(tag: &str) -> (std::path::PathBuf, SnapshotStore) {
    let dir = std::env::temp_dir().join(format!("minedig-bench-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::open(&dir).expect("open snapshot store");
    (dir, store)
}

fn main() {
    let env = configured(read_env(&[SEED_ENV, BENCH_OUT_ENV]));
    let seed = configured(seed(&env));
    let out = configured(bench_out(&env, "BENCH_checkpoint.json"));
    let mut workloads = Vec::new();

    // §3.1 scan: per-domain fetch → NoCoin verdicts under supervision.
    let population = Population::generate(Zone::Org, seed, 20_000);
    let items = (population.artifacts.len() + population.clean_sample.len()) as u64;
    let model = FetchModel::default();
    let kills = vec![items / 3, (2 * items) / 3];

    let start = Instant::now();
    let baseline = zgrab_scan_with(&population, seed, &model);
    let mut rows = vec![Row {
        every: 0,
        secs: start.elapsed().as_secs_f64(),
        checkpoints: 0,
        bytes_written: 0,
        crashes: 0,
        items_redone: 0,
    }];
    for every in CADENCES {
        let (dir, store) = store_for(&format!("zgrab-{every}"));
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: every,
            ..CrashPolicy::default()
        })
        .with_kills(kills.clone());
        let start = Instant::now();
        let run = sup
            .run(
                &store,
                "zgrab",
                || ZgrabCampaign::new(&population, seed, &model, Backend::Sequential),
                false,
            )
            .expect("supervised zgrab");
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(run.output, baseline, "supervised scan drifted");
        black_box(&run.output);
        rows.push(Row {
            every,
            secs,
            checkpoints: run.report.checkpoints,
            bytes_written: run.report.bytes_written,
            crashes: u64::from(run.report.crashes),
            items_redone: run.report.items_lost,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    workloads.push(Workload {
        name: "zgrab_scan",
        items,
        rows,
    });

    // §4.1 study: the enumeration walk supervised, with the unbiased
    // tail resolved as it goes. Its checkpoints are delta snapshots of
    // what the walk appended, so a tight cadence adds frames, not
    // rewrites of the growing ledger.
    let config = StudyConfig {
        model: ModelConfig {
            total_links: 40_000,
            users: 3_000,
            seed,
        },
        ..StudyConfig::default()
    };
    let start = Instant::now();
    let (reference, _) = run_study(&config, seed, None).expect("a straight run cannot fail");
    let probed = reference.walk.probed;
    let study_kills = vec![probed / 3, (2 * probed) / 3];
    let mut rows = vec![Row {
        every: 0,
        secs: start.elapsed().as_secs_f64(),
        checkpoints: 0,
        bytes_written: 0,
        crashes: 0,
        items_redone: 0,
    }];
    for every in CADENCES {
        let (dir, store) = store_for(&format!("study-{every}"));
        let ckpt = Ckpt {
            store,
            supervisor: Supervisor::new(CrashPolicy {
                ckpt_every_items: every,
                ..CrashPolicy::default()
            })
            .with_kills(study_kills.clone()),
            resume: false,
        };
        let start = Instant::now();
        let (study, report) = run_study(&config, seed, Some(&ckpt)).expect("supervised study");
        let secs = start.elapsed().as_secs_f64();
        let report = report.expect("a supervised study reports");
        assert_eq!(study.walk, reference.walk, "supervised study drifted");
        assert_eq!(
            study.links_per_token, reference.links_per_token,
            "supervised study drifted"
        );
        assert_eq!(
            study.hashes_spent, reference.hashes_spent,
            "supervised study drifted"
        );
        black_box(&study);
        rows.push(Row {
            every,
            secs,
            checkpoints: report.checkpoints,
            bytes_written: report.bytes_written,
            crashes: u64::from(report.crashes),
            items_redone: report.items_lost,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    workloads.push(Workload {
        name: "enumerate_resolve",
        items: probed,
        rows,
    });

    // Human summary…
    for w in &workloads {
        println!("{} ({} items):", w.name, w.items);
        let base = w.rows[0].secs;
        for r in &w.rows {
            if r.every == 0 {
                println!("  unsupervised: {:.3}s", r.secs);
            } else {
                println!(
                    "  every {:>3}: {:.3}s ({:+.1}% vs unsupervised), {} ckpts, \
                     {} bytes written, {} crashes, {} items redone",
                    r.every,
                    r.secs,
                    (r.secs / base.max(1e-9) - 1.0) * 100.0,
                    r.checkpoints,
                    r.bytes_written,
                    r.crashes,
                    r.items_redone,
                );
            }
        }
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"items\": {}, \"runs\": [",
            w.name, w.items
        ));
        for (j, r) in w.rows.iter().enumerate() {
            json.push_str(&format!(
                "{{\"every\": {}, \"secs\": {:.6}, \"checkpoints\": {}, \
                 \"bytes_written\": {}, \"crashes\": {}, \"items_redone\": {}}}{}",
                r.every,
                r.secs,
                r.checkpoints,
                r.bytes_written,
                r.crashes,
                r.items_redone,
                if j + 1 == w.rows.len() { "" } else { ", " }
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
