//! Equivalence properties of the cooperative async backend.
//!
//! Headline invariant: a campaign on `Async{concurrency}` produces
//! **bit-identical** outcomes to the sequential kernels — and therefore
//! to the sharded backend, which carries the same guarantee — for any
//! concurrency, fault schedule, or poll order. Probes derive all
//! randomness (including their virtual latency) from stable keys, and
//! the fold consumes completions in item order, so scheduling cannot
//! leak into results.
//!
//! `MINEDIG_CONCURRENCY` and `MINEDIG_FAULT_SEED` are the CI matrix
//! axes: every job re-proves the invariant at a different in-flight
//! budget against a different fault schedule.

use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{
    build_reference_db, chrome_scan, chrome_scan_with, crawl_latency_ms, scan_item, scan_len,
    zgrab_probe_domain, zgrab_scan_with, FetchModel, ZgrabProbeCtx, STALL_LATENCY_MS,
};
use minedig::core::shortlink_study::{run_study, StudyConfig};
use minedig::nocoin::NoCoinEngine;
use minedig::primitives::aexec::DEFAULT_CONCURRENCY;
use minedig::primitives::fault::{FaultConfig, FaultPlan, FAULT_SEED_ENV};
use minedig::primitives::supervise::{run_to_end, Backend};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::enumerate_links_with;
use minedig::shortlink::model::ModelConfig;
use minedig::shortlink::probe::{FaultyProber, ProbePolicy};
use minedig::shortlink::service::ShortlinkService;
use minedig::shortlink::LinkPopulation;
use minedig::wasm::sigdb::SignatureDb;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::{Mutex, OnceLock};

/// Base fault seed from the environment (the CI matrix axis).
fn base_seed() -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn zone(ix: u8) -> Zone {
    match ix % 4 {
        0 => Zone::Alexa,
        1 => Zone::Com,
        2 => Zone::Net,
        _ => Zone::Org,
    }
}

fn db() -> &'static SignatureDb {
    static DB: OnceLock<SignatureDb> = OnceLock::new();
    DB.get_or_init(|| build_reference_db(0.7))
}

/// A mixed chaos plan: half the operations fault, some permanently.
fn mixed_plan(fault_off: u64, permanent: f64) -> FaultPlan {
    FaultPlan::with_config(
        base_seed().wrapping_add(fault_off),
        FaultConfig {
            fault_prob: 0.5,
            permanent_prob: permanent,
            ..FaultConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Async ≡ sequential ≡ sharded for the zgrab scan, under mixed
    // (clearing + permanent) chaos, at any concurrency.
    #[test]
    fn async_zgrab_equals_every_other_backend(
        seed in 0u64..1_000_000,
        zone_ix in 0u8..4,
        clean in 0usize..150,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.9,
        concurrency in 1usize..=256,
    ) {
        let pop = Population::generate(zone(zone_ix), seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let sequential = zgrab_scan_with(&pop, seed, &model);
        let run = run_to_end(ZgrabCampaign::new(&pop, seed, &model, Backend::Async { concurrency }));
        prop_assert_eq!(&run, &sequential, "concurrency={}", concurrency);
        prop_assert_eq!(
            run.fetch.attempted,
            (pop.artifacts.len() + pop.clean_sample.len()) as u64
        );
        let sharded = Backend::Sharded(1 + concurrency % 8);
        let sharded = run_to_end(ZgrabCampaign::new(&pop, seed, &model, sharded));
        prop_assert_eq!(&sharded, &sequential);
    }

    // The same equivalence for the enumerate walk, with transport
    // faults keyed by link code.
    #[test]
    fn async_enumerate_equals_every_other_backend(
        links in 100u64..2_000,
        users in 10usize..200,
        seed in 0u64..1_000_000,
        fault_off in 0u64..1_000,
        limit in 1u64..64,
        concurrency in 1usize..=256,
    ) {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: links,
            users,
            seed,
        }));
        let plan = mixed_plan(fault_off, 0.4);
        let prober = FaultyProber::new(&service, plan.clone());
        let policy = ProbePolicy::outlasting(&plan);
        let sequential = enumerate_links_with(&prober, limit, &policy);
        let run = run_to_end(EnumCampaign::new(
            &prober,
            &policy,
            limit,
            Backend::Async { concurrency },
        ))
        .enumeration;
        prop_assert_eq!(&run.docs, &sequential.docs, "concurrency={}", concurrency);
        prop_assert_eq!(run.probed, sequential.probed);
        prop_assert_eq!(run.failed_probes, sequential.failed_probes);
        prop_assert_eq!(run.probe_retries, sequential.probe_retries);
        let sharded = Backend::Sharded(1 + concurrency % 8);
        let sharded = run_to_end(EnumCampaign::new(&prober, &policy, limit, sharded)).enumeration;
        prop_assert_eq!(&sharded.docs, &sequential.docs);
        prop_assert_eq!(sharded.probed, sequential.probed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The chrome pipeline (Alexa/.org only, matching §3.2's coverage):
    // async ≡ sequential under transient chaos, and the chaos costs
    // nothing but retries.
    #[test]
    fn async_chrome_equals_sequential_under_faults(
        seed in 0u64..1_000_000,
        alexa in any::<bool>(),
        clean in 0usize..80,
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.9,
        concurrency in 1usize..=256,
    ) {
        let z = if alexa { Zone::Alexa } else { Zone::Org };
        let pop = Population::generate(z, seed, clean);
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);
        let model = FetchModel::outlasting(plan);
        let reference = chrome_scan(&pop, db(), seed);
        let faulty = chrome_scan_with(&pop, db(), seed, &model);
        let mut normalized = faulty.clone();
        normalized.fetch.retries = 0;
        prop_assert_eq!(&normalized, &reference);
        let backend = Backend::Async { concurrency };
        let run = run_to_end(ChromeCampaign::new(&pop, db(), seed, &model, None, backend));
        prop_assert_eq!(&run, &faulty, "concurrency={}", concurrency);
    }
}

// The full §4.1 study with its walk on the async backend matches the
// sequential study at the CI matrix's configured concurrency
// (MINEDIG_CONCURRENCY, default 256) and fault seed.
#[test]
fn async_study_matches_batch_at_env_concurrency() {
    let config = |backend| StudyConfig {
        model: ModelConfig {
            total_links: 8_000,
            users: 600,
            seed: 9_u64.wrapping_add(base_seed()),
        },
        resolve_budget: 10_000,
        per_user_sample: 100,
        backend,
    };
    let batch = run_study(&config(Backend::Sequential), 9);
    let backend = Backend::parse(|name| match name {
        "MINEDIG_ASYNC" => Some("1".to_string()),
        _ => std::env::var(name).ok(),
    })
    .expect("MINEDIG_CONCURRENCY must be a positive integer");
    assert!(matches!(backend, Backend::Async { .. }), "{backend}");
    let run = run_study(&config(backend), 9);
    assert_eq!(run.enumeration.probed, batch.enumeration.probed);
    assert_eq!(run.enumeration.docs, batch.enumeration.docs);
    assert_eq!(run.links_per_token, batch.links_per_token);
    assert_eq!(run.hashes_spent, batch.hashes_spent);
    assert_eq!(run.top10_domains, batch.top10_domains);
    assert_eq!(run.tail_categories, batch.tail_categories);
}

// A stalling fault schedule must starve no task: every fetch completes
// (stalls surface as virtual latency the timer wheel skips over,
// costing no wall time), and the async campaign still matches the
// sequential scan bit for bit.
#[test]
fn stalling_faults_starve_no_task() {
    let pop = Population::generate(Zone::Org, 7, 100);
    // All faults are stalls, none permanent: every fetch eventually
    // lands after its stall windows.
    let plan = FaultPlan::with_config(
        base_seed().wrapping_add(0xA11),
        FaultConfig {
            fault_prob: 0.8,
            permanent_prob: 0.0,
            // Only Stall carries weight (kinds: Drop, Delay,
            // Disconnect, Garble, Stall).
            kind_weights: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..FaultConfig::default()
        },
    );
    let model = FetchModel::outlasting(plan);
    let sequential = zgrab_scan_with(&pop, 7, &model);
    let backend = Backend::Async { concurrency: 64 };
    let run = run_to_end(ZgrabCampaign::new(&pop, 7, &model, backend));
    assert_eq!(run, sequential);

    // The campaign's kernel and latency on the dispatcher itself, with
    // each kernel call logged. The first 64 fetches are in flight from
    // virtual time 0, so every unstalled one among them (≤ 64 ms) must
    // run before every stalled one (≥ STALL_LATENCY_MS).
    let engine = NoCoinEngine::new();
    let ctx = ZgrabProbeCtx {
        seed: 7,
        model: &model,
        engine: &engine,
    };
    let total = scan_len(&pop) as u64;
    let latency = |i: u64| crawl_latency_ms(&model, &scan_item(&pop, i as usize).0.name);
    let calls = Mutex::new(Vec::new());
    let folded = backend.map_fold(
        0..total,
        |i| {
            calls.lock().unwrap().push(i);
            zgrab_probe_domain(&ctx, scan_item(&pop, i as usize).0)
        },
        latency,
        0u64,
        |n, _| {
            *n += 1;
            ControlFlow::Continue(())
        },
    );
    assert_eq!(folded, total, "no task may starve");
    let calls = calls.into_inner().unwrap();
    assert_eq!(calls.len() as u64, total, "each fetch runs once");
    let first_wave: Vec<u64> = calls.iter().copied().filter(|&i| i < 64).collect();
    let stalled = |i: &u64| latency(*i) >= STALL_LATENCY_MS;
    let split = first_wave
        .iter()
        .position(stalled)
        .expect("some fetch stalls");
    assert!(split > 0, "some fetch of the first wave is unstalled");
    assert!(
        first_wave[split..].iter().all(stalled),
        "stalls must surface as virtual latency: {first_wave:?}"
    );
}

// The async backend's default in-flight budget exceeds the machine's
// core count: concurrency is an I/O property, not a CPU property.
#[test]
fn default_concurrency_outstrips_core_count() {
    let backend = Backend::parse(|name| (name == "MINEDIG_ASYNC").then(|| "1".to_string()));
    assert_eq!(
        backend,
        Ok(Backend::Async {
            concurrency: DEFAULT_CONCURRENCY
        })
    );
    // Item i sleeps (n - i) ms, so of the tasks in flight the one
    // spawned last wakes first: the first kernel call names the
    // dispatcher's fan-out width.
    let n = 4 * DEFAULT_CONCURRENCY as u64;
    let calls = Mutex::new(Vec::new());
    let folded = backend.unwrap().map_fold(
        0..n,
        |i| calls.lock().unwrap().push(i),
        |i| n - i,
        0u64,
        |count, ()| {
            *count += 1;
            ControlFlow::Continue(())
        },
    );
    assert_eq!(folded, n);
    let in_flight = calls.into_inner().unwrap()[0] + 1;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    assert!(
        in_flight > cores,
        "{in_flight} tasks in flight must exceed {cores} cores"
    );
    assert_eq!(in_flight, DEFAULT_CONCURRENCY as u64);
}
