//! Chaos properties of the §3 scan pipelines.
//!
//! Headline invariant: with retries enabled and faults that eventually
//! clear, the scan outcome is **bit-identical** to the fault-free run
//! (only the retry counter moves); under permanent faults every lost
//! domain is accounted in exactly one degradation counter
//! (`FetchStats::unreachable`), and the scan campaigns reproduce the
//! sequential outcome on every backend.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed, so the CI chaos
//! matrix exercises a different schedule per job without touching the
//! test code.

use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{
    build_reference_db, chrome_scan, chrome_scan_with, zgrab_scan, zgrab_scan_with, FetchModel,
};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::supervise::{run_to_end, Backend};
use minedig::wasm::sigdb::SignatureDb;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

/// The backend a property replays on: drawn kind and shard count.
fn backend(kind: u8, width: usize) -> Backend {
    match kind % 2 {
        0 => Backend::Sequential,
        _ => Backend::Sharded(width),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Clearing faults + an outlasting retry budget reproduce the
    // fault-free zgrab scan bit-identically, on every backend.
    #[test]
    fn zgrab_clearing_faults_cost_nothing(
        seed in 0u64..1_000_000,
        zone_ix in 0u8..4,
        clean in 0usize..150,
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.9,
        kind in 0u8..2,
        width in 1usize..=16,
    ) {
        let pop = Population::generate(zone(zone_ix), seed, clean);
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);
        let model = FetchModel::outlasting(plan);
        let reference = zgrab_scan(&pop, seed);
        let faulty = zgrab_scan_with(&pop, seed, &model);
        let mut normalized = faulty.clone();
        normalized.fetch.retries = 0;
        prop_assert_eq!(&normalized, &reference);
        let backend = backend(kind, width);
        let run = run_to_end(ZgrabCampaign::new(&pop, seed, &model, backend));
        prop_assert_eq!(&run, &faulty, "backend={}", backend);
    }

    // Permanent faults lose exactly the domains whose fault schedule
    // never clears — no more, no less — and the response-rate
    // accounting stays balanced.
    #[test]
    fn zgrab_permanent_losses_are_exactly_accounted(
        seed in 0u64..1_000_000,
        clean in 0usize..150,
        fault_off in 0u64..1_000,
        permanent in 0.1f64..0.9,
        kind in 0u8..2,
        width in 1usize..=16,
    ) {
        let pop = Population::generate(Zone::Org, seed, clean);
        let plan = FaultPlan::with_config(
            base_seed().wrapping_add(fault_off),
            FaultConfig {
                fault_prob: 0.5,
                permanent_prob: permanent,
                // Exclude Delay: a permanently-delayed fetch still lands.
                kind_weights: [1.0, 0.0, 1.0, 1.0, 1.0],
                ..FaultConfig::default()
            },
        );
        let model = FetchModel::outlasting(plan.clone());
        let out = zgrab_scan_with(&pop, seed, &model);
        let expected_lost = pop
            .artifacts
            .iter()
            .chain(&pop.clean_sample)
            .filter(|d| plan.is_permanent(format_args!("fetch.{}", d.name)))
            .count() as u64;
        prop_assert_eq!(out.fetch.unreachable, expected_lost);
        prop_assert!(out.fetch.balanced());
        prop_assert_eq!(
            out.fetch.attempted,
            (pop.artifacts.len() + pop.clean_sample.len()) as u64
        );
        let backend = backend(kind, width);
        let run = run_to_end(ZgrabCampaign::new(&pop, seed, &model, backend));
        prop_assert_eq!(&run, &out, "backend={}", backend);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The chrome pipeline under the same invariant (Alexa/.org only,
    // matching §3.2's coverage).
    #[test]
    fn chrome_clearing_faults_cost_nothing(
        seed in 0u64..1_000_000,
        alexa in any::<bool>(),
        clean in 0usize..80,
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.9,
        kind in 0u8..2,
        width in 1usize..=16,
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
        let backend = backend(kind, width);
        let run = run_to_end(ChromeCampaign::new(&pop, db(), seed, &model, None, backend));
        prop_assert_eq!(&run, &faulty, "backend={}", backend);
    }
}
