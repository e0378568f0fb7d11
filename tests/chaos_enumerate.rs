//! Chaos properties of the §4.1 shortlink enumeration.
//!
//! A transient probe failure must never truncate the dead-run stop
//! heuristic (the paper's walk survived `cnhv.co` throttling): with an
//! outlasting retry budget the walk is bit-identical to the fault-free
//! one, and the walk campaign stays bit-identical to the sequential walk
//! on every backend and for any per-call budget under *any* fault
//! schedule, permanent faults included.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed (the CI chaos
//! matrix axis).

use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::supervise::{Backend, Campaign};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::{enumerate_links, enumerate_links_with, Enumeration};
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, LinkProber, ProbePolicy};
use minedig::shortlink::service::ShortlinkService;
use proptest::prelude::*;
use std::sync::atomic::AtomicU64;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

fn service(links: u64, seed: u64) -> ShortlinkService {
    ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
        total_links: links,
        // The model needs more users than its explicitly-shared head.
        users: (links as usize / 4).clamp(11, 100),
        seed,
    }))
}

/// The backend a property replays on: drawn kind and shard count.
fn backend(kind: u8, width: usize) -> Backend {
    match kind % 2 {
        0 => Backend::Sequential,
        _ => Backend::Sharded(width),
    }
}

/// Drives the walk campaign to the end in calls of `budget` probes.
fn walk<P: LinkProber + Sync>(
    prober: &P,
    policy: &ProbePolicy,
    limit: u64,
    backend: Backend,
    budget: u64,
) -> Enumeration {
    let mut campaign = EnumCampaign::new(prober, policy, limit, backend);
    let heartbeat = AtomicU64::new(0);
    while !campaign.is_done() {
        campaign.run_items(budget, &heartbeat);
    }
    campaign.finish().enumeration
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Clearing faults + an outlasting retry budget reproduce the
    // fault-free walk bit-identically, and the walk campaign matches the
    // faulty sequential walk exactly.
    #[test]
    fn clearing_faults_cost_nothing(
        links in 1u64..400,
        seed in 0u64..1_000_000,
        limit in 1u64..30,
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.9,
        kind in 0u8..2,
        width in 1usize..=16,
        budget in 1u64..64,
    ) {
        let svc = service(links, seed);
        let reference = enumerate_links(&svc, limit);
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);
        let policy = ProbePolicy::outlasting(&plan);
        let prober = FaultyProber::new(&svc, plan);
        let faulty = enumerate_links_with(&prober, limit, &policy);
        prop_assert_eq!(&faulty.docs, &reference.docs);
        prop_assert_eq!(faulty.probed, reference.probed);
        prop_assert_eq!(faulty.failed_probes, 0, "clearing faults never exhaust");
        let backend = backend(kind, width);
        let run = walk(&prober, &policy, limit, backend, budget);
        prop_assert_eq!(&run.docs, &faulty.docs, "backend={}", backend);
        prop_assert_eq!(run.probed, faulty.probed);
        prop_assert_eq!(run.probe_retries, faulty.probe_retries);
        prop_assert_eq!(run.failed_probes, 0);
    }

    // Under mixed (partially permanent) faults the walk campaign — on
    // the sharded backend and the others — still matches the sequential
    // walk bit-for-bit, and every lost probe is accounted in
    // `failed_probes` exactly once.
    #[test]
    fn sharded_walk_survives_permanent_faults(
        links in 1u64..300,
        seed in 0u64..1_000_000,
        limit in 1u64..20,
        fault_off in 0u64..1_000,
        permanent in 0.1f64..0.8,
        kind in 0u8..2,
        width in 1usize..=16,
        budget in 1u64..48,
    ) {
        let svc = service(links, seed);
        let plan = FaultPlan::with_config(
            base_seed().wrapping_add(fault_off),
            FaultConfig {
                fault_prob: 0.4,
                permanent_prob: permanent,
                ..FaultConfig::default()
            },
        );
        let policy = ProbePolicy::outlasting(&plan);
        let prober = FaultyProber::new(&svc, plan);
        let sequential = enumerate_links_with(&prober, limit, &policy);
        // Accounting: every probe is a doc, a failure, or a confirmed
        // dead ID — and the walk only ends on `limit` consecutive deads.
        let dead = sequential.probed
            - sequential.docs.len() as u64
            - sequential.failed_probes;
        prop_assert!(dead >= limit);
        let backend = backend(kind, width);
        let run = walk(&prober, &policy, limit, backend, budget);
        prop_assert_eq!(&run.docs, &sequential.docs, "backend={}", backend);
        prop_assert_eq!(run.probed, sequential.probed);
        prop_assert_eq!(run.failed_probes, sequential.failed_probes);
        prop_assert_eq!(run.probe_retries, sequential.probe_retries);
    }
}
