//! The backend matrix: every workload's campaign, on every execution
//! backend, reproduces its sequential reference bit for bit.
//!
//! Each proptest draws a shard count (`Sharded(1..=16)`) and runs the
//! workload on `Sequential` and on the drawn backend, under a mixed
//! fault plan — some faults clear, some are permanent — whose seed is
//! offset by `MINEDIG_FAULT_SEED` (the CI chaos axis). Campaigns run
//! through `run_to_end`, the loop the CLI uses, and are compared with
//! `zgrab_scan_with`, `chrome_scan_with`, and `enumerate_links_with`
//! plus `resolve_accounted`.
//!
//! The walk's dead-run carry across `run_items` calls and failed-probe
//! neutrality are checked on their own below.

use minedig::analysis::poller::Observer;
use minedig::core::campaign::{ChromeCampaign, ZgrabCampaign};
use minedig::core::scan::{build_reference_db, chrome_scan_with, zgrab_scan_with, FetchModel};
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::supervise::{run_to_end, Backend, Campaign};
use minedig::shortlink::campaign::EnumCampaign;
use minedig::shortlink::enumerate::{enumerate_links, enumerate_links_with, Enumeration};
use minedig::shortlink::ids::code_to_index;
use minedig::shortlink::model::{LinkPopulation, LinkRecord, ModelConfig};
use minedig::shortlink::probe::{FaultyProber, LinkProber, ProbeError, ProbePolicy};
use minedig::shortlink::resolve::resolve_accounted;
use minedig::shortlink::service::{ShortlinkService, VisitDoc};
use minedig::wasm::sigdb::SignatureDb;
use minedig::wasm::FingerprintCache;
use minedig::web::universe::Population;
use minedig::web::zone::Zone;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

/// A mixed chaos plan: half the operations fault, `permanent` of them
/// for good.
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

/// The backends one case runs on.
fn backends(shards: usize) -> [Backend; 2] {
    [Backend::Sequential, Backend::Sharded(shards)]
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

/// Service with live links at exactly the given indices (anything else
/// is dead).
fn gap_service(live: &[u64]) -> ShortlinkService {
    let links = live
        .iter()
        .map(|&i| LinkRecord {
            index: i,
            token_id: (i % 7) as u32,
            required_hashes: 512,
            target_domain: "dest.example".into(),
            path_hash: i,
            target_categories: Default::default(),
        })
        .collect();
    ShortlinkService::new(LinkPopulation { links, users: 8 })
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

fn assert_walk_eq(got: &Enumeration, want: &Enumeration, ctx: &str) {
    assert_eq!(got.docs, want.docs, "docs, {ctx}");
    assert_eq!(got.probed, want.probed, "probed, {ctx}");
    assert_eq!(got.failed_probes, want.failed_probes, "failed, {ctx}");
    assert_eq!(got.probe_retries, want.probe_retries, "retries, {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn zgrab_matches_sequential_on_every_backend(
        seed in 0u64..1_000_000,
        zone_ix in 0u8..4,
        clean in 0usize..150,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.6,
        shards in 1usize..=16,
    ) {
        let pop = Population::generate(zone(zone_ix), seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let reference = zgrab_scan_with(&pop, seed, &model);
        prop_assert!(reference.fetch.balanced());
        for backend in backends(shards) {
            let run = run_to_end(ZgrabCampaign::new(&pop, seed, &model, backend));
            prop_assert_eq!(&run, &reference, "backend={}", backend);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Alexa/.org only, matching §3.2's coverage. The fingerprint memo
    // stores pure per-module fingerprints, so it cannot change outcomes.
    #[test]
    fn chrome_matches_sequential_with_and_without_memo(
        seed in 0u64..1_000_000,
        alexa in any::<bool>(),
        clean in 0usize..80,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.6,
        shards in 1usize..=16,
    ) {
        let z = if alexa { Zone::Alexa } else { Zone::Org };
        let pop = Population::generate(z, seed, clean);
        let model = FetchModel::outlasting(mixed_plan(fault_off, permanent));
        let reference = chrome_scan_with(&pop, db(), seed, &model);
        let cache = FingerprintCache::new();
        for backend in backends(shards) {
            for memo in [None, Some(&cache)] {
                let run = run_to_end(ChromeCampaign::new(&pop, db(), seed, &model, memo, backend));
                prop_assert_eq!(&run, &reference, "backend={} memo={}", backend, memo.is_some());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The §4.1 walk with the unbiased tail resolved as the fold reaches
    // it ≡ the sequential walk, then the tail resolved as one batch.
    #[test]
    fn tail_resolving_walk_matches_sequential_on_every_backend(
        links in 0u64..2_000,
        users in 11usize..200,
        seed in 0u64..1_000_000,
        limit in 1u64..64,
        fault_off in 0u64..1_000,
        permanent in 0.0f64..0.6,
        shards in 1usize..=16,
    ) {
        let service = ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links: links,
            users,
            seed,
        }));
        let plan = mixed_plan(fault_off, permanent);
        let policy = ProbePolicy::outlasting(&plan);
        let prober = FaultyProber::new(&service, plan);
        let budget = 10_000;
        let sequential = enumerate_links_with(&prober, limit, &policy);
        let mut seen = HashSet::new();
        let tail: Vec<String> = sequential
            .docs
            .iter()
            .filter(|d| seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < budget)
            .map(|d| d.code.clone())
            .collect();
        let resolved = resolve_accounted(&service, &tail, budget);
        for backend in backends(shards) {
            let run = run_to_end(
                EnumCampaign::new(&prober, &policy, limit, backend)
                    .with_tail_resolver(&service, budget),
            );
            let e = &run.enumeration;
            prop_assert_eq!(&e.docs, &sequential.docs, "backend={}", backend);
            prop_assert_eq!(e.probed, sequential.probed, "backend={}", backend);
            prop_assert_eq!(e.failed_probes, sequential.failed_probes);
            prop_assert_eq!(e.probe_retries, sequential.probe_retries);
            let r = &run.resolve_report;
            prop_assert_eq!(&r.resolved, &resolved.resolved, "backend={}", backend);
            prop_assert_eq!(r.hashes_spent, resolved.hashes_spent);
            prop_assert_eq!(r.skipped_over_budget, resolved.skipped_over_budget);
            prop_assert_eq!(r.visit_failures, resolved.visit_failures);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Scattered live indices give internal dead gaps of any length
    // relative to the limit, and tiny budgets make them span many
    // `run_items` calls: the adversarial case for the dead-run carry.
    #[test]
    fn gapped_id_spaces_stop_identically(
        live in prop::collection::vec(0u64..400, 0..48),
        limit in 0u64..64,
        shards in 1usize..=16,
        budget in 1u64..24,
    ) {
        let mut live = live;
        live.sort_unstable();
        live.dedup();
        let service = gap_service(&live);
        let sequential = enumerate_links(&service, limit);
        let policy = ProbePolicy::default();
        for backend in backends(shards) {
            let run = walk(&service, &policy, limit, backend, budget);
            prop_assert_eq!(&run.docs, &sequential.docs, "backend={} budget={}", backend, budget);
            prop_assert_eq!(run.probed, sequential.probed, "backend={} budget={}", backend, budget);
        }
    }
}

/// Dead gaps shorter than the limit must be bridged across `run_items`
/// calls; a gap reaching the limit must stop the walk at exactly the
/// sequential index.
#[test]
fn tiny_budgets_exercise_the_carry() {
    let service = gap_service(&[0, 1, 5, 6, 20, 21, 22, 47]);
    let policy = ProbePolicy::default();
    for backend in [Backend::Sequential, Backend::Sharded(3)] {
        for budget in [1, 2, 3, 7] {
            for limit in [1, 2, 3, 5, 10, 26] {
                let want = enumerate_links(&service, limit);
                let got = walk(&service, &policy, limit, backend, budget);
                assert_walk_eq(
                    &got,
                    &want,
                    &format!("{backend} budget={budget} limit={limit}"),
                );
            }
        }
    }
}

/// Prober that fails permanently on a fixed set of indices and
/// otherwise answers from the service.
struct FlakyIndices<'a> {
    service: &'a ShortlinkService,
    fail: HashSet<u64>,
}

impl LinkProber for FlakyIndices<'_> {
    fn probe(&self, code: &str, _attempt: u32) -> Result<Option<VisitDoc>, ProbeError> {
        let index = code_to_index(code).expect("valid code");
        if self.fail.contains(&index) {
            return Err(ProbeError::Timeout);
        }
        Ok(self.service.visit(code))
    }
}

/// Walks `live` with permanent failures at `fail`, limit `limit`, on
/// every backend and budget, returning the agreed enumeration.
fn flaky_walk(live: &[u64], fail: &[u64], limit: u64) -> Enumeration {
    let service = gap_service(live);
    let prober = FlakyIndices {
        service: &service,
        fail: fail.iter().copied().collect(),
    };
    let policy = ProbePolicy {
        retry: RetryPolicy::no_retries(),
        jitter_seed: 0,
    };
    let want = enumerate_links_with(&prober, limit, &policy);
    for backend in [Backend::Sequential, Backend::Sharded(2)] {
        for budget in [1, 2, 3, 7] {
            let got = walk(&prober, &policy, limit, backend, budget);
            assert_walk_eq(&got, &want, &format!("{backend} budget={budget}"));
        }
    }
    want
}

/// Live at 0, 1, 2; probes of 3, 5 and 7 fail for good. With limit 5
/// the walk must neither count failures as dead (it would stop at 7)
/// nor reset the run (it would never stop): confirmed-dead 4, 6, 8, 9
/// and 10 reach the limit — however the probes split across calls.
#[test]
fn failed_probes_are_neutral_across_call_boundaries() {
    let e = flaky_walk(&[0, 1, 2], &[3, 5, 7], 5);
    assert_eq!(e.docs.len(), 3);
    assert_eq!(e.probed, 11);
    assert_eq!(e.failed_probes, 3);
}

/// Live at 0, 2, 5; the probe of 2 fails for good. Link 2 is lost
/// (counted as failed), the dead run counts 1, 3 and 4 and stops at
/// index 4, before ever reaching link 5 — however the probes split
/// across calls.
#[test]
fn a_failing_live_link_is_lost_across_call_boundaries() {
    let e = flaky_walk(&[0, 2, 5], &[2], 3);
    assert_eq!(e.docs.len(), 1);
    assert_eq!(e.probed, 5);
    assert_eq!(e.failed_probes, 1);
}

/// A pool with no announced tip refuses every poll; the sweep counts
/// those refusals as `other_errors`.
#[test]
fn tipless_pool_counts_other_errors_identically() {
    let mut obs = Observer::new(Pool::new(PoolConfig::default()), true);
    for t in (1_000..).step_by(5).take(6) {
        obs.poll_all(t);
    }
    let s = obs.stats();
    assert_eq!(s.other_errors, 6 * 32);
    assert_eq!(s.answered, 0);
    assert_eq!(s.polls, s.other_errors);
}
