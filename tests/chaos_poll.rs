//! Chaos properties of the §4.2 endpoint observer and the full
//! attribution scenario.
//!
//! With retries sized to outlast every transient fault, polling through
//! a faulty transport yields the exact clusters, attribution, and
//! counters of the fault-free run; endpoints that exhaust the budget
//! are accounted as per-sweep observation gaps (`endpoints_down`), and
//! a sweep is a pure function of its fault schedule.
//!
//! `MINEDIG_FAULT_SEED` offsets every fault-plan seed (the CI chaos
//! matrix axis).

use minedig::analysis::poller::{FaultyJobSource, Observer, PollPolicy};
use minedig::analysis::scenario::{run_scenario, ScenarioConfig};
use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::health::{parse_health, HealthConfig};
use minedig::primitives::retry::RetryPolicy;
use minedig::primitives::Hash32;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

fn pool_with_tip() -> Pool {
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"prev-10"),
        prev_timestamp: 1_000,
        reward: 1_000_000,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"m"))],
    });
    pool
}

/// Clearing faults + outlasting retries reproduce the clean observer
/// run exactly, across several schedules.
#[test]
fn clearing_faults_reproduce_the_clean_observation() {
    for off in 0..4u64 {
        let pool = pool_with_tip();
        let mut clean = Observer::new(pool.clone(), true);
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(off), 0.5);
        let mut faulty = Observer::with_source(
            FaultyJobSource::new(pool, plan.clone()),
            true,
            PollPolicy::outlasting(&plan),
        );
        for t in (1_000..1_150).step_by(5) {
            clean.poll_all(t);
            faulty.poll_all(t);
        }
        assert!(faulty.stats().retries > 0, "off={off}");
        assert_eq!(faulty.current_prev(), clean.current_prev(), "off={off}");
        assert_eq!(
            faulty.current_blob_count(),
            clean.current_blob_count(),
            "off={off}"
        );
        let (c, f) = (clean.stats(), faulty.stats());
        assert_eq!(f.answered, c.answered, "off={off}");
        assert_eq!(f.endpoints_down, 0, "off={off}");
        assert_eq!(f.max_blobs_per_prev, c.max_blobs_per_prev, "off={off}");
        assert!(f.balanced(), "off={off}");
    }
}

/// Under mixed (partially permanent) faults two observers over the same
/// schedule sweep identically, permanent faults take endpoints down, and
/// the degradation counters balance.
#[test]
fn sharded_sweeps_survive_permanent_faults() {
    let plan = FaultPlan::with_config(
        base_seed().wrapping_add(40),
        FaultConfig {
            fault_prob: 0.5,
            permanent_prob: 0.3,
            ..FaultConfig::default()
        },
    );
    let pool = pool_with_tip();
    let observer = || {
        Observer::with_source(
            FaultyJobSource::new(pool.clone(), plan.clone()),
            true,
            PollPolicy::default(),
        )
    };
    let (mut first, mut second) = (observer(), observer());
    for t in (1_000..1_100).step_by(5) {
        first.poll_all(t);
        second.poll_all(t);
    }
    assert_eq!(second.current_prev(), first.current_prev());
    assert_eq!(second.stats(), first.stats());
    let s = first.stats();
    assert!(
        s.endpoints_down > 0,
        "permanent faults must take endpoints down"
    );
    assert!(s.balanced(), "{s:?}");
}

/// The CI matrix's `MINEDIG_HEALTH` axis: at `1` the faulty observer
/// runs behind the endpoint-health layer (circuit breakers, adaptive
/// deadlines, hedged probes), at `0`/unset it runs bare — and in both
/// cases clearing faults plus outlasting retries must reproduce the
/// clean observation exactly. With the layer on, the breaker and hedge
/// accounting must additionally balance, and outlasted transients must
/// never trip a breaker (every endpoint's final outcome is a success).
#[test]
fn chaos_sweeps_match_clean_under_the_health_axis() {
    let pool = pool_with_tip();
    let mut clean = Observer::new(pool.clone(), true);
    let plan = FaultPlan::transient_only(base_seed().wrapping_add(77), 0.4);
    let mut faulty = Observer::with_source(
        FaultyJobSource::new(pool, plan.clone()),
        true,
        PollPolicy::outlasting(&plan),
    );
    let health = parse_health(|name| std::env::var(name).ok()).unwrap_or_else(|e| panic!("{e}"));
    if health {
        faulty = faulty.with_health(HealthConfig {
            seed: base_seed(),
            ..HealthConfig::default()
        });
    }
    for t in (1_000..1_150).step_by(5) {
        clean.poll_all(t);
        faulty.poll_all(t);
    }
    assert!(faulty.stats().retries > 0);
    assert_eq!(faulty.current_prev(), clean.current_prev());
    assert_eq!(faulty.current_blob_count(), clean.current_blob_count());
    let (c, f) = (clean.stats(), faulty.stats());
    assert_eq!(f.answered, c.answered);
    assert_eq!(f.endpoints_down, 0);
    assert_eq!(f.quarantined, 0, "outlasted transients must never trip");
    assert!(f.balanced());
    assert_eq!(faulty.health_stats().is_some(), health);
    if let Some(hs) = faulty.health_stats() {
        assert!(hs.balanced(), "{hs:?}");
        assert_eq!(hs.breaker.trips, 0, "outlasted transients must never trip");
    }
}

/// The headline invariant end-to-end: a full attribution scenario over
/// a faulty-but-clearing transport attributes exactly the same blocks
/// as the fault-free scenario.
#[test]
fn scenario_attribution_is_fault_free_equivalent() {
    let clean = run_scenario(
        ScenarioConfig {
            duration_days: 1,
            seed: 11,
            ..ScenarioConfig::default()
        },
        None,
    )
    .expect("a straight run cannot fail")
    .0;
    let plan = FaultPlan::transient_only(base_seed().wrapping_add(101), 0.35);
    let faulty = run_scenario(
        ScenarioConfig {
            duration_days: 1,
            seed: 11,
            poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            poll_faults: Some(plan),
            ..ScenarioConfig::default()
        },
        None,
    )
    .expect("a straight run cannot fail")
    .0;
    assert!(faulty.poll_stats.retries > 0);
    assert_eq!(faulty.attributed, clean.attributed);
    assert_eq!(faulty.total_blocks, clean.total_blocks);
    assert_eq!(faulty.poll_stats.answered, clean.poll_stats.answered);
    assert_eq!(faulty.poll_stats.endpoints_down, 0);
    assert!(faulty.poll_stats.balanced());
}
