//! Smoke-sized endpoint-health sweep, writing per-configuration
//! wall-time plus breaker accounting to `BENCH_health.json` (override
//! with `MINEDIG_BENCH_OUT`).
//!
//! The sweep crosses dead-endpoint fraction × health layer on/off over
//! the §4.2 observer: a fraction of the pool's endpoints answer nothing
//! (every fetch times out, like a permanently unreachable proxy), and
//! each configuration polls the same sweep schedule. What the sweep is
//! pinning down is the **wasted-retry budget saved** by the circuit
//! breakers: health-off spends the full per-sweep retry budget on every
//! dead endpoint forever, health-on spends it only until the breaker
//! trips and then once per probe interval, quarantining the rest.
//!
//! Two contracts are asserted before any row is emitted, so a drifted
//! bench cannot measure the wrong thing: at dead fraction zero the
//! health-on run is bit-identical to the health-off run (stats, prev
//! pointer), and at every fraction both poll and health accounting
//! stay balanced.

use minedig_analysis::poller::{FetchError, JobSource, Observer, PollPolicy};
use minedig_bench::{bench_out, seed, BENCH_OUT_ENV, SEED_ENV};
use minedig_chain::netsim::TipInfo;
use minedig_chain::tx::Transaction;
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_pool::protocol::Job;
use minedig_primitives::health::HealthConfig;
use minedig_primitives::Hash32;
use minedig_primitives::{configured, read_env};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fractions of the endpoint inventory that never answer.
const DEAD_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.5];
/// Poll sweeps per configuration (10 virtual time units apart).
const SWEEPS: usize = 200;

/// A [`JobSource`] whose tail endpoints are permanently dead: every
/// fetch times out, burning the observer's retry budget exactly like an
/// unreachable proxy would.
struct DeadTail {
    inner: Pool,
    dead_from: usize,
}

impl JobSource for DeadTail {
    fn endpoint_count(&self) -> usize {
        self.inner.endpoint_count()
    }

    fn fetch_job(&self, endpoint: usize, now: u64, attempt: u32) -> Result<Arc<Job>, FetchError> {
        if endpoint >= self.dead_from {
            return Err(FetchError::Timeout);
        }
        self.inner.fetch_job(endpoint, now, attempt)
    }
}

fn pool_with_tip() -> Pool {
    let pool = Pool::new(PoolConfig::default());
    pool.announce_tip(&TipInfo {
        height: 10,
        prev_id: Hash32::keccak(b"bench-health-tip"),
        prev_timestamp: 1_000,
        reward: 1_000_000,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"m"))],
    });
    pool
}

struct Run {
    dead_fraction: f64,
    health: bool,
    secs: f64,
    polls: u64,
    answered: u64,
    retries: u64,
    quarantined: u64,
    prev: Option<Hash32>,
}

fn run_config(seed: u64, dead_fraction: f64, health: bool) -> Run {
    let pool = pool_with_tip();
    let count = pool.endpoint_count();
    let dead = (count as f64 * dead_fraction).round() as usize;
    let source = DeadTail {
        inner: pool,
        dead_from: count - dead,
    };
    let mut observer = Observer::with_source(source, true, PollPolicy::default());
    if health {
        observer = observer.with_health(HealthConfig {
            seed,
            ..HealthConfig::default()
        });
    }
    let start = Instant::now();
    for t in (1_000..).step_by(10).take(SWEEPS) {
        observer.poll_all(t);
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(observer.current_blob_count());

    let stats = observer.stats();
    assert!(stats.balanced(), "poll accounting must balance: {stats:?}");
    if let Some(hs) = observer.health_stats() {
        assert!(hs.balanced(), "health accounting must balance: {hs:?}");
    }
    Run {
        dead_fraction,
        health,
        secs,
        polls: stats.polls,
        answered: stats.answered,
        retries: stats.retries,
        quarantined: stats.quarantined,
        prev: observer.current_prev(),
    }
}

fn main() {
    let env = configured(read_env(&[SEED_ENV, BENCH_OUT_ENV]));
    let seed = configured(seed(&env));
    let out = configured(bench_out(&env, "BENCH_health.json"));
    let mut runs = Vec::new();
    // (fraction, retries saved by the breaker) per dead fraction.
    let mut savings = Vec::new();

    for fraction in DEAD_FRACTIONS {
        let off = run_config(seed, fraction, false);
        let on = run_config(seed, fraction, true);
        if fraction == 0.0 {
            // The determinism contract: no faults ⇒ the health layer is
            // invisible in the observed results.
            assert_eq!(on.polls, off.polls, "fault-free polls drifted");
            assert_eq!(on.answered, off.answered, "fault-free answers drifted");
            assert_eq!(on.retries, off.retries, "fault-free retries drifted");
            assert_eq!(on.quarantined, 0, "fault-free runs must not quarantine");
            assert_eq!(on.prev, off.prev, "fault-free prev pointer drifted");
        } else {
            assert!(
                on.retries < off.retries,
                "breakers must save retry budget on dead endpoints \
                 ({} on vs {} off at fraction {fraction})",
                on.retries,
                off.retries,
            );
        }
        savings.push((fraction, off.retries - on.retries));
        runs.push(off);
        runs.push(on);
    }

    // Human summary…
    for r in &runs {
        println!(
            "dead {:>4.0}% health {:>3}: {:.3}s, {} polls, {} answered, \
             {} retries, {} quarantined",
            r.dead_fraction * 100.0,
            if r.health { "on" } else { "off" },
            r.secs,
            r.polls,
            r.answered,
            r.retries,
            r.quarantined,
        );
    }
    for (fraction, saved) in &savings {
        println!(
            "dead {:>4.0}%: breaker saved {saved} wasted retries",
            fraction * 100.0
        );
    }

    // …and the machine-readable map.
    let mut json = String::from("{\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dead_fraction\": {}, \"health\": {}, \"secs\": {:.6}, \
             \"polls\": {}, \"answered\": {}, \"retries\": {}, \"quarantined\": {}}}{}\n",
            r.dead_fraction,
            r.health,
            r.secs,
            r.polls,
            r.answered,
            r.retries,
            r.quarantined,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"retries_saved\": [\n");
    for (i, (fraction, saved)) in savings.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"dead_fraction\": {fraction}, \"saved\": {saved}}}{}\n",
            if i + 1 == savings.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
