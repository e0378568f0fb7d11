//! §4.2 as `minedig attribute` runs it: the Monero network simulator
//! with the instrumented pool as one actor, every endpoint polled on the
//! 15 s grid across each inter-block interval, and each accepted block
//! judged against the Merkle-root cluster observed for its parent —
//! composed from the chain, pool and analysis crates' leaf functions.

use crate::trace::span;
use crate::Layers;
use minedig::analysis::attribution::Attributor;
use minedig::analysis::economics::{pool_revenue, ExchangeRate};
use minedig::analysis::poller::{FetchError, JobSource, PollStats};
use minedig::analysis::scenario::{ScenarioConfig, ScenarioResult};
use minedig::chain::netsim::{Actor, NetSim, NetSimConfig, SoloSource};
use minedig::chain::HashingBlob;
use minedig::pool::obfuscation::xor_blob;
use minedig::pool::Pool;
use minedig::primitives::Hash32;
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

/// The scenario the CLI runs for `days` days at `seed`.
pub fn config(days: u64, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        duration_days: days,
        seed,
        ..ScenarioConfig::default()
    }
}

fn in_outage(config: &ScenarioConfig, t: u64) -> bool {
    config.outages.iter().any(|&(a, b)| t >= a && t < b)
}

fn network_rate(config: &ScenarioConfig, t: u64) -> f64 {
    let mut current = config.segments[0];
    for s in &config.segments {
        if s.from <= t {
            current = *s;
        }
    }
    current.network
}

/// The workload's inputs: the pool and the chain simulator with its two
/// actors (the pool and the rest of the network).
pub fn setup(config: &ScenarioConfig) -> (Pool, NetSim) {
    let pool = Pool::new(config.pool.clone());
    let pool_actor = Actor {
        name: "coinhive".to_string(),
        profile: {
            let config = config.clone();
            Box::new(move |t| config.pool_rate(t))
        },
        source: Box::new(pool.template_source()),
    };
    let network_actor = Actor {
        name: "rest-of-network".to_string(),
        profile: {
            let config = config.clone();
            Box::new(move |t| network_rate(&config, t))
        },
        source: Box::new(SoloSource::new("rest-of-network")),
    };
    let sim = NetSim::new(
        NetSimConfig {
            start_time: config.start_time,
            initial_difficulty: config.initial_difficulty,
            mean_txs_per_block: config.mean_txs_per_block,
            seed: config.seed,
            ..NetSimConfig::default()
        },
        vec![network_actor, pool_actor],
    );
    (pool, sim)
}

/// The observer's cross-sweep state: the Merkle roots and distinct
/// blobs seen for the current parent pointer, plus the poll counters.
#[derive(Default)]
struct Clusters {
    prev: Option<Hash32>,
    roots: BTreeSet<Hash32>,
    blobs: BTreeSet<Vec<u8>>,
    stats: PollStats,
    sweeps: u64,
}

impl Clusters {
    /// One sweep at virtual time `now`: every endpoint polled once,
    /// each answer de-obfuscated, parsed and clustered in endpoint order.
    fn sweep(&mut self, pool: &Pool, now: u64) {
        self.sweeps += 1;
        for endpoint in 0..JobSource::endpoint_count(pool) {
            self.stats.polls += 1;
            let job = span("pool.fetch_job", || pool.fetch_job(endpoint, now, 0));
            match job {
                Err(FetchError::Offline) => self.stats.offline += 1,
                Err(FetchError::Refused | FetchError::Shed) => self.stats.other_errors += 1,
                Err(_) => self.stats.endpoints_down += 1,
                Ok(job) => {
                    self.stats.answered += 1;
                    let Ok(mut bytes) = job.blob_bytes() else {
                        self.stats.parse_failures += 1;
                        continue;
                    };
                    xor_blob(&mut bytes);
                    let Ok(blob) = HashingBlob::parse(&bytes) else {
                        self.stats.parse_failures += 1;
                        continue;
                    };
                    self.record(bytes, blob);
                }
            }
        }
    }

    fn record(&mut self, bytes: Vec<u8>, blob: HashingBlob) {
        if self.prev != Some(blob.prev_id) {
            self.prev = Some(blob.prev_id);
            self.roots.clear();
            self.blobs.clear();
        }
        self.roots.insert(blob.merkle_root);
        self.blobs.insert(bytes);
        self.stats.max_blobs_per_prev = self.stats.max_blobs_per_prev.max(self.blobs.len());
    }

    fn take_cluster(&mut self, prev: &Hash32) -> Option<BTreeSet<Hash32>> {
        (self.prev == Some(*prev)).then(|| {
            self.prev = None;
            self.blobs.clear();
            std::mem::take(&mut self.roots)
        })
    }
}

/// Runs the scenario for `days` days through the leaf functions, with
/// spans, and returns the CLI's result lines.
pub fn traced(days: u64, seed: u64, layers: &mut Layers) -> Vec<String> {
    let config = config(days, seed);
    let (pool, mut sim) = span("chain.setup", || setup(&config));
    let clusters = Arc::new(Mutex::new(Clusters::default()));
    {
        let clusters = clusters.clone();
        let pool = pool.clone();
        let config = config.clone();
        let interval = config.poll_interval_secs.max(1);
        sim.set_interval_hook(Box::new(move |from, to| {
            let mut c = clusters.lock().expect("single-threaded hook");
            let mut t = from - from % interval + interval;
            let mut polled_end = false;
            while t <= to {
                pool.set_online(!in_outage(&config, t));
                span("analysis.sweep", || c.sweep(&pool, t));
                polled_end = t == to;
                t += interval;
            }
            pool.set_online(!in_outage(&config, to));
            if !polled_end && !in_outage(&config, to) {
                span("analysis.sweep", || c.sweep(&pool, to));
            }
        }));
    }

    let end_time = config.start_time + config.duration_days * 86_400;
    let mut attributor = Attributor::new();
    let mut ground_truth = Vec::new();
    let mut total_blocks = 0u64;
    while sim.now() < end_time {
        let Some(ev) = span("chain.step", || sim.step()) else {
            break;
        };
        layers.count("chain.blocks", 1.0);
        if ev.found_at >= end_time {
            break;
        }
        total_blocks += 1;
        let block = sim
            .chain()
            .block_at(ev.height)
            .expect("event height exists")
            .clone();
        span("analysis.judge", || {
            let cluster = clusters
                .lock()
                .expect("the hook never panics")
                .take_cluster(&block.header.prev_id);
            attributor.judge(&block, ev.found_at, cluster.as_ref());
        });
        if ev.actor_name == "coinhive" {
            ground_truth.push(ev);
        }
    }
    let c = clusters.lock().expect("the hook never panics");
    layers.count("analysis.sweeps", c.sweeps as f64);
    layers.count("pool.fetch_jobs", c.stats.polls as f64);
    layers.count("analysis.polls", c.stats.polls as f64);
    layers.count("analysis.answered", c.stats.answered as f64);
    let truth: HashSet<_> = ground_truth.iter().map(|e| e.block_id).collect();
    result_lines(
        &c.stats,
        &attributor.attributed,
        total_blocks,
        ground_truth.len(),
        attributor
            .attributed
            .iter()
            .all(|b| truth.contains(&b.block_id)),
    )
}

/// The CLI's result lines for a finished scenario.
pub fn scenario_lines(r: &ScenarioResult) -> Vec<String> {
    result_lines(
        &r.poll_stats,
        &r.attributed,
        r.total_blocks,
        r.ground_truth.len(),
        r.precise(),
    )
}

fn result_lines(
    ps: &PollStats,
    attributed: &[minedig::analysis::AttributedBlock],
    total_blocks: u64,
    truth_blocks: usize,
    precise: bool,
) -> Vec<String> {
    let share = attributed.len() as f64 / total_blocks.max(1) as f64;
    let recall = if truth_blocks == 0 {
        1.0
    } else {
        attributed.len() as f64 / truth_blocks as f64
    };
    let revenue = pool_revenue(attributed, ExchangeRate::paper_writing_time(), 0.30);
    vec![
        format!(
            "polls: {} issued, {} answered, {} offline, {} retries, {} endpoint-sweeps down, \
             {} quarantined, {} shed",
            ps.polls,
            ps.answered,
            ps.offline,
            ps.retries,
            ps.endpoints_down,
            ps.quarantined,
            ps.sheds
        ),
        format!(
            "blocks: {} total, {} attributed to the pool ({:.2}%, paper: 1.18%)",
            total_blocks,
            attributed.len(),
            share * 100.0
        ),
        format!(
            "recall {:.1}% / precision {}",
            recall * 100.0,
            if precise { "exact" } else { "BUG" }
        ),
        format!(
            "revenue: {:.1} XMR ≈ {:.0} USD gross, pool keeps {:.0} USD (30%)",
            revenue.xmr, revenue.usd_gross, revenue.usd_pool_cut
        ),
    ]
}
