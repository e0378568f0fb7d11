//! Turnkey §4.2 scenario: the Monero network, the instrumented pool, the
//! observer and the attributor, wired together over virtual time.

use crate::attribution::{AttributedBlock, Attributor};
use crate::estimate::{network_estimate, NetworkEstimate};
use crate::poller::{FaultyJobSource, JobSource, Observer, PollPolicy, PollStats};
use minedig_chain::netsim::{Actor, MinedEvent, NetSim, NetSimConfig, SoloSource};
use minedig_pool::pool::{Pool, PoolConfig};
use minedig_primitives::ckpt::{Checkpointable, CkptError, SnapReader, SnapWriter, Snapshot};
use minedig_primitives::fault::FaultPlan;
use minedig_primitives::health::{HealthConfig, HealthStats};
use minedig_primitives::retry::RetryPolicy;
use minedig_primitives::supervise::{
    run_campaign, Campaign, Ckpt, SuperviseError, SuperviseReport,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A piecewise-constant rate segment.
#[derive(Clone, Copy, Debug)]
pub struct RateSegment {
    /// Segment start (unix seconds).
    pub from: u64,
    /// Rest-of-network hash rate, H/s.
    pub network: f64,
    /// Pool (Coinhive) base hash rate, H/s.
    pub pool: f64,
}

/// Scenario configuration. Defaults model the Figure 5 window.
#[derive(Clone)]
pub struct ScenarioConfig {
    /// Observation start (default 2018-04-26 00:00 UTC).
    pub start_time: u64,
    /// Observation length in days (default 28).
    pub duration_days: u64,
    /// Piecewise rates (must start at or before `start_time`).
    pub segments: Vec<RateSegment>,
    /// Day-start timestamps with elevated browsing (public holidays).
    pub holidays: Vec<u64>,
    /// Pool outage windows `[from, to)` — Coinhive's 6–7 May disruption.
    pub outages: Vec<(u64, u64)>,
    /// Observer poll interval (blobs change at the pool's template
    /// refresh cadence, so polling faster than that is redundant).
    pub poll_interval_secs: u64,
    /// Optional transport fault schedule on the poll path (chaos
    /// testing). `None` polls the pool directly.
    pub poll_faults: Option<FaultPlan>,
    /// Per-endpoint retry budget within each poll sweep.
    pub poll_retry: RetryPolicy,
    /// When set, the observer runs behind the endpoint-health layer
    /// (circuit breakers, adaptive deadlines, hedged probes). Fault-free
    /// runs are bit-identical with the layer on or off; under faults it
    /// trades accounted `quarantined` polls for saved retry budget.
    pub poll_health: Option<HealthConfig>,
    /// Initial network difficulty.
    pub initial_difficulty: u64,
    /// Mean transfer transactions per block.
    pub mean_txs_per_block: f64,
    /// Pool configuration.
    pub pool: PoolConfig,
    /// RNG seed.
    pub seed: u64,
}

/// 2018-04-26 00:00 UTC — the first day of Figure 5.
pub const FIG5_START: u64 = 1_524_700_800;

/// Day-start timestamps of the paper's holiday spikes: 30 Apr (Labor Day
/// eve), 10 May (Ascension), 22 May (day after Pentecost).
pub const FIG5_HOLIDAYS: [u64; 3] = [1_525_046_400, 1_525_910_400, 1_526_947_200];

/// Coinhive's observed outage: 6–7 May 2018.
pub const FIG5_OUTAGE: (u64, u64) = (1_525_564_800, 1_525_737_600);

/// Pool-rate multiplier on holiday days.
const HOLIDAY_BOOST: f64 = 1.8;

/// Diurnal modulation amplitude of the pool rate (global audience ⇒
/// small).
const DIURNAL_AMPLITUDE: f64 = 0.08;

/// The longest window, in days, whose end a scenario starting at
/// [`FIG5_START`] can represent in its seconds clock.
pub const MAX_DAYS: u64 = (u64::MAX - FIG5_START) / 86_400;

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            start_time: FIG5_START,
            duration_days: 28,
            segments: vec![RateSegment {
                from: 0,
                network: 456_000_000.0,
                pool: 6_000_000.0,
            }],
            holidays: FIG5_HOLIDAYS.to_vec(),
            outages: vec![FIG5_OUTAGE],
            poll_interval_secs: 15,
            poll_faults: None,
            poll_retry: RetryPolicy::default(),
            poll_health: None,
            initial_difficulty: 55_400_000_000,
            mean_txs_per_block: 12.0,
            pool: PoolConfig::default(),
            seed: 0x42f,
        }
    }
}

impl ScenarioConfig {
    fn segment_at(&self, t: u64) -> RateSegment {
        let mut current = self.segments[0];
        for s in &self.segments {
            if s.from <= t {
                current = *s;
            }
        }
        current
    }

    fn in_outage(&self, t: u64) -> bool {
        self.outages.iter().any(|&(a, b)| t >= a && t < b)
    }

    fn is_holiday(&self, t: u64) -> bool {
        self.holidays.iter().any(|&d| t >= d && t < d + 86_400)
    }

    /// The pool's effective hash rate at time `t`.
    pub fn pool_rate(&self, t: u64) -> f64 {
        if self.in_outage(t) {
            return 0.0;
        }
        let base = self.segment_at(t).pool;
        let tod = (t % 86_400) as f64 / 86_400.0;
        let diurnal = 1.0 + DIURNAL_AMPLITUDE * (std::f64::consts::TAU * tod).sin();
        let holiday = if self.is_holiday(t) {
            HOLIDAY_BOOST
        } else {
            1.0
        };
        base * diurnal * holiday
    }
}

/// Scenario output.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Blocks the methodology attributed to the pool.
    pub attributed: Vec<AttributedBlock>,
    /// Ground truth: every pool-won block event from the simulator.
    pub ground_truth: Vec<MinedEvent>,
    /// Total blocks mined by anyone in the window.
    pub total_blocks: u64,
    /// Network estimate from observed difficulties.
    pub network: NetworkEstimate,
    /// Observer poll statistics.
    pub poll_stats: PollStats,
    /// Endpoint-health counters (breaker trips, quarantines, hedges),
    /// when `poll_health` was set.
    pub poll_health_stats: Option<HealthStats>,
    /// Scenario window `[start, end)`.
    pub window: (u64, u64),
}

impl ScenarioResult {
    /// Attribution recall against ground truth.
    pub fn recall(&self) -> f64 {
        if self.ground_truth.is_empty() {
            return 1.0;
        }
        self.attributed.len() as f64 / self.ground_truth.len() as f64
    }

    /// True iff every attributed block is a ground-truth pool block
    /// (the methodology is precise by construction — the Coinbase leaf —
    /// so anything else is a bug).
    pub fn precise(&self) -> bool {
        let truth: std::collections::HashSet<_> =
            self.ground_truth.iter().map(|e| e.block_id).collect();
        self.attributed.iter().all(|b| truth.contains(&b.block_id))
    }
}

/// Runs the full scenario: straight through, or with `ckpt` under its
/// supervisor as snapshot `attribute-{days}-{seed}`, killable at any
/// block event and resumable, with results bit-identical to a straight
/// run. The supervisor's accounting comes back with a checkpointed
/// scenario's result.
pub fn run_scenario(
    config: ScenarioConfig,
    ckpt: Option<&Ckpt>,
) -> Result<(ScenarioResult, Option<SuperviseReport>), SuperviseError> {
    let name = format!("attribute-{}-{}", config.duration_days, config.seed);
    match config.poll_faults.clone() {
        None => run_campaign(ckpt, &name, || {
            scenario_campaign(&config, |pool| pool, config.seed)
        }),
        Some(plan) => run_campaign(ckpt, &name, || {
            scenario_campaign(
                &config,
                |pool| FaultyJobSource::new(pool, plan.clone()),
                plan.seed(),
            )
        }),
    }
}

/// A fresh scenario campaign over a new pool, observed through the job
/// source `source` builds on that pool, with poll jitter drawn from
/// `jitter_seed`. Generic over the source, so the fault-injected and
/// direct observers share this set-up yet keep a static source type.
fn scenario_campaign<S: JobSource + Send + 'static>(
    config: &ScenarioConfig,
    source: impl FnOnce(Pool) -> S,
    jitter_seed: u64,
) -> ScenarioCampaign<S> {
    let pool = Pool::new(config.pool.clone());
    let policy = PollPolicy {
        retry: config.poll_retry.clone(),
        jitter_seed,
    };
    let mut observer = Observer::with_source(source(pool.clone()), true, policy);
    if let Some(health) = config.poll_health.clone() {
        observer = observer.with_health(health);
    }
    ScenarioCampaign::new(config.clone(), pool, observer)
}

/// The §4.2 scenario as a killable, resumable [`Campaign`]: one item =
/// one accepted block event (one [`NetSim::step`], including its poll
/// sweeps over the inter-block interval).
///
/// The simulator itself is not serialized. Its whole trajectory — block
/// times, winners, templates, difficulties — is a pure function of the
/// config and seed, and the observation hook only *reads* the pool, so
/// the snapshot carries just the step cursor plus the state that folds
/// across steps: the attributor's verdicts and the observer's
/// cross-sweep state (via [`Observer::write_state`]). `restore` rebuilds
/// the simulator by replaying the first `steps` events with polling
/// suppressed (outage toggles still applied), recomputing
/// `difficulties`/`ground_truth`/`total_blocks` along the way, then
/// overlays the snapshot state — so a killed-and-resumed run reproduces
/// the uninterrupted scenario bit for bit, for any fault schedule.
pub struct ScenarioCampaign<S: JobSource + Send + 'static> {
    config: Arc<ScenarioConfig>,
    observer: Arc<Mutex<Observer<S>>>,
    /// When set, the interval hook skips poll sweeps (restore replay).
    replaying: Arc<AtomicBool>,
    sim: NetSim,
    end_time: u64,
    attributor: Attributor,
    difficulties: Vec<u64>,
    ground_truth: Vec<MinedEvent>,
    total_blocks: u64,
    /// Count of `sim.step()` calls performed — the progress key.
    steps: u64,
    done: bool,
}

impl<S: JobSource + Send + 'static> ScenarioCampaign<S> {
    /// Builds the simulator, actors and observation hook for one
    /// scenario run over a freshly-initialized observer.
    pub fn new(config: ScenarioConfig, pool: Pool, observer: Observer<S>) -> ScenarioCampaign<S> {
        let observer = Arc::new(Mutex::new(observer));
        let end_time = config.start_time + config.duration_days * 86_400;
        let replaying = Arc::new(AtomicBool::new(false));

        let config = Arc::new(config);
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
                Box::new(move |t| config.segment_at(t).network)
            },
            source: Box::new(SoloSource::new("rest-of-network")),
        };

        let mut sim = NetSim::new(
            NetSimConfig {
                start_time: config.start_time,
                initial_difficulty: config.initial_difficulty,
                mean_txs_per_block: config.mean_txs_per_block,
                seed: config.seed,
            },
            vec![network_actor, pool_actor],
        );

        // The observation hook: poll all endpoints across each
        // inter-block interval, toggling pool availability per the
        // outage schedule. During a restore replay the sweeps are
        // skipped (the observer's state comes from the snapshot) but
        // the outage toggles still run, so the pool traverses the same
        // state sequence as the original run.
        {
            let observer = observer.clone();
            let pool = pool.clone();
            let config = config.clone();
            let replaying = replaying.clone();
            let interval = config.poll_interval_secs.max(1);
            sim.set_interval_hook(Box::new(move |from, to| {
                let replay = replaying.load(Ordering::Relaxed);
                let mut obs = observer.lock();
                let mut t = from - from % interval + interval;
                let mut polled_end = false;
                while t <= to {
                    pool.set_online(!config.in_outage(t));
                    if !replay {
                        obs.poll_all(t);
                    }
                    polled_end = t == to;
                    t += interval;
                }
                // Always sample the interval end: the paper's 500 ms
                // cadence is far finer than the pool's template refresh,
                // so the version active at block-discovery time was
                // always observed.
                pool.set_online(!config.in_outage(to));
                if !polled_end && !config.in_outage(to) && !replay {
                    obs.poll_all(to);
                }
            }));
        }

        ScenarioCampaign {
            config,
            observer,
            replaying,
            sim,
            end_time,
            attributor: Attributor::new(),
            difficulties: Vec::new(),
            ground_truth: Vec::new(),
            total_blocks: 0,
            steps: 0,
            done: false,
        }
    }

    /// Folds one in-window block event into the campaign state.
    fn apply_event(&mut self, ev: MinedEvent) {
        self.total_blocks += 1;
        self.difficulties.push(ev.difficulty);
        let block = self
            .sim
            .chain()
            .block_at(ev.height)
            .expect("event height exists")
            .clone();
        let cluster = self.observer.lock().take_cluster(&block.header.prev_id);
        self.attributor.judge(&block, ev.found_at, cluster.as_ref());
        if ev.actor_name == "coinhive" {
            self.ground_truth.push(ev);
        }
    }
}

impl<S: JobSource + Send + 'static> Checkpointable for ScenarioCampaign<S> {
    fn progress_key(&self) -> u64 {
        self.steps
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::new();
        w.u64(self.steps);
        w.bool(self.done);
        let a = &self.attributor;
        w.len(a.attributed.len());
        for b in &a.attributed {
            w.u64(b.height);
            w.hash(&b.block_id);
            w.u64(b.timestamp);
            w.u64(b.found_at);
            w.u64(b.reward);
        }
        w.u64(a.unmatched);
        w.u64(a.gaps);
        self.observer.lock().write_state(&mut w);
        Snapshot::new(self.steps, w.finish())
    }

    fn restore(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let mut r = SnapReader::new(snap.full_payload()?);
        let steps = r.u64()?;
        let done = r.bool()?;
        let n = r.len()?;
        let mut attributed = Vec::new();
        for _ in 0..n {
            attributed.push(AttributedBlock {
                height: r.u64()?,
                block_id: r.hash()?,
                timestamp: r.u64()?,
                found_at: r.u64()?,
                reward: r.u64()?,
            });
        }
        let unmatched = r.u64()?;
        let gaps = r.u64()?;
        self.observer.lock().read_state(&mut r)?;
        r.expect_end()?;

        // Fast-forward: re-run the simulator through the first `steps`
        // events with polling suppressed, re-deriving the event-fold
        // state the snapshot deliberately omits.
        self.replaying.store(true, Ordering::Relaxed);
        for _ in 0..steps {
            if self.sim.now() >= self.end_time {
                self.replaying.store(false, Ordering::Relaxed);
                return Err(CkptError::Corrupt("replay ran past the window"));
            }
            let Some(ev) = self.sim.step() else {
                self.replaying.store(false, Ordering::Relaxed);
                return Err(CkptError::Corrupt("simulator exhausted during replay"));
            };
            if ev.found_at >= self.end_time {
                // The breaking event: observed but never folded.
                continue;
            }
            self.total_blocks += 1;
            self.difficulties.push(ev.difficulty);
            if ev.actor_name == "coinhive" {
                self.ground_truth.push(ev);
            }
        }
        self.replaying.store(false, Ordering::Relaxed);

        self.steps = steps;
        self.done = done;
        self.attributor = Attributor {
            attributed,
            unmatched,
            gaps,
        };
        Ok(())
    }
}

impl<S: JobSource + Send + 'static> Campaign for ScenarioCampaign<S> {
    type Output = ScenarioResult;

    fn is_done(&self) -> bool {
        self.done
    }

    fn run_items(&mut self, budget: u64, _heartbeat: &AtomicU64) {
        for _ in 0..budget {
            if self.done {
                return;
            }
            if self.sim.now() >= self.end_time {
                self.done = true;
                return;
            }
            let Some(ev) = self.sim.step() else {
                self.done = true;
                return;
            };
            self.steps += 1;
            if ev.found_at >= self.end_time {
                // The step ran (and polled) but its block falls outside
                // the window — the uninterrupted loop's break point.
                self.done = true;
                return;
            }
            self.apply_event(ev);
        }
    }

    fn finish(mut self) -> ScenarioResult {
        let network = network_estimate(&mut self.difficulties);
        let observer = self.observer.lock();
        let poll_stats = observer.stats().clone();
        let poll_health_stats = observer.health_stats();
        drop(observer);
        ScenarioResult {
            attributed: self.attributor.attributed,
            ground_truth: self.ground_truth,
            total_blocks: self.total_blocks,
            network,
            poll_stats,
            poll_health_stats,
            window: (self.config.start_time, self.end_time),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_primitives::ckpt::SnapshotStore;
    use minedig_primitives::supervise::{CrashPolicy, Supervisor};

    fn straight(config: ScenarioConfig) -> ScenarioResult {
        run_scenario(config, None)
            .expect("a straight run cannot fail")
            .0
    }

    fn short_scenario(days: u64, seed: u64) -> ScenarioResult {
        straight(ScenarioConfig {
            duration_days: days,
            seed,
            ..ScenarioConfig::default()
        })
    }

    #[test]
    fn attribution_is_precise_and_high_recall() {
        let r = short_scenario(4, 1);
        assert!(r.precise(), "attribution must never hit foreign blocks");
        assert!(
            r.recall() > 0.85,
            "recall {} over {} truth blocks",
            r.recall(),
            r.ground_truth.len()
        );
        assert!(!r.attributed.is_empty());
    }

    #[test]
    fn block_share_is_near_1_18_percent() {
        let r = short_scenario(6, 2);
        let share = r.ground_truth.len() as f64 / r.total_blocks as f64;
        assert!((0.006..0.022).contains(&share), "share {share}");
    }

    #[test]
    fn network_difficulty_holds_at_55g() {
        let r = short_scenario(3, 3);
        let ratio = r.network.median_difficulty as f64 / 55_400_000_000.0;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn outage_suppresses_pool_blocks() {
        let mut config = ScenarioConfig {
            duration_days: 12,
            seed: 4,
            ..ScenarioConfig::default()
        };
        // Make the pool large so the test has statistics, then check the
        // outage days are empty.
        config.segments[0].pool = 40_000_000.0;
        let r = straight(config);
        let (o_start, o_end) = FIG5_OUTAGE;
        let during = r
            .ground_truth
            .iter()
            .filter(|e| e.found_at >= o_start && e.found_at < o_end)
            .count();
        assert_eq!(during, 0, "no pool blocks during the outage");
        let outside = r.ground_truth.len() - during;
        assert!(outside > 50, "outside {outside}");
        // Observer saw the outage as refused polls.
        assert!(r.poll_stats.offline > 0);
    }

    #[test]
    fn holiday_rate_is_boosted() {
        let config = ScenarioConfig::default();
        let holiday_noon = FIG5_HOLIDAYS[0] + 43_200;
        let normal_noon = FIG5_HOLIDAYS[0] + 86_400 + 43_200;
        assert!(config.pool_rate(holiday_noon) > config.pool_rate(normal_noon) * 1.5);
    }

    #[test]
    fn pool_rate_zero_in_outage() {
        let config = ScenarioConfig::default();
        assert_eq!(config.pool_rate(FIG5_OUTAGE.0 + 100), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = short_scenario(2, 9);
        let b = short_scenario(2, 9);
        assert_eq!(a.attributed.len(), b.attributed.len());
        assert_eq!(a.total_blocks, b.total_blocks);
    }

    #[test]
    fn chaos_polling_with_clearing_faults_matches_clean() {
        let clean = short_scenario(2, 9);
        let plan = FaultPlan::transient_only(77, 0.4);
        let faulty = straight(ScenarioConfig {
            duration_days: 2,
            seed: 9,
            poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            poll_faults: Some(plan),
            ..ScenarioConfig::default()
        });
        assert!(faulty.poll_stats.retries > 0, "p=0.4 must force retries");
        assert_eq!(faulty.attributed, clean.attributed);
        assert_eq!(faulty.total_blocks, clean.total_blocks);
        assert_eq!(faulty.poll_stats.answered, clean.poll_stats.answered);
        assert_eq!(faulty.poll_stats.endpoints_down, 0);
        assert!(faulty.poll_stats.balanced());
    }

    fn assert_results_eq(a: &ScenarioResult, b: &ScenarioResult, ctx: &str) {
        assert_eq!(a.attributed, b.attributed, "{ctx}");
        assert_eq!(a.total_blocks, b.total_blocks, "{ctx}");
        assert_eq!(
            a.ground_truth
                .iter()
                .map(|e| e.block_id)
                .collect::<Vec<_>>(),
            b.ground_truth
                .iter()
                .map(|e| e.block_id)
                .collect::<Vec<_>>(),
            "{ctx}"
        );
        assert_eq!(a.poll_stats, b.poll_stats, "{ctx}");
        assert_eq!(
            a.network.median_difficulty, b.network.median_difficulty,
            "{ctx}"
        );
        assert_eq!(a.window, b.window, "{ctx}");
    }

    /// A fresh snapshot directory tagged `tag`.
    fn sup_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minedig-scenario-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `config` run under `supervisor`, checkpointing into `dir`.
    fn supervised(
        config: &ScenarioConfig,
        dir: &std::path::Path,
        supervisor: Supervisor,
        resume: bool,
    ) -> Result<(ScenarioResult, SuperviseReport), SuperviseError> {
        let ckpt = Ckpt {
            store: SnapshotStore::open(dir).unwrap(),
            supervisor,
            resume,
        };
        let (result, report) = run_scenario(config.clone(), Some(&ckpt))?;
        Ok((result, report.expect("a supervised run reports")))
    }

    #[test]
    fn supervised_scenario_with_kills_matches_uninterrupted() {
        let reference = short_scenario(2, 9);
        let config = ScenarioConfig {
            duration_days: 2,
            seed: 9,
            ..ScenarioConfig::default()
        };
        let dir = sup_dir("kills");
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 4,
            ..CrashPolicy::default()
        })
        .with_kills(vec![3, 11]);
        let (result, report) = supervised(&config, &dir, sup, false).unwrap();
        assert_results_eq(&result, &reference, "killed at 3 and 11");
        assert_eq!(report.crashes, 2);
        assert!(report.items_lost > 0, "kills must discard work");
        assert!(report.balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervised_scenario_resumes_across_processes() {
        let reference = short_scenario(2, 5);
        let config = ScenarioConfig {
            duration_days: 2,
            seed: 5,
            ..ScenarioConfig::default()
        };
        let dir = sup_dir("resume");
        // First process dies at every step after the first checkpoint…
        let doomed = Supervisor::new(CrashPolicy {
            ckpt_every_items: 4,
            max_restarts: 1,
        })
        .with_kills((5..10_000).collect());
        let err = supervised(&config, &dir, doomed, false).unwrap_err();
        assert!(matches!(err, SuperviseError::RestartsExhausted(_)));
        // …and a fresh supervisor resumes from its surviving snapshot.
        let (result, report) = supervised(&config, &dir, Supervisor::default(), true).unwrap();
        assert!(report.start_progress > 0, "must resume mid-way");
        assert_results_eq(&result, &reference, "resumed run");
        assert!(report.balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervised_scenario_matches_under_poll_faults() {
        let plan = FaultPlan::transient_only(77, 0.4);
        let config = ScenarioConfig {
            duration_days: 2,
            seed: 9,
            poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            poll_faults: Some(plan),
            ..ScenarioConfig::default()
        };
        let reference = straight(config.clone());
        assert!(reference.poll_stats.retries > 0, "p=0.4 must force retries");
        let dir = sup_dir("faulty");
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 4,
            ..CrashPolicy::default()
        })
        .with_kills(vec![2, 9]);
        let (result, report) = supervised(&config, &dir, sup, false).unwrap();
        assert_results_eq(&result, &reference, "faulty supervised");
        assert!(report.balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_layer_does_not_change_the_scenario() {
        let off = short_scenario(2, 9);
        let on = straight(ScenarioConfig {
            duration_days: 2,
            seed: 9,
            poll_health: Some(HealthConfig::default()),
            ..ScenarioConfig::default()
        });
        assert_eq!(on.attributed, off.attributed);
        assert_eq!(on.total_blocks, off.total_blocks);
        assert_eq!(on.poll_stats, off.poll_stats, "fault-free ⇒ bit-identical");
        assert!(off.poll_health_stats.is_none());
        let stats = on.poll_health_stats.expect("health stats reported");
        assert_eq!(stats.breaker.trips, 0, "no faults, no trips");
        assert_eq!(stats.breaker.quarantined, 0);
        assert!(stats.balanced(), "{stats:?}");
    }

    #[test]
    fn health_layer_survives_supervision_under_faults() {
        let plan = FaultPlan::transient_only(77, 0.4);
        let config = ScenarioConfig {
            duration_days: 2,
            seed: 9,
            poll_retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            poll_faults: Some(plan),
            poll_health: Some(HealthConfig::default()),
            ..ScenarioConfig::default()
        };
        let reference = straight(config.clone());
        assert!(reference.poll_stats.retries > 0, "p=0.4 must force retries");
        assert!(reference.poll_stats.balanced());
        let ref_health = reference.poll_health_stats.expect("health stats");
        assert!(ref_health.balanced(), "{ref_health:?}");

        let dir = sup_dir("health");
        let sup = Supervisor::new(CrashPolicy {
            ckpt_every_items: 4,
            ..CrashPolicy::default()
        })
        .with_kills(vec![3, 11]);
        let (result, report) = supervised(&config, &dir, sup, false).unwrap();
        assert_results_eq(&result, &reference, "health-on killed run");
        assert_eq!(
            result.poll_health_stats.as_ref().expect("health stats"),
            &ref_health,
            "breaker/hedge accounting must survive kill-and-resume"
        );
        assert!(report.balanced(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
