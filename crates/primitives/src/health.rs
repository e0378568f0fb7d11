//! Endpoint-health subsystem: deterministic circuit breakers, latency
//! tracking with adaptive deadlines and hedged-probe planning.
//!
//! The §4.2 poll study talks to 32 untrusted pool endpoints for four
//! weeks; real endpoints flap, stall, and die (Eskandari et al. document
//! Coinhive's instability). The fault layer injects those failures —
//! this module adds the layer production systems put between retries and
//! crashes:
//!
//! * [`CircuitBreaker`] — per-endpoint Closed/Open/HalfOpen state over a
//!   rolling failure window, so a dead endpoint is quarantined instead
//!   of re-failing a full retry budget every sweep. Open durations are
//!   jittered from a seeded per-endpoint stream, so probe schedules are
//!   deterministic yet de-synchronized across endpoints.
//! * [`LatencyTracker`] — an EWMA of observed (virtual) probe latencies
//!   that tightens retry deadlines (see [`RetryPolicy::tightened`]) and
//!   feeds hedge planning.
//! * [`EndpointHealth`] — the per-sweep orchestration: a *plan* phase
//!   computed strictly before a sweep's first probe and a *record*
//!   phase applied strictly after its last (so breaker and tracker
//!   state advance at one deterministic point, never mid-sweep).
//!
//! Two time domains are in play and must not be conflated: breaker open
//! windows are measured on the *sweep clock* (the `now` the caller
//! passes, e.g. the poll timestamp), while latencies and adaptive
//! deadlines are measured in the per-endpoint retry loop's *virtual
//! milliseconds* (see [`RetryOutcome::waited_ms`](crate::retry::RetryOutcome::waited_ms)).
//!
//! Determinism contract: with no faults every probe succeeds on its
//! first attempt, so breakers never trip, adaptive deadlines never bind
//! (a deadline is only consulted before a backoff sleep, and fault-free
//! probes never back off), and hedges — which share the primary probe's
//! `(endpoint, now)` sequence key — return the identical payload, only
//! earlier. Health-on is therefore bit-identical to health-off on
//! fault-free runs; under faults, the accounting invariant checked by
//! [`HealthStats::balanced`] holds instead.

use crate::ckpt::{CkptError, SnapReader, SnapWriter};
use crate::rng::DetRng;
use std::collections::VecDeque;

/// Environment variable that opts CLI runs into the health layer when
/// set to `1`.
pub const HEALTH_ENV: &str = "MINEDIG_HEALTH";

/// Whether [`HEALTH_ENV`], read through `lookup`, enables the health
/// layer: unset or `0` is off, `1` is on, and anything else is an error
/// naming the variable.
pub fn parse_health(lookup: impl Fn(&str) -> Option<String>) -> Result<bool, String> {
    crate::parse_switch(lookup, HEALTH_ENV)
}

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Rolling outcome window length.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Failure fraction of the window at which the breaker trips.
    pub failure_threshold: f64,
    /// Quarantine duration after a trip, in sweep-clock units.
    pub open_for: u64,
    /// Upper bound of the seeded per-trip jitter added to `open_for`,
    /// in sweep-clock units (de-synchronizes probe schedules).
    pub probe_jitter: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            open_for: 60,
            probe_jitter: 15,
        }
    }
}

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Probes flow normally; outcomes fill the rolling window.
    Closed,
    /// Quarantined: probes are denied until the open window elapses.
    Open,
    /// One probe has been granted; its outcome closes or reopens.
    HalfOpen,
}

/// Counters for one breaker (or an aggregate over several).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Calls to [`CircuitBreaker::admit`].
    pub checks: u64,
    /// Checks that admitted the probe.
    pub allowed: u64,
    /// Checks denied because the breaker was open.
    pub quarantined: u64,
    /// Closed → Open transitions.
    pub trips: u64,
    /// Open → HalfOpen transitions (probe grants).
    pub probes: u64,
    /// HalfOpen → Open transitions (failed probes).
    pub reopens: u64,
    /// HalfOpen → Closed transitions (successful probes).
    pub closes: u64,
}

impl BreakerStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: &BreakerStats) {
        self.checks += other.checks;
        self.allowed += other.allowed;
        self.quarantined += other.quarantined;
        self.trips += other.trips;
        self.probes += other.probes;
        self.reopens += other.reopens;
        self.closes += other.closes;
    }
}

/// A deterministic per-endpoint circuit breaker.
///
/// All transitions happen on the caller's sweep clock; the only
/// randomness is the per-trip probe jitter, drawn statelessly from
/// `DetRng::seed(seed).derive("breaker").derive(key).derive("trip{n}")`
/// so schedules depend on the (seed, key, trip count) triple — never on
/// sweep order or shard count.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    rng: DetRng,
    state: BreakerState,
    open_until: u64,
    window: VecDeque<bool>,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed breaker keyed by `(seed, key)`.
    pub fn new(config: BreakerConfig, seed: u64, key: &str) -> CircuitBreaker {
        CircuitBreaker {
            config,
            rng: DetRng::seed(seed).derive("breaker").derive(key),
            state: BreakerState::Closed,
            open_until: 0,
            window: VecDeque::new(),
            stats: BreakerStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Counters so far.
    pub fn stats(&self) -> &BreakerStats {
        &self.stats
    }

    /// Asks whether a probe may be sent at sweep time `now`. An open
    /// breaker whose window has elapsed grants exactly one half-open
    /// probe; a still-open breaker denies (quarantine).
    pub fn admit(&mut self, now: u64) -> bool {
        self.stats.checks += 1;
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => {
                self.stats.allowed += 1;
                true
            }
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.stats.probes += 1;
                    self.stats.allowed += 1;
                    true
                } else {
                    self.stats.quarantined += 1;
                    false
                }
            }
        }
    }

    /// Records the final outcome of an admitted probe.
    pub fn record(&mut self, now: u64, success: bool) {
        match self.state {
            BreakerState::HalfOpen => {
                if success {
                    self.state = BreakerState::Closed;
                    self.stats.closes += 1;
                    self.window.clear();
                } else {
                    self.open(now);
                    self.stats.reopens += 1;
                }
            }
            BreakerState::Closed => {
                if self.window.len() == self.config.window.max(1) {
                    self.window.pop_front();
                }
                self.window.push_back(success);
                if !success && self.should_trip() {
                    self.open(now);
                    self.stats.trips += 1;
                    self.window.clear();
                }
            }
            // An outcome arriving while open (e.g. admitted just before
            // the trip landed) carries no new information.
            BreakerState::Open => {}
        }
    }

    fn should_trip(&self) -> bool {
        let n = self.window.len();
        if n < self.config.min_samples.max(1) {
            return false;
        }
        let failures = self.window.iter().filter(|ok| !**ok).count();
        failures as f64 >= self.config.failure_threshold * n as f64
    }

    fn open(&mut self, now: u64) {
        let seq = self.stats.trips + self.stats.reopens;
        let jitter = if self.config.probe_jitter == 0 {
            0
        } else {
            self.rng
                .derive(format_args!("trip{seq}"))
                .gen_range(self.config.probe_jitter + 1)
        };
        self.state = BreakerState::Open;
        self.open_until = now
            .saturating_add(self.config.open_for)
            .saturating_add(jitter);
    }

    /// Serializes the mutable state (config and rng are reconstructed
    /// from the campaign's own configuration on restore).
    pub fn write_state(&self, w: &mut SnapWriter) {
        let s = &self.stats;
        for v in [
            s.checks,
            s.allowed,
            s.quarantined,
            s.trips,
            s.probes,
            s.reopens,
            s.closes,
        ] {
            w.u64(v);
        }
        w.u64(match self.state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
        w.u64(self.open_until);
        w.len(self.window.len());
        for &ok in &self.window {
            w.bool(ok);
        }
    }

    /// Mirrors [`CircuitBreaker::write_state`].
    pub fn read_state(&mut self, r: &mut SnapReader) -> Result<(), CkptError> {
        self.stats = BreakerStats {
            checks: r.u64()?,
            allowed: r.u64()?,
            quarantined: r.u64()?,
            trips: r.u64()?,
            probes: r.u64()?,
            reopens: r.u64()?,
            closes: r.u64()?,
        };
        self.state = match r.u64()? {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => return Err(CkptError::Corrupt("invalid breaker state")),
        };
        self.open_until = r.u64()?;
        let n = r.len()?;
        if n > self.config.window.max(1) {
            return Err(CkptError::Corrupt("breaker window overflows config"));
        }
        self.window.clear();
        for _ in 0..n {
            self.window.push_back(r.bool()?);
        }
        Ok(())
    }
}

/// Latency-tracking / adaptive-deadline knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA smoothing factor in `(0, 1]`.
    pub alpha: f64,
    /// Samples required before the estimate drives deadlines/hedging.
    pub warmup: u64,
    /// Deadline = `max(floor_ms, ewma * multiplier)`.
    pub multiplier: f64,
    /// Deadline floor in virtual milliseconds.
    pub floor_ms: u64,
    /// Span of the seeded per-endpoint base service latency, in virtual
    /// milliseconds (the simulation has no real wire RTT; latencies are
    /// drawn per stable key, so every backend sees the same ones).
    pub synthetic_span_ms: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            alpha: 0.3,
            warmup: 3,
            multiplier: 4.0,
            floor_ms: 200,
            synthetic_span_ms: 48,
        }
    }
}

/// EWMA latency estimator for one endpoint.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    config: AdaptiveConfig,
    ewma: Option<f64>,
    samples: u64,
}

impl LatencyTracker {
    /// An empty tracker.
    pub fn new(config: AdaptiveConfig) -> LatencyTracker {
        LatencyTracker {
            config,
            ewma: None,
            samples: 0,
        }
    }

    /// Folds one observed latency into the estimate.
    pub fn record(&mut self, latency_ms: u64) {
        let x = latency_ms as f64;
        self.ewma = Some(match self.ewma {
            None => x,
            Some(prev) => self.config.alpha * x + (1.0 - self.config.alpha) * prev,
        });
        self.samples += 1;
    }

    /// Samples folded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current estimate once warmed up.
    pub fn estimate_ms(&self) -> Option<f64> {
        if self.samples >= self.config.warmup.max(1) {
            self.ewma
        } else {
            None
        }
    }

    /// Adaptive retry deadline derived from the estimate.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.estimate_ms()
            .map(|e| ((e * self.config.multiplier).ceil() as u64).max(self.config.floor_ms))
    }

    /// Serializes the mutable state.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.opt(self.ewma.as_ref(), |w, v| w.f64(*v));
        w.u64(self.samples);
    }

    /// Mirrors [`LatencyTracker::write_state`].
    pub fn read_state(&mut self, r: &mut SnapReader) -> Result<(), CkptError> {
        self.ewma = r.opt(|r| r.f64())?;
        self.samples = r.u64()?;
        Ok(())
    }
}

/// Hedged-request knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeConfig {
    /// Master switch.
    pub enabled: bool,
    /// Fraction of tracked endpoints considered "slow" (0.1 = slowest
    /// decile gets hedged).
    pub slow_fraction: f64,
    /// Virtual milliseconds the backup probe launches after the primary.
    pub delay_ms: u64,
    /// Minimum warmed-up endpoints before hedging activates.
    pub min_tracked: usize,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            slow_fraction: 0.1,
            delay_ms: 8,
            min_tracked: 4,
        }
    }
}

/// Top-level health-layer configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthConfig {
    /// Seed for every derived stream (breaker jitter, synthetic
    /// latencies, hedge draws).
    pub seed: u64,
    /// Circuit-breaker knobs.
    pub breaker: BreakerConfig,
    /// Latency-tracking knobs.
    pub adaptive: AdaptiveConfig,
    /// Hedging knobs.
    pub hedge: HedgeConfig,
}

/// Per-endpoint decisions for one sweep, computed before the fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbePlan {
    /// False = quarantined: spend no retry budget this sweep.
    pub admit: bool,
    /// Adaptive deadline to tighten the retry policy with, if warmed up.
    pub deadline_ms: Option<u64>,
    /// Launch a seeded backup probe (slowest-decile endpoint).
    pub hedge: bool,
}

impl ProbePlan {
    /// The plan used when the health layer is disabled.
    pub fn pass() -> ProbePlan {
        ProbePlan {
            admit: true,
            deadline_ms: None,
            hedge: false,
        }
    }
}

/// Per-endpoint outcome of one sweep, reported back after the merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Whether the endpoint was probed at all (false = quarantined).
    pub attempted: bool,
    /// Whether the final outcome was a successful fetch.
    pub success: bool,
    /// Total backoff slept through by the retry loop, virtual ms.
    pub waited_ms: u64,
}

/// Aggregated health-layer counters and gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Breaker counters summed over endpoints.
    pub breaker: BreakerStats,
    /// Hedged probes launched.
    pub hedges: u64,
    /// Hedges whose backup completed before the primary.
    pub hedge_wins: u64,
    /// Breakers currently open.
    pub open_now: u64,
    /// Breakers currently half-open.
    pub half_open_now: u64,
}

impl HealthStats {
    /// Conservation checks: every admission check either allowed or
    /// quarantined; every entry into Open is either still open or has
    /// granted its probe; every probe either resolved (close/reopen) or
    /// is still pending; hedges can only be won if launched.
    pub fn balanced(&self) -> bool {
        let b = &self.breaker;
        b.checks == b.allowed + b.quarantined
            && b.trips + b.reopens == b.probes + self.open_now
            && b.probes == b.closes + b.reopens + self.half_open_now
            && self.hedge_wins <= self.hedges
    }
}

/// Health state for a fixed set of endpoints: one breaker and one
/// latency tracker per endpoint, plus hedge accounting.
///
/// The two-phase API ([`EndpointHealth::plan_sweep`] strictly before a
/// sweep's first probe, [`EndpointHealth::record_sweep`] strictly after
/// its last) keeps decisions independent of probe order: decisions for
/// sweep *N* depend only on state as of the end of sweep *N − 1*.
#[derive(Debug, Clone)]
pub struct EndpointHealth {
    config: HealthConfig,
    breakers: Vec<CircuitBreaker>,
    trackers: Vec<LatencyTracker>,
    /// Per endpoint, the seeded constant its synthetic latencies start
    /// from: slow endpoints stay slow, which is what gives the
    /// slowest-decile hedge set its stability.
    base_latency: Vec<u64>,
    /// `DetRng::seed(seed).derive("lat")`: each successful probe's
    /// service-latency noise derives from it.
    lat: DetRng,
    /// `DetRng::seed(seed).derive("hedge")`: each hedge's backup-latency
    /// noise derives from it.
    hedge: DetRng,
    hedges: u64,
    hedge_wins: u64,
}

impl EndpointHealth {
    /// Fresh health state for `endpoints` endpoints.
    pub fn new(config: HealthConfig, endpoints: usize) -> EndpointHealth {
        let breakers = (0..endpoints)
            .map(|i| CircuitBreaker::new(config.breaker.clone(), config.seed, &format!("ep{i}")))
            .collect();
        let trackers = (0..endpoints)
            .map(|_| LatencyTracker::new(config.adaptive.clone()))
            .collect();
        let root = DetRng::seed(config.seed);
        let span = config.adaptive.synthetic_span_ms.max(1);
        let base = root.derive("lat.base");
        let base_latency = (0..endpoints)
            .map(|i| 1 + base.derive(format_args!("ep{i}")).gen_range(span))
            .collect();
        EndpointHealth {
            lat: root.derive("lat"),
            hedge: root.derive("hedge"),
            config,
            breakers,
            trackers,
            base_latency,
            hedges: 0,
            hedge_wins: 0,
        }
    }

    /// Number of endpoints tracked.
    pub fn endpoints(&self) -> usize {
        self.breakers.len()
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// The breaker for endpoint `i`.
    pub fn breaker(&self, i: usize) -> &CircuitBreaker {
        &self.breakers[i]
    }

    /// Computes the per-endpoint plan for a sweep at time `now`. Must
    /// be called exactly once per sweep, before the fan-out.
    pub fn plan_sweep(&mut self, now: u64) -> Vec<ProbePlan> {
        let cut = self.hedge_threshold();
        (0..self.breakers.len())
            .map(|i| {
                let admit = self.breakers[i].admit(now);
                let hedge = admit
                    && cut.is_some_and(|cut| {
                        self.trackers[i].estimate_ms().is_some_and(|e| e >= cut)
                    });
                ProbePlan {
                    admit,
                    deadline_ms: self.trackers[i].deadline_ms(),
                    hedge,
                }
            })
            .collect()
    }

    /// EWMA value above which an endpoint sits in the slowest
    /// `slow_fraction` of warmed-up endpoints.
    fn hedge_threshold(&self) -> Option<f64> {
        if !self.config.hedge.enabled {
            return None;
        }
        let mut estimates: Vec<f64> = self
            .trackers
            .iter()
            .filter_map(|t| t.estimate_ms())
            .collect();
        if estimates.len() < self.config.hedge.min_tracked.max(1) {
            return None;
        }
        estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ix = ((estimates.len() - 1) as f64 * (1.0 - self.config.hedge.slow_fraction)).ceil()
            as usize;
        Some(estimates[ix.min(estimates.len() - 1)])
    }

    /// Folds the sweep's outcomes back into breakers and trackers. Must
    /// be called exactly once per sweep, after the merge, with the same
    /// `now` and the plans returned by [`EndpointHealth::plan_sweep`].
    ///
    /// A hedge is a duplicate of the primary probe under the same
    /// `(endpoint, now)` sequence key, so it returns the identical
    /// payload and can only improve *latency*: the winner is whichever
    /// of primary and `delay + backup` completes first, and only that
    /// winning latency feeds the tracker.
    pub fn record_sweep(&mut self, now: u64, plans: &[ProbePlan], outcomes: &[ProbeOutcome]) {
        debug_assert_eq!(plans.len(), self.breakers.len());
        debug_assert_eq!(outcomes.len(), self.breakers.len());
        for (i, o) in outcomes.iter().enumerate().take(self.breakers.len()) {
            if !o.attempted {
                continue;
            }
            self.breakers[i].record(now, o.success);
            if !o.success {
                continue;
            }
            let primary = self.service_latency(i, now) + o.waited_ms;
            let total = if plans.get(i).is_some_and(|p| p.hedge) {
                self.hedges += 1;
                let backup = self.config.hedge.delay_ms + self.hedge_latency(i, now);
                if backup < primary {
                    self.hedge_wins += 1;
                    backup
                } else {
                    primary
                }
            } else {
                primary
            };
            self.trackers[i].record(total);
        }
    }

    /// Endpoint `i`'s synthetic service latency at `now`: its base plus
    /// noise from the `lat` stream keyed on `(i, now)`.
    fn service_latency(&self, i: usize, now: u64) -> u64 {
        self.latency(&self.lat, i, now)
    }

    /// The latency of a hedge's backup probe to endpoint `i` at `now`:
    /// the same base, with noise from the `hedge` stream.
    fn hedge_latency(&self, i: usize, now: u64) -> u64 {
        self.latency(&self.hedge, i, now)
    }

    fn latency(&self, root: &DetRng, i: usize, now: u64) -> u64 {
        let noise = self.config.adaptive.synthetic_span_ms / 4 + 1;
        self.base_latency[i] + root.derive(format_args!("ep{i}.{now}")).gen_range(noise)
    }

    /// Aggregated counters and state gauges.
    pub fn stats(&self) -> HealthStats {
        let mut agg = BreakerStats::default();
        let mut open_now = 0;
        let mut half_open_now = 0;
        for b in &self.breakers {
            agg.absorb(b.stats());
            match b.state() {
                BreakerState::Open => open_now += 1,
                BreakerState::HalfOpen => half_open_now += 1,
                BreakerState::Closed => {}
            }
        }
        HealthStats {
            breaker: agg,
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            open_now,
            half_open_now,
        }
    }

    /// Serializes all mutable state (breakers, trackers, hedge tallies).
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.len(self.breakers.len());
        for b in &self.breakers {
            b.write_state(w);
        }
        for t in &self.trackers {
            t.write_state(w);
        }
        w.u64(self.hedges);
        w.u64(self.hedge_wins);
    }

    /// Mirrors [`EndpointHealth::write_state`]; the receiver must have
    /// been constructed with the same configuration and endpoint count.
    pub fn read_state(&mut self, r: &mut SnapReader) -> Result<(), CkptError> {
        if r.len()? != self.breakers.len() {
            return Err(CkptError::Corrupt("health endpoint count mismatch"));
        }
        for b in &mut self.breakers {
            b.read_state(r)?;
        }
        for t in &mut self.trackers {
            t.read_state(r)?;
        }
        self.hedges = r.u64()?;
        self.hedge_wins = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn health_switch_takes_0_or_1_and_rejects_the_rest() {
        let health = |v: Option<&str>| parse_health(|_| v.map(String::from));
        assert_eq!(health(None), Ok(false));
        assert_eq!(health(Some("0")), Ok(false));
        assert_eq!(health(Some(" 1 ")), Ok(true));
        for bad in ["yes", "true", "2", ""] {
            let err = health(Some(bad)).expect_err(bad);
            assert!(err.contains(HEALTH_ENV), "{err}");
        }
    }

    fn fast_breaker() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            min_samples: 4,
            failure_threshold: 0.5,
            open_for: 100,
            probe_jitter: 0,
        }
    }

    #[test]
    fn breaker_trips_quarantines_and_probes_on_schedule() {
        let mut b = CircuitBreaker::new(fast_breaker(), 7, "ep0");
        for now in 0..4 {
            assert!(b.admit(now));
            b.record(now, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        // Quarantined until the open window elapses.
        assert!(!b.admit(50));
        assert!(!b.admit(102)); // opened at now=3 → until 103
        assert_eq!(b.stats().quarantined, 2);
        // Probe granted, failure reopens.
        assert!(b.admit(103));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(103, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().reopens, 1);
        // Next probe succeeds and closes.
        assert!(b.admit(203));
        b.record(203, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().closes, 1);
        assert_eq!(b.stats().probes, 2);
    }

    #[test]
    fn breaker_needs_min_samples_and_failure_fraction() {
        let mut b = CircuitBreaker::new(fast_breaker(), 7, "ep0");
        // Three failures: below min_samples, no trip.
        for now in 0..3 {
            b.admit(now);
            b.record(now, false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // A success dilutes below the 0.5 threshold… window is now
        // [f f f t] → 3/4 ≥ 0.5 would trip on a *failure*, but a
        // success never trips.
        b.admit(3);
        b.record(3, true);
        assert_eq!(b.state(), BreakerState::Closed);
        // Mostly-healthy windows never trip.
        let mut healthy = CircuitBreaker::new(fast_breaker(), 7, "ep1");
        for now in 0..100 {
            healthy.admit(now);
            healthy.record(now, now % 4 == 0); // 1 success per 3 failures? no: mostly fail
        }
        // (3 failures per success ≥ 0.5 window fraction → trips.)
        assert_ne!(healthy.stats().trips, 0);
        let mut good = CircuitBreaker::new(fast_breaker(), 7, "ep2");
        for now in 0..100 {
            good.admit(now);
            good.record(now, now % 4 != 0); // 1 failure per 3 successes
        }
        assert_eq!(good.stats().trips, 0);
    }

    #[test]
    fn probe_jitter_is_deterministic_and_key_sensitive() {
        let cfg = BreakerConfig {
            probe_jitter: 50,
            ..fast_breaker()
        };
        let run = |key: &str| {
            let mut b = CircuitBreaker::new(cfg.clone(), 9, key);
            for now in 0..4 {
                b.admit(now);
                b.record(now, false);
            }
            let mut first_probe = 0;
            for now in 4..400 {
                if b.admit(now) {
                    first_probe = now;
                    break;
                }
            }
            first_probe
        };
        assert_eq!(run("ep0"), run("ep0"));
        // 50 units of jitter across distinct keys: overwhelmingly
        // likely to differ (checked deterministic here).
        assert_ne!(run("ep0"), run("ep1"));
    }

    #[test]
    fn quarantine_spends_at_most_one_probe_per_open_window() {
        // A permanently dead endpoint over many sweeps: attempts are
        // bounded by the initial window fill plus one probe per open
        // interval — the acceptance bound for the poller.
        let cfg = fast_breaker(); // open_for 100, jitter 0
        let mut b = CircuitBreaker::new(cfg, 11, "dead");
        let mut attempts = 0u64;
        for now in 0..1000 {
            if b.admit(now) {
                attempts += 1;
                b.record(now, false);
            }
        }
        // 4 to trip, then ~1 probe per 100-unit window.
        assert!(attempts <= 4 + 1000 / 100 + 1, "attempts {attempts}");
        let s = b.stats();
        assert_eq!(s.checks, 1000);
        assert_eq!(s.allowed, attempts);
        assert_eq!(s.quarantined, 1000 - attempts);
    }

    #[test]
    fn tracker_warms_up_and_floors_deadlines() {
        let cfg = AdaptiveConfig {
            alpha: 0.5,
            warmup: 3,
            multiplier: 4.0,
            floor_ms: 100,
            synthetic_span_ms: 48,
        };
        let mut t = LatencyTracker::new(cfg);
        t.record(10);
        t.record(10);
        assert_eq!(t.deadline_ms(), None); // warming up
        t.record(10);
        assert_eq!(t.deadline_ms(), Some(100)); // 40 < floor
        for _ in 0..20 {
            t.record(1000);
        }
        let d = t.deadline_ms().unwrap();
        assert!(d > 3000 && d <= 4000, "deadline {d}");
    }

    #[test]
    fn plan_is_deterministic_and_snapshot_restores_it() {
        let cfg = HealthConfig::default();
        let mut a = EndpointHealth::new(cfg.clone(), 8);
        let mut b = EndpointHealth::new(cfg.clone(), 8);
        // Endpoint 3 dead, others healthy, for enough sweeps to trip
        // and warm up.
        for sweep in 0..40u64 {
            let now = sweep * 10;
            let plans_a = a.plan_sweep(now);
            let plans_b = b.plan_sweep(now);
            assert_eq!(plans_a, plans_b, "sweep {sweep}");
            let outcomes: Vec<ProbeOutcome> = plans_a
                .iter()
                .enumerate()
                .map(|(i, p)| ProbeOutcome {
                    attempted: p.admit,
                    success: p.admit && i != 3,
                    waited_ms: if i == 5 { 70 } else { 0 },
                })
                .collect();
            a.record_sweep(now, &plans_a, &outcomes);
            b.record_sweep(now, &plans_b, &outcomes);
        }
        assert!(a.stats().balanced(), "{:?}", a.stats());
        assert_ne!(a.stats().breaker.trips, 0);
        assert_ne!(a.stats().breaker.quarantined, 0);
        // Snapshot → restore into a fresh instance → identical future.
        let mut w = SnapWriter::new();
        a.write_state(&mut w);
        let payload = w.finish();
        let mut restored = EndpointHealth::new(cfg, 8);
        let mut r = SnapReader::new(&payload);
        restored.read_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.stats(), a.stats());
        for sweep in 40..60u64 {
            let now = sweep * 10;
            let pa = a.plan_sweep(now);
            let pr = restored.plan_sweep(now);
            assert_eq!(pa, pr, "sweep {sweep} after restore");
            let outcomes: Vec<ProbeOutcome> = pa
                .iter()
                .map(|p| ProbeOutcome {
                    attempted: p.admit,
                    success: p.admit,
                    waited_ms: 0,
                })
                .collect();
            a.record_sweep(now, &pa, &outcomes);
            restored.record_sweep(now, &pr, &outcomes);
        }
        assert_eq!(restored.stats(), a.stats());
    }

    #[test]
    fn hedging_targets_the_slow_decile_and_only_wins() {
        let cfg = HealthConfig {
            adaptive: AdaptiveConfig {
                warmup: 1,
                ..AdaptiveConfig::default()
            },
            hedge: HedgeConfig {
                min_tracked: 4,
                ..HedgeConfig::default()
            },
            ..HealthConfig::default()
        };
        let mut h = EndpointHealth::new(cfg.clone(), 16);
        for sweep in 0..30u64 {
            let now = sweep;
            let plans = h.plan_sweep(now);
            let outcomes: Vec<ProbeOutcome> = plans
                .iter()
                .map(|p| ProbeOutcome {
                    attempted: p.admit,
                    success: true,
                    // Endpoint 2 pays heavy backoffs → lands in the
                    // slow decile once warmed up.
                    waited_ms: 0,
                })
                .collect();
            let mut outcomes = outcomes;
            outcomes[2].waited_ms = 500;
            h.record_sweep(now, &plans, &outcomes);
        }
        let final_plans = h.plan_sweep(30);
        assert!(final_plans[2].hedge, "slowest endpoint must be hedged");
        let hedged = final_plans.iter().filter(|p| p.hedge).count();
        assert!(hedged < 16, "hedging must not cover every endpoint");
        let s = h.stats();
        assert!(s.hedges > 0);
        assert!(s.hedge_wins <= s.hedges);
        assert!(s.balanced());
        // Disabled hedging: same admissions, zero hedges.
        let mut off = EndpointHealth::new(
            HealthConfig {
                hedge: HedgeConfig {
                    enabled: false,
                    ..cfg.hedge.clone()
                },
                ..cfg
            },
            16,
        );
        for sweep in 0..30u64 {
            let plans = off.plan_sweep(sweep);
            assert!(plans.iter().all(|p| !p.hedge));
            let outcomes: Vec<ProbeOutcome> = plans
                .iter()
                .map(|p| ProbeOutcome {
                    attempted: p.admit,
                    success: true,
                    waited_ms: 0,
                })
                .collect();
            off.record_sweep(sweep, &plans, &outcomes);
        }
        assert_eq!(off.stats().hedges, 0);
    }

    /// Reference latency: derives the base and the noise stream from the
    /// seed on every call, as the layer once did per probe.
    fn latency_rederiving(config: &HealthConfig, stream: &str, i: usize, now: u64) -> u64 {
        let span = config.adaptive.synthetic_span_ms.max(1);
        let noise = config.adaptive.synthetic_span_ms / 4 + 1;
        let base = 1 + DetRng::seed(config.seed)
            .derive("lat.base")
            .derive(format_args!("ep{i}"))
            .gen_range(span);
        base + DetRng::seed(config.seed)
            .derive(stream)
            .derive(format_args!("ep{i}.{now}"))
            .gen_range(noise)
    }

    #[test]
    fn cached_latencies_match_the_rederiving_construction() {
        for seed in [0, 5, 2018, u64::MAX] {
            for span in [0, 1, 48, 1_000] {
                let config = HealthConfig {
                    seed,
                    adaptive: AdaptiveConfig {
                        synthetic_span_ms: span,
                        ..AdaptiveConfig::default()
                    },
                    ..HealthConfig::default()
                };
                let h = EndpointHealth::new(config.clone(), 32);
                for i in 0..32 {
                    for now in (0..2_000).step_by(37).chain([1_524_700_815, u64::MAX]) {
                        let ctx = format!("seed {seed} span {span} ep {i} now {now}");
                        assert_eq!(
                            h.service_latency(i, now),
                            latency_rederiving(&config, "lat", i, now),
                            "{ctx}"
                        );
                        assert_eq!(
                            h.hedge_latency(i, now),
                            latency_rederiving(&config, "hedge", i, now),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn health_accounting_is_balanced_under_any_outcome_schedule(
            seed in 0u64..1000,
            sweeps in 1usize..60,
            endpoints in 1usize..12,
            fail_prob in 0.0f64..1.0,
        ) {
            let cfg = HealthConfig {
                seed,
                breaker: BreakerConfig { open_for: 30, probe_jitter: 10, ..BreakerConfig::default() },
                ..HealthConfig::default()
            };
            let mut h = EndpointHealth::new(cfg, endpoints);
            let mut rng = DetRng::seed(seed).derive("outcomes");
            for sweep in 0..sweeps {
                let now = sweep as u64 * 7;
                let plans = h.plan_sweep(now);
                let outcomes: Vec<ProbeOutcome> = plans.iter().map(|p| ProbeOutcome {
                    attempted: p.admit,
                    success: p.admit && !rng.chance(fail_prob),
                    waited_ms: rng.gen_range(200),
                }).collect();
                h.record_sweep(now, &plans, &outcomes);
                prop_assert!(h.stats().balanced(), "sweep {sweep}: {:?}", h.stats());
            }
            let s = h.stats();
            prop_assert_eq!(s.breaker.checks, (sweeps * endpoints) as u64);
        }
    }
}
