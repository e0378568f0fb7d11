//! The endpoint observer.
//!
//! The paper requests a new PoW input from every Coinhive endpoint every
//! 500 ms. Our pool's blobs change only when a backend refreshes its
//! template (every 15 s), so the default poll interval
//! matches that granularity — polling faster only re-reads identical
//! blobs. The pool answers every poll of one template version, on either
//! endpoint of its backend, with one shared [`Arc<Job>`], and the
//! observer keeps the jobs it recorded into the current cluster: a
//! re-read of one of them costs pointer compares, not a decode. The
//! observer reverts the XOR obfuscation (which the paper had to discover
//! first) before parsing.
//!
//! The observer is written against [`JobSource`] so the transport can
//! fail: each endpoint gets a per-sweep retry budget (deterministic
//! backoff jitter, reconnect on teardown), and an endpoint that
//! exhausts it is marked down for the sweep — a counted observation
//! gap, never silent data loss.

use minedig_chain::blob::HashingBlob;
use minedig_net::transport::{Transport, TransportError};
use minedig_pool::obfuscation;
use minedig_pool::pool::{JobError, Pool};
use minedig_pool::protocol::{ClientMsg, Job, ServerMsg};
use minedig_primitives::ckpt::{CkptError, SnapReader, SnapWriter};
use minedig_primitives::fault::{Fault, FaultPlan};
use minedig_primitives::health::{
    EndpointHealth, HealthConfig, HealthStats, ProbeOutcome, ProbePlan,
};
use minedig_primitives::retry::{retry, ErrorClass, RetryPolicy, Retryable};
use minedig_primitives::rng::DetRng;
use minedig_primitives::Hash32;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a single job fetch failed.
///
/// Semantic refusals come from the pool itself and retrying within the
/// same sweep cannot change them; transport failures are artifacts of
/// the path to the pool and are worth retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchError {
    /// The pool reported itself offline (a real outage — §4.2's 6–7 May
    /// disruption). Semantic; never retried within a sweep.
    Offline,
    /// The pool refused for another semantic reason (no tip announced
    /// yet, bad endpoint index). Semantic; never retried.
    Refused,
    /// The request or its response timed out. Transport; transient.
    Timeout,
    /// The connection was torn down mid-request. Transport; transient
    /// after a reconnect.
    Closed,
    /// The response arrived corrupted. Transport; transient.
    Garbled,
    /// The server shed the request under load. Transient. No source
    /// returns it, as the pool protocol has no shed reply: it stays only
    /// while the end-to-end benchmark's `attribute` composition
    /// (`e2ebench/src/attribute.rs`) still matches it, and goes with the
    /// endpoint-health layer (ROADMAP.md).
    Shed,
}

impl Retryable for FetchError {
    fn error_class(&self) -> ErrorClass {
        match self {
            FetchError::Offline | FetchError::Refused => ErrorClass::Permanent,
            FetchError::Timeout | FetchError::Closed | FetchError::Garbled | FetchError::Shed => {
                ErrorClass::Transient
            }
        }
    }
}

/// Something the observer can request PoW jobs from.
///
/// The real pool implements this infallibly at the transport level;
/// [`FaultyJobSource`] decorates any source with a seeded fault
/// schedule for chaos testing.
pub trait JobSource: Sync {
    /// Number of pollable endpoints.
    fn endpoint_count(&self) -> usize;
    /// Requests the current job from `endpoint` at virtual time `now`.
    /// `attempt` is the zero-based retry index within the sweep, which
    /// fault schedules key on. A source that answers with one shared job
    /// wherever the answer is the same spares the observer decoding it
    /// again.
    fn fetch_job(&self, endpoint: usize, now: u64, attempt: u32) -> Result<Arc<Job>, FetchError>;
    /// Re-establishes a torn-down connection to `endpoint`. Returns
    /// whether a reconnect actually happened (the default source has no
    /// connection state and returns `false`).
    fn reconnect(&self, endpoint: usize) -> bool {
        let _ = endpoint;
        false
    }
}

impl JobSource for Pool {
    fn endpoint_count(&self) -> usize {
        Pool::endpoint_count(self)
    }

    fn fetch_job(&self, endpoint: usize, now: u64, _attempt: u32) -> Result<Arc<Job>, FetchError> {
        self.peek_job(endpoint, now).map_err(|e| match e {
            JobError::Offline => FetchError::Offline,
            _ => FetchError::Refused,
        })
    }
}

/// A [`JobSource`] decorator injecting deterministic transport faults.
///
/// Faults are keyed by `(endpoint, now)`, so a schedule is a pure
/// function of the plan seed and the sweep times — invariant under the
/// backend and under interleaving with other endpoints. A
/// [`Fault::Disconnect`] marks the endpoint's connection down; every
/// subsequent fetch fails with [`FetchError::Closed`] until
/// [`JobSource::reconnect`] is called.
pub struct FaultyJobSource<S: JobSource> {
    inner: S,
    plan: FaultPlan,
    down: Vec<AtomicBool>,
}

impl<S: JobSource> FaultyJobSource<S> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyJobSource<S> {
        let endpoints = inner.endpoint_count();
        FaultyJobSource {
            inner,
            plan,
            down: (0..endpoints).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

impl<S: JobSource> JobSource for FaultyJobSource<S> {
    fn endpoint_count(&self) -> usize {
        self.inner.endpoint_count()
    }

    fn fetch_job(&self, endpoint: usize, now: u64, attempt: u32) -> Result<Arc<Job>, FetchError> {
        if self.down[endpoint].load(Ordering::Acquire) {
            return Err(FetchError::Closed);
        }
        match self
            .plan
            .decide(format_args!("poll.{endpoint}.{now}"), attempt)
        {
            None => self.inner.fetch_job(endpoint, now, attempt),
            // Latency alone does not change the observed job.
            Some(Fault::Delay) => self.inner.fetch_job(endpoint, now, attempt),
            Some(Fault::Drop) | Some(Fault::Stall) => Err(FetchError::Timeout),
            Some(Fault::Disconnect) => {
                self.down[endpoint].store(true, Ordering::Release);
                Err(FetchError::Closed)
            }
            Some(Fault::Garble) => Err(FetchError::Garbled),
        }
    }

    fn reconnect(&self, endpoint: usize) -> bool {
        self.down[endpoint].swap(false, Ordering::AcqRel)
    }
}

/// A [`JobSource`] speaking the pool's wire protocol over real
/// transports: one connection per endpoint, each fetch a
/// [`ClientMsg::Peek`] request/reply exchange.
///
/// Any transport error tears the endpoint's connection down (a stray
/// late reply would desynchronise the request/reply pairing), mapping to
/// a transient [`FetchError`] so the observer's retry loop redials via
/// [`JobSource::reconnect`]. Semantic pool errors leave the connection
/// up and classify exactly like the in-process source: a reason
/// mentioning "offline" is an outage, anything else a refusal.
pub struct WireJobSource<T: Transport> {
    endpoints: Vec<Mutex<Option<T>>>,
    connect: Box<dyn Fn(usize) -> Option<T> + Send + Sync>,
    reply_timeout: Duration,
}

fn map_transport(e: TransportError) -> FetchError {
    match e {
        TransportError::Timeout => FetchError::Timeout,
        _ => FetchError::Closed,
    }
}

impl<T: Transport> WireJobSource<T> {
    /// Dials all `endpoints` connections eagerly via `connect` (failed
    /// dials start as down; the first sweep's retry loop redials them).
    /// Blocking fetches wait up to `reply_timeout` for each reply.
    pub fn new(
        endpoints: usize,
        reply_timeout: Duration,
        connect: impl Fn(usize) -> Option<T> + Send + Sync + 'static,
    ) -> WireJobSource<T> {
        let slots = (0..endpoints).map(|e| Mutex::new(connect(e))).collect();
        WireJobSource {
            endpoints: slots,
            connect: Box::new(connect),
            reply_timeout,
        }
    }

    /// Parses one reply frame; tears down on anything undecodable.
    fn classify_reply(slot: &mut Option<T>, raw: &[u8]) -> Result<Arc<Job>, FetchError> {
        match ServerMsg::decode(raw) {
            Ok(ServerMsg::Job(job)) => Ok(Arc::new(job)),
            Ok(ServerMsg::Error { reason }) => {
                if reason.contains("offline") {
                    Err(FetchError::Offline)
                } else {
                    Err(FetchError::Refused)
                }
            }
            Ok(_) | Err(_) => {
                *slot = None;
                Err(FetchError::Garbled)
            }
        }
    }
}

impl<T: Transport> JobSource for WireJobSource<T> {
    fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    fn fetch_job(&self, endpoint: usize, now: u64, _attempt: u32) -> Result<Arc<Job>, FetchError> {
        let mut slot = self.endpoints[endpoint].lock();
        let Some(t) = slot.as_mut() else {
            return Err(FetchError::Closed);
        };
        let msg = ClientMsg::Peek {
            endpoint: endpoint as u64,
            now,
        };
        if let Err(e) = t.send(&msg.encode()) {
            *slot = None;
            return Err(map_transport(e));
        }
        match t.recv_timeout(self.reply_timeout) {
            Ok(raw) => Self::classify_reply(&mut slot, &raw),
            Err(e) => {
                *slot = None;
                Err(map_transport(e))
            }
        }
    }

    fn reconnect(&self, endpoint: usize) -> bool {
        let mut slot = self.endpoints[endpoint].lock();
        if slot.is_some() {
            return false;
        }
        match (self.connect)(endpoint) {
            Some(t) => {
                *slot = Some(t);
                true
            }
            None => false,
        }
    }
}

/// How the observer retries failed fetches within a sweep.
#[derive(Debug, Clone, Default)]
pub struct PollPolicy {
    /// Retry policy applied per endpoint per sweep.
    pub retry: RetryPolicy,
    /// Seed for the per-endpoint backoff jitter streams.
    pub jitter_seed: u64,
}

impl PollPolicy {
    /// A policy sized to outlast every transient fault of `plan`, making
    /// a sweep provably fault-free-equivalent when nothing is permanent.
    pub fn outlasting(plan: &FaultPlan) -> PollPolicy {
        PollPolicy {
            retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            jitter_seed: plan.seed(),
        }
    }
}

/// Statistics the observer keeps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PollStats {
    /// Total poll requests issued.
    pub polls: u64,
    /// Polls answered with a job.
    pub answered: u64,
    /// Polls refused because the pool was offline (outages).
    pub offline: u64,
    /// Polls refused for any other reason (no tip announced yet, bad
    /// endpoint index). Previously these were silently dropped, making
    /// "no data because the chain hasn't started" indistinguishable from
    /// "no data because the pool was down".
    pub other_errors: u64,
    /// Blobs that failed to parse after de-obfuscation.
    pub parse_failures: u64,
    /// Endpoints whose transport faults exhausted the retry policy in
    /// some sweep — marked down for that sweep, an observation gap. If
    /// every endpoint stays down across a whole height, the attributor
    /// judges that block with no cluster and its `gaps` counter grows.
    pub endpoints_down: u64,
    /// Fetch retries spent across all sweeps.
    pub retries: u64,
    /// Reconnects performed after torn-down connections.
    pub reconnects: u64,
    /// Polls skipped because the endpoint's circuit breaker was open —
    /// a counted observation gap that cost no retry budget. Zero unless
    /// the health layer is enabled *and* endpoints failed enough to
    /// trip, so fault-free runs are unaffected either way.
    pub quarantined: u64,
    /// Shed replies received. Always 0: no source sheds. It stays only
    /// while the end-to-end benchmark's `attribute` composition prints it
    /// and §4.2 snapshots carry it, and goes with the endpoint-health
    /// layer (ROADMAP.md).
    pub sheds: u64,
    /// Maximum distinct blobs observed for a single prev pointer.
    pub max_blobs_per_prev: usize,
}

impl PollStats {
    /// Every poll lands in exactly one outcome counter.
    pub fn balanced(&self) -> bool {
        self.polls
            == self.answered
                + self.offline
                + self.other_errors
                + self.endpoints_down
                + self.quarantined
    }
}

/// The observer: polls all endpoints and maintains the *current* cluster
/// of distinct Merkle roots per previous-block pointer.
pub struct Observer<S: JobSource = Pool> {
    source: S,
    deobfuscate: bool,
    policy: PollPolicy,
    /// Roots collected for the currently-observed prev pointer.
    current_prev: Option<Hash32>,
    current_roots: BTreeSet<Hash32>,
    /// Distinct serialized blobs for the current prev (diagnostics — the
    /// paper's "at most 128 different PoW inputs per block").
    current_blobs: BTreeSet<Vec<u8>>,
    /// The jobs whose blobs were recorded into the current cluster, one
    /// per distinct blob, matched by [`Arc::ptr_eq`]. A job any endpoint
    /// already recorded would record nothing new, so it skips the
    /// decode, the XOR, the parse and the set inserts. Holding the
    /// `Arc`s keeps each address from being reused while it is
    /// remembered. Cleared whenever `current_prev` changes and never
    /// snapshotted: the blobs of a restored cluster are decoded again
    /// whenever polled, until the cluster moves on.
    recorded: Vec<Arc<Job>>,
    stats: PollStats,
    /// Optional endpoint-health layer: circuit breakers, adaptive
    /// deadlines, and hedge planning. `None` reproduces the pre-health
    /// observer exactly.
    health: Option<EndpointHealth>,
}

impl Observer<Pool> {
    /// Creates an observer for a pool. `deobfuscate` should be true once
    /// the XOR countermeasure is known (the paper's final tooling).
    pub fn new(pool: Pool, deobfuscate: bool) -> Observer<Pool> {
        Observer::with_source(pool, deobfuscate, PollPolicy::default())
    }
}

impl<S: JobSource> Observer<S> {
    /// Creates an observer over any [`JobSource`] with an explicit retry
    /// policy — the entry point for fault-injected runs.
    pub fn with_source(source: S, deobfuscate: bool, policy: PollPolicy) -> Observer<S> {
        Observer {
            source,
            deobfuscate,
            policy,
            current_prev: None,
            current_roots: BTreeSet::new(),
            current_blobs: BTreeSet::new(),
            recorded: Vec::new(),
            stats: PollStats::default(),
            health: None,
        }
    }

    /// Enables the endpoint-health layer (circuit breakers, adaptive
    /// deadlines, hedged probes) with the given configuration. Must be
    /// called before the first sweep; a restored campaign must enable it
    /// with the same configuration it ran with.
    pub fn with_health(mut self, config: HealthConfig) -> Observer<S> {
        let endpoints = self.source.endpoint_count();
        self.health = Some(EndpointHealth::new(config, endpoints));
        self
    }

    /// The health layer, when enabled.
    pub fn health(&self) -> Option<&EndpointHealth> {
        self.health.as_ref()
    }

    /// Aggregated health-layer counters, when enabled.
    pub fn health_stats(&self) -> Option<HealthStats> {
        self.health.as_ref().map(EndpointHealth::stats)
    }

    /// The underlying job source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Polls every endpoint once at virtual time `now`, in endpoint
    /// order. With the health layer on, its plans are made before the
    /// sweep's first fetch and its state advances after the last.
    pub fn poll_all(&mut self, now: u64) {
        let Some(plans) = self.health.as_mut().map(|h| h.plan_sweep(now)) else {
            for endpoint in 0..self.source.endpoint_count() {
                self.poll_endpoint(endpoint, now, ProbePlan::pass());
            }
            return;
        };
        let outcomes: Vec<ProbeOutcome> = plans
            .iter()
            .enumerate()
            .map(|(endpoint, plan)| self.poll_endpoint(endpoint, now, *plan))
            .collect();
        if let Some(h) = self.health.as_mut() {
            h.record_sweep(now, &plans, &outcomes);
        }
    }

    /// Polls one endpoint at virtual time `now` under its health `plan`,
    /// retrying per the policy: counts the outcome into the stats and
    /// records a parsed blob. Returns the probe outcome for the health
    /// layer.
    fn poll_endpoint(&mut self, endpoint: usize, now: u64, plan: ProbePlan) -> ProbeOutcome {
        self.stats.polls += 1;
        if !plan.admit {
            // Quarantined by the circuit breaker: no request, no rng
            // draws, no retry budget — a counted gap.
            self.stats.quarantined += 1;
            return ProbeOutcome::default();
        }
        let retry_policy = match plan.deadline_ms {
            Some(d) => self.policy.retry.tightened(d),
            None => self.policy.retry.clone(),
        };
        let (source, stats, seed) = (&self.source, &mut self.stats, self.policy.jitter_seed);
        let jitter = || DetRng::seed(seed).derive(format_args!("poll.jitter.{endpoint}.{now}"));
        let outcome = retry(&retry_policy, jitter, |attempt| {
            let r = source.fetch_job(endpoint, now, attempt);
            // Reconnect eagerly on every teardown, even a final one, so
            // the next sweep starts on a fresh connection.
            if matches!(r, Err(FetchError::Closed)) && source.reconnect(endpoint) {
                stats.reconnects += 1;
            }
            r
        });
        self.stats.retries += u64::from(outcome.retries());
        let probe = ProbeOutcome {
            attempted: true,
            success: outcome.result.is_ok(),
            waited_ms: outcome.waited_ms,
        };
        match outcome.result {
            Err(e) => match e {
                FetchError::Offline => self.stats.offline += 1,
                FetchError::Refused | FetchError::Shed => self.stats.other_errors += 1,
                // The transport never recovered within the policy: the
                // endpoint is down for this sweep.
                FetchError::Timeout | FetchError::Closed | FetchError::Garbled => {
                    self.stats.endpoints_down += 1
                }
            },
            Ok(job) => {
                self.stats.answered += 1;
                if self.recorded.iter().rev().any(|r| Arc::ptr_eq(r, &job)) {
                    return probe;
                }
                let Ok(mut bytes) = job.blob_bytes() else {
                    self.stats.parse_failures += 1;
                    return probe;
                };
                if self.deobfuscate {
                    obfuscation::xor_blob(&mut bytes);
                }
                match HashingBlob::parse(&bytes) {
                    Err(_) => self.stats.parse_failures += 1,
                    Ok(blob) => {
                        if self.record(bytes, blob) {
                            self.recorded.push(job);
                        }
                    }
                }
            }
        }
        probe
    }

    /// Records a parsed blob into its prev pointer's cluster, moving the
    /// observer there first if needed. Returns whether the blob was new
    /// to the cluster.
    fn record(&mut self, bytes: Vec<u8>, blob: HashingBlob) -> bool {
        if self.current_prev != Some(blob.prev_id) {
            // New height: the driver is expected to have consumed the old
            // cluster via `take_cluster` when the block appeared; if not
            // (e.g. missed block), reset.
            self.set_current_prev(Some(blob.prev_id));
            self.current_roots.clear();
            self.current_blobs.clear();
        }
        self.current_roots.insert(blob.merkle_root);
        let new = self.current_blobs.insert(bytes);
        self.stats.max_blobs_per_prev = self.stats.max_blobs_per_prev.max(self.current_blobs.len());
        new
    }

    /// Moves the observer to another cluster; the jobs recorded so far
    /// belong to the old one.
    fn set_current_prev(&mut self, prev: Option<Hash32>) {
        self.current_prev = prev;
        self.recorded.clear();
    }

    /// The prev pointer currently being observed.
    pub fn current_prev(&self) -> Option<Hash32> {
        self.current_prev
    }

    /// Number of distinct blobs observed for the current prev.
    pub fn current_blob_count(&self) -> usize {
        self.current_blobs.len()
    }

    /// Takes the cluster for `prev` if it is the one being observed —
    /// called by the attribution driver when a block referencing `prev`
    /// is accepted.
    pub fn take_cluster(&mut self, prev: &Hash32) -> Option<BTreeSet<Hash32>> {
        if self.current_prev == Some(*prev) {
            self.set_current_prev(None);
            self.current_blobs.clear();
            Some(std::mem::take(&mut self.current_roots))
        } else {
            None
        }
    }

    /// Poll statistics.
    pub fn stats(&self) -> &PollStats {
        &self.stats
    }

    /// Appends the observer's complete cross-sweep state to a snapshot
    /// payload: [`PollStats`], the current prev pointer with its root
    /// and blob clusters, and the health layer's state. The §4.2
    /// scenario campaign checkpoints through this. No connection state
    /// is written: a poll reconnects after every teardown, so between
    /// sweeps [`FaultyJobSource`] has every connection up.
    pub fn write_state(&self, w: &mut SnapWriter) {
        let s = &self.stats;
        w.u64(s.polls);
        w.u64(s.answered);
        w.u64(s.offline);
        w.u64(s.other_errors);
        w.u64(s.parse_failures);
        w.u64(s.endpoints_down);
        w.u64(s.retries);
        w.u64(s.reconnects);
        w.u64(s.quarantined);
        w.u64(s.sheds);
        w.len(s.max_blobs_per_prev);
        w.opt(self.current_prev.as_ref(), |w, h| w.hash(h));
        w.len(self.current_roots.len());
        for root in &self.current_roots {
            w.hash(root);
        }
        w.len(self.current_blobs.len());
        for blob in &self.current_blobs {
            w.bytes(blob);
        }
        // The health layer's breaker/tracker state is cross-sweep state:
        // a resumed campaign that dropped it would re-spend retry budget
        // a quarantine had already saved.
        w.bool(self.health.is_some());
        if let Some(h) = &self.health {
            h.write_state(w);
        }
    }

    /// Restores state written by [`write_state`](Observer::write_state)
    /// onto a freshly-initialized observer.
    pub fn read_state(&mut self, r: &mut SnapReader) -> Result<(), CkptError> {
        let stats = PollStats {
            polls: r.u64()?,
            answered: r.u64()?,
            offline: r.u64()?,
            other_errors: r.u64()?,
            parse_failures: r.u64()?,
            endpoints_down: r.u64()?,
            retries: r.u64()?,
            reconnects: r.u64()?,
            quarantined: r.u64()?,
            sheds: r.u64()?,
            max_blobs_per_prev: r.len()?,
        };
        let current_prev = r.opt(|r| r.hash())?;
        let n = r.len()?;
        let mut current_roots = BTreeSet::new();
        for _ in 0..n {
            current_roots.insert(r.hash()?);
        }
        let n = r.len()?;
        let mut current_blobs = BTreeSet::new();
        for _ in 0..n {
            current_blobs.insert(r.bytes()?);
        }
        if r.bool()? != self.health.is_some() {
            return Err(CkptError::Corrupt("health layer presence mismatch"));
        }
        if let Some(h) = self.health.as_mut() {
            h.read_state(r)?;
        }
        self.stats = stats;
        self.set_current_prev(current_prev);
        self.current_roots = current_roots;
        self.current_blobs = current_blobs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_chain::netsim::TipInfo;
    use minedig_chain::tx::Transaction;
    use minedig_pool::pool::PoolConfig;
    use minedig_primitives::fault::FaultConfig;

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

    #[test]
    fn observes_at_most_128_blobs_per_height() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool, true);
        // Poll across the whole template-version window.
        for t in (1_000..1_150).step_by(5) {
            obs.poll_all(t);
        }
        assert_eq!(obs.stats().max_blobs_per_prev, 128);
        assert_eq!(obs.current_blob_count(), 128);
        // 16 backends × 8 versions = 128 distinct roots as well.
        assert_eq!(obs.current_roots.len(), 128);
    }

    #[test]
    fn single_poll_sees_one_blob_per_backend() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool, true);
        obs.poll_all(1_000);
        // 32 endpoints share 16 backends → 16 distinct blobs.
        assert_eq!(obs.current_blob_count(), 16);
    }

    #[test]
    fn deobfuscation_recovers_true_prev() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool, true);
        obs.poll_all(1_000);
        assert_eq!(obs.current_prev(), Some(Hash32::keccak(b"prev-10")));
    }

    #[test]
    fn without_deobfuscation_prev_is_garbage() {
        // The naive observer (before discovering the XOR) clusters on a
        // corrupted prev pointer.
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool, false);
        obs.poll_all(1_000);
        assert_ne!(obs.current_prev(), Some(Hash32::keccak(b"prev-10")));
    }

    #[test]
    fn outage_is_counted() {
        let pool = pool_with_tip();
        pool.set_online(false);
        let mut obs = Observer::new(pool.clone(), true);
        obs.poll_all(1_000);
        assert_eq!(obs.stats().offline, 32);
        assert_eq!(obs.stats().answered, 0);
        pool.set_online(true);
        obs.poll_all(1_020);
        assert_eq!(obs.stats().answered, 32);
    }

    #[test]
    fn no_tip_is_counted_not_swallowed() {
        // Regression: pre-fix, `Err(_) => {}` dropped NoTip/BadEndpoint
        // silently, so a pool with no announced tip looked identical to
        // one answering normally (polls ≠ answered + offline + …).
        let pool = Pool::new(PoolConfig::default());
        let mut obs = Observer::new(pool, true);
        obs.poll_all(1_000);
        let s = obs.stats();
        assert_eq!(s.other_errors, 32);
        assert_eq!(s.answered, 0);
        assert_eq!(s.offline, 0);
        assert_eq!(s.polls, s.answered + s.offline + s.other_errors);
    }

    #[test]
    fn sweeps_count_outages() {
        let pool = pool_with_tip();
        pool.set_online(false);
        let mut obs = Observer::new(pool.clone(), true);
        obs.poll_all(1_000);
        assert_eq!(obs.stats().offline, 32);
        pool.set_online(true);
        obs.poll_all(1_020);
        assert_eq!(obs.stats().answered, 32);
    }

    #[test]
    fn transient_faults_with_retries_match_the_clean_run() {
        let times: Vec<u64> = (1_000..1_150).step_by(5).collect();
        let pool = pool_with_tip();
        let mut clean = Observer::new(pool.clone(), true);
        for &t in &times {
            clean.poll_all(t);
        }

        let plan = FaultPlan::transient_only(21, 0.6);
        let source = FaultyJobSource::new(pool, plan.clone());
        let mut obs = Observer::with_source(source, true, PollPolicy::outlasting(&plan));
        for &t in &times {
            obs.poll_all(t);
        }

        assert!(obs.stats().retries > 0, "p=0.6 must force retries");
        assert_eq!(obs.current_prev(), clean.current_prev());
        assert_eq!(obs.current_roots, clean.current_roots);
        assert_eq!(obs.current_blobs, clean.current_blobs);
        let (c, f) = (clean.stats().clone(), obs.stats());
        assert_eq!(f.polls, c.polls);
        assert_eq!(f.answered, c.answered);
        assert_eq!(f.endpoints_down, 0, "clearing faults never exhaust");
        assert_eq!(f.max_blobs_per_prev, c.max_blobs_per_prev);
        assert!(f.balanced());
    }

    #[test]
    fn permanent_faults_account_into_endpoints_down() {
        let pool = pool_with_tip();
        // Exclude Delay (it succeeds, just late) so every faulty
        // endpoint genuinely fails.
        let plan = FaultPlan::with_config(
            9,
            FaultConfig {
                fault_prob: 1.0,
                permanent_prob: 1.0,
                kind_weights: [1.0, 0.0, 1.0, 1.0, 1.0],
                ..FaultConfig::default()
            },
        );
        let source = FaultyJobSource::new(pool, plan);
        let mut obs = Observer::with_source(source, true, PollPolicy::default());
        obs.poll_all(1_000);
        let s = obs.stats();
        assert_eq!(s.endpoints_down, 32, "every endpoint exhausts its budget");
        assert_eq!(s.answered, 0);
        assert!(s.retries > 0);
        assert!(s.balanced());
    }

    #[test]
    fn reconnects_are_counted_after_teardowns() {
        let pool = pool_with_tip();
        let plan = FaultPlan::with_config(
            5,
            FaultConfig {
                fault_prob: 1.0,
                permanent_prob: 0.0,
                // Disconnect only.
                kind_weights: [0.0, 0.0, 1.0, 0.0, 0.0],
                ..FaultConfig::default()
            },
        );
        let source = FaultyJobSource::new(pool, plan.clone());
        let mut obs = Observer::with_source(source, true, PollPolicy::outlasting(&plan));
        obs.poll_all(1_000);
        let s = obs.stats();
        assert_eq!(s.answered, 32, "faults clear within the budget");
        assert!(s.reconnects > 0, "teardowns must have forced reconnects");
        assert!(s.balanced());
    }

    fn wire_over_channels(pool: &Pool) -> WireJobSource<minedig_net::transport::ChannelTransport> {
        let pool = pool.clone();
        WireJobSource::new(32, Duration::from_secs(5), move |endpoint| {
            let (client, mut server) = minedig_net::transport::channel_pair();
            let p = pool.clone();
            // Serve threads exit when the client side drops. The session
            // clock is irrelevant: peeks carry their own timestamp.
            std::thread::spawn(move || p.serve(&mut server, endpoint, || 0));
            Some(client)
        })
    }

    #[test]
    fn wire_source_matches_the_in_process_source() {
        let pool = pool_with_tip();
        let mut direct = Observer::new(pool.clone(), true);
        let mut wired =
            Observer::with_source(wire_over_channels(&pool), true, PollPolicy::default());
        for t in (1_000..1_100).step_by(5) {
            direct.poll_all(t);
            wired.poll_all(t);
        }
        assert_eq!(wired.current_prev(), direct.current_prev());
        assert_eq!(wired.current_roots, direct.current_roots);
        assert_eq!(wired.current_blobs, direct.current_blobs);
        assert_eq!(wired.stats().answered, direct.stats().answered);
        assert_eq!(wired.stats().polls, direct.stats().polls);
        assert!(wired.stats().balanced());
    }

    #[test]
    fn wire_source_classifies_semantic_errors_like_the_pool() {
        // No tip announced → every peek refused; an outage → offline.
        let pool = Pool::new(PoolConfig::default());
        let mut wired =
            Observer::with_source(wire_over_channels(&pool), true, PollPolicy::default());
        wired.poll_all(1_000);
        assert_eq!(wired.stats().other_errors, 32);
        pool.set_online(false);
        wired.poll_all(1_020);
        assert_eq!(wired.stats().offline, 32);
        assert!(wired.stats().balanced());
    }

    #[test]
    fn take_cluster_resets_state() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool, true);
        obs.poll_all(1_000);
        let prev = Hash32::keccak(b"prev-10");
        let cluster = obs.take_cluster(&prev).unwrap();
        assert_eq!(cluster.len(), 16);
        assert_eq!(obs.current_prev(), None);
        assert!(obs.take_cluster(&prev).is_none());
    }

    /// Whether `obs` remembers exactly the pool's jobs for backends
    /// 0..16 at `now`, each once.
    fn remembers_each_backends_job<S: JobSource>(obs: &Observer<S>, pool: &Pool, now: u64) -> bool {
        obs.recorded.len() == 16
            && (0..16).all(|backend| {
                let job = pool.peek_job(2 * backend, now).unwrap();
                Arc::ptr_eq(&obs.recorded[backend], &job)
            })
    }

    #[test]
    fn a_repeated_blob_is_recorded_again_after_take_cluster() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool.clone(), true);
        let prev = Hash32::keccak(b"prev-10");
        obs.poll_all(1_000);
        // The two endpoints of a backend answer with one shared job,
        // which is decoded and remembered once.
        assert!(remembers_each_backends_job(&obs, &pool, 1_000));
        let first = obs.take_cluster(&prev).unwrap();
        assert!(obs.recorded.is_empty());
        // Every endpoint answers exactly as before; the cluster taken
        // above must not make those answers look already recorded.
        obs.poll_all(1_005);
        assert_eq!(obs.current_prev(), Some(prev));
        assert_eq!(obs.current_roots, first);
        assert!(remembers_each_backends_job(&obs, &pool, 1_005));
        // A restored snapshot holds no memo; the next version's jobs are
        // remembered as they are recorded.
        let saved = state_bytes(&obs);
        obs.read_state(&mut SnapReader::new(&saved)).unwrap();
        assert!(obs.recorded.is_empty());
        obs.poll_all(1_015);
        assert!(remembers_each_backends_job(&obs, &pool, 1_015));
        assert_eq!(obs.current_blob_count(), 32);
        let second = obs.take_cluster(&prev).unwrap();
        assert_eq!(second.len(), 32);
        assert!(second.is_superset(&first));
        assert_eq!(obs.stats().answered, 96);
    }

    fn state_bytes<S: JobSource>(obs: &Observer<S>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        obs.write_state(&mut w);
        w.finish()
    }

    #[test]
    fn restoring_mid_height_matches_the_uninterrupted_observer() {
        // 5 s ticks against a 15 s template refresh: tick 9 (t = 1 045)
        // is the first to see version 3.
        let tick = |k: u64| 1_000 + k * 5;
        let pool = pool_with_tip();
        let mut reference = Observer::new(pool.clone(), true);
        let mut interrupted = Observer::new(pool.clone(), true);
        for k in 0..9 {
            reference.poll_all(tick(k));
            interrupted.poll_all(tick(k));
        }
        let saved = state_bytes(&interrupted);
        for k in 9..24 {
            reference.poll_all(tick(k));
        }
        // One observer restored fresh, one restored after it had already
        // recorded tick 9's answers (which the snapshot does not hold).
        let mut fresh = Observer::new(pool.clone(), true);
        let mut dirty = Observer::new(pool, true);
        dirty.poll_all(tick(9));
        for restored in [&mut fresh, &mut dirty] {
            restored.read_state(&mut SnapReader::new(&saved)).unwrap();
            assert_eq!(state_bytes(restored), saved);
            for k in 9..24 {
                restored.poll_all(tick(k));
            }
            assert_eq!(state_bytes(restored), state_bytes(&reference));
        }
    }

    /// Endpoint 0 moves to a new tip at `switch`; the other endpoints
    /// keep serving the old one.
    struct LaggingEndpoints {
        old: Pool,
        new: Pool,
        switch: u64,
    }

    impl JobSource for LaggingEndpoints {
        fn endpoint_count(&self) -> usize {
            self.old.endpoint_count()
        }

        fn fetch_job(
            &self,
            endpoint: usize,
            now: u64,
            attempt: u32,
        ) -> Result<Arc<Job>, FetchError> {
            let pool = if endpoint == 0 && now >= self.switch {
                &self.new
            } else {
                &self.old
            };
            pool.fetch_job(endpoint, now, attempt)
        }
    }

    #[test]
    fn an_old_tip_answered_after_a_new_one_is_recorded_again() {
        let new = Pool::new(PoolConfig::default());
        new.announce_tip(&TipInfo {
            height: 11,
            prev_id: Hash32::keccak(b"prev-11"),
            prev_timestamp: 1_000,
            reward: 1_000_000,
            difficulty: 100,
            mempool: vec![],
        });
        let source = LaggingEndpoints {
            old: pool_with_tip(),
            new,
            switch: 1_005,
        };
        let mut obs = Observer::with_source(source, true, PollPolicy::default());
        obs.poll_all(1_000);
        assert!(remembers_each_backends_job(&obs, &obs.source().old, 1_000));
        // Endpoint 0's new tip resets the cluster; endpoint 1 then repeats
        // its old-tip answer, which must move the cluster back.
        obs.poll_all(1_005);
        assert_eq!(obs.current_prev(), Some(Hash32::keccak(b"prev-10")));
        assert_eq!(obs.current_blob_count(), 16);
        // Endpoint 1's job was decoded again after the switch, and with
        // it every other old-tip job.
        assert!(remembers_each_backends_job(&obs, &obs.source().old, 1_005));
    }

    /// A source answering every poll with the same job, whatever its blob.
    struct Fixed(Arc<Job>);

    impl JobSource for Fixed {
        fn endpoint_count(&self) -> usize {
            32
        }

        fn fetch_job(
            &self,
            _endpoint: usize,
            _now: u64,
            _attempt: u32,
        ) -> Result<Arc<Job>, FetchError> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn a_repeated_unparseable_answer_fails_on_every_poll() {
        for blob_hex in ["zz", "00"] {
            let job = Arc::new(Job {
                job_id: "j".into(),
                blob_hex: blob_hex.into(),
                share_difficulty: 1,
                height: 10,
            });
            let mut obs = Observer::with_source(Fixed(job), true, PollPolicy::default());
            for t in [1_000, 1_005, 1_010] {
                obs.poll_all(t);
            }
            let s = obs.stats();
            assert_eq!(s.answered, 96, "{blob_hex}");
            assert_eq!(s.parse_failures, 96, "{blob_hex}");
            assert_eq!(obs.current_prev(), None);
        }
    }

    #[test]
    fn new_height_resets_cluster() {
        let pool = pool_with_tip();
        let mut obs = Observer::new(pool.clone(), true);
        obs.poll_all(1_000);
        pool.announce_tip(&TipInfo {
            height: 11,
            prev_id: Hash32::keccak(b"prev-11"),
            prev_timestamp: 1_120,
            reward: 1_000_000,
            difficulty: 100,
            mempool: vec![],
        });
        obs.poll_all(1_120);
        assert_eq!(obs.current_prev(), Some(Hash32::keccak(b"prev-11")));
        assert_eq!(obs.current_blob_count(), 16);
    }

    fn assert_observer_eq<A: JobSource, B: JobSource>(a: &Observer<A>, b: &Observer<B>, ctx: &str) {
        assert_eq!(a.stats, b.stats, "{ctx}");
        assert_eq!(a.current_prev, b.current_prev, "{ctx}");
        assert_eq!(a.current_roots, b.current_roots, "{ctx}");
        assert_eq!(a.current_blobs, b.current_blobs, "{ctx}");
    }

    /// Polls `make()` through 24 ticks, and again with its state written
    /// after tick `k` and read into a second `make()` that polls the
    /// rest, for each `k` in `saves`; every resumed run must end in the
    /// uninterrupted run's state. Returns the interrupted observers as
    /// they stood at each save.
    fn resumes_like_uninterrupted<S: JobSource>(
        make: impl Fn() -> Observer<S>,
        saves: &[u64],
    ) -> Vec<Observer<S>> {
        let tick = |k: u64| 1_000 + k * 5;
        let mut reference = make();
        for k in 0..24 {
            reference.poll_all(tick(k));
        }
        saves
            .iter()
            .map(|&k| {
                let mut interrupted = make();
                for j in 0..k {
                    interrupted.poll_all(tick(j));
                }
                let saved = state_bytes(&interrupted);
                let mut resumed = make();
                resumed.read_state(&mut SnapReader::new(&saved)).unwrap();
                for j in k..24 {
                    resumed.poll_all(tick(j));
                }
                assert_eq!(
                    state_bytes(&resumed),
                    state_bytes(&reference),
                    "saved after tick {k}"
                );
                assert!(resumed.stats.balanced(), "{:?}", resumed.stats);
                interrupted
            })
            .collect()
    }

    /// A source whose `dead` endpoint times out on every attempt —
    /// the permanently-dead-endpoint scenario the breaker exists for.
    struct DeadEndpoint<S: JobSource> {
        inner: S,
        dead: usize,
    }

    impl<S: JobSource> JobSource for DeadEndpoint<S> {
        fn endpoint_count(&self) -> usize {
            self.inner.endpoint_count()
        }

        fn fetch_job(
            &self,
            endpoint: usize,
            now: u64,
            attempt: u32,
        ) -> Result<Arc<Job>, FetchError> {
            if endpoint == self.dead {
                Err(FetchError::Timeout)
            } else {
                self.inner.fetch_job(endpoint, now, attempt)
            }
        }
    }

    #[test]
    fn health_layer_is_bit_identical_without_faults() {
        use minedig_primitives::health::HedgeConfig;
        let times: Vec<u64> = (1_000..1_150).step_by(5).collect();
        let pool = pool_with_tip();
        let mut off = Observer::new(pool.clone(), true);
        for &t in &times {
            off.poll_all(t);
        }
        // Aggressive adaptive/hedge settings: warmed-up deadlines bind
        // tightly and hedging starts early — none of it may perturb the
        // fault-free result.
        let cfg = HealthConfig {
            seed: 0x4ea1,
            adaptive: minedig_primitives::health::AdaptiveConfig {
                warmup: 1,
                multiplier: 1.0,
                floor_ms: 0,
                ..Default::default()
            },
            hedge: HedgeConfig {
                min_tracked: 2,
                slow_fraction: 0.3,
                ..HedgeConfig::default()
            },
            ..HealthConfig::default()
        };
        let mut on = Observer::new(pool, true).with_health(cfg);
        for &t in &times {
            on.poll_all(t);
        }
        assert_observer_eq(&on, &off, "health on");
        let hs = on.health_stats().unwrap();
        assert!(hs.balanced(), "{hs:?}");
        assert_eq!(hs.breaker.trips, 0, "fault-free never trips");
        assert!(hs.hedges > 0, "hedging must have activated");
    }

    #[test]
    fn dead_endpoint_quarantine_bounds_retry_budget() {
        let times: Vec<u64> = (1_000..2_000).step_by(5).collect(); // 200 sweeps
        let dead = 7usize;
        let make = || DeadEndpoint {
            inner: pool_with_tip(),
            dead,
        };
        // Without the breaker every sweep pays the full retry budget
        // against the dead endpoint.
        let mut off = Observer::with_source(make(), true, PollPolicy::default());
        for &t in &times {
            off.poll_all(t);
        }
        assert_eq!(off.stats.retries, times.len() as u64 * 3);
        assert_eq!(off.stats.quarantined, 0);

        let cfg = HealthConfig::default(); // open_for 60(+≤15 jitter)
        let mut seq =
            Observer::with_source(make(), true, PollPolicy::default()).with_health(cfg.clone());
        for &t in &times {
            seq.poll_all(t);
        }
        // The acceptance bound: the window fill to trip, then at most
        // one probe per open interval across the 1000-unit span.
        let span = times.last().unwrap() - times.first().unwrap();
        let max_attempts = cfg.breaker.min_samples as u64 + span / cfg.breaker.open_for + 2;
        let s = seq.stats();
        assert!(s.balanced(), "{s:?}");
        let attempts = times.len() as u64 - s.quarantined;
        assert!(
            attempts <= max_attempts,
            "attempts {attempts} > bound {max_attempts}"
        );
        assert_eq!(s.retries, attempts * 3, "only probed sweeps spend retries");
        assert_eq!(
            s.answered,
            31 * times.len() as u64,
            "healthy endpoints poll"
        );
        let hs = seq.health_stats().unwrap();
        assert!(hs.balanced(), "{hs:?}");
        assert_eq!(hs.breaker.quarantined, s.quarantined);
    }

    #[test]
    fn health_layer_trips_breakers_under_faults() {
        let plan = FaultPlan::with_config(
            13,
            FaultConfig {
                fault_prob: 0.5,
                permanent_prob: 0.3,
                ..FaultConfig::default()
            },
        );
        // Short open windows so breakers trip *and* probe within the run.
        let cfg = HealthConfig {
            breaker: minedig_primitives::health::BreakerConfig {
                open_for: 20,
                probe_jitter: 7,
                ..Default::default()
            },
            ..HealthConfig::default()
        };
        let pool = pool_with_tip();
        let make = || {
            Observer::with_source(
                FaultyJobSource::new(pool.clone(), plan.clone()),
                true,
                PollPolicy::default(),
            )
            .with_health(cfg.clone())
        };
        let mut obs = make();
        for t in (1_000..1_400).step_by(5) {
            obs.poll_all(t);
        }
        assert!(obs.stats.quarantined > 0, "faults must trip breakers");
        assert!(obs.stats.balanced(), "{:?}", obs.stats);
        assert!(obs.health_stats().unwrap().balanced());
    }

    #[test]
    fn restored_state_carries_breaker_state() {
        let plan = FaultPlan::with_config(
            33,
            FaultConfig {
                fault_prob: 0.8,
                permanent_prob: 0.8,
                ..FaultConfig::default()
            },
        );
        let cfg = HealthConfig {
            breaker: minedig_primitives::health::BreakerConfig {
                open_for: 20,
                probe_jitter: 5,
                ..Default::default()
            },
            ..HealthConfig::default()
        };
        let pool = pool_with_tip();
        let policy = PollPolicy {
            retry: RetryPolicy::attempts(3),
            jitter_seed: plan.seed(),
        };
        let make = || {
            Observer::with_source(
                FaultyJobSource::new(pool.clone(), plan.clone()),
                true,
                policy.clone(),
            )
            .with_health(cfg.clone())
        };
        let saved = resumes_like_uninterrupted(make, &[5, 13]);
        let open_at_a_save = saved.iter().any(|o| {
            let h = o.health().unwrap();
            (0..h.endpoints())
                .any(|i| h.breaker(i).state() != minedig_primitives::BreakerState::Closed)
        });
        assert!(open_at_a_save, "plan must trip a breaker before a save");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn health_on_is_bit_identical_fault_free_for_any_config(
            seed in proptest::prelude::any::<u64>(),
            window in 1usize..12,
            min_samples in 1usize..6,
            open_for in 1u64..100,
            probe_jitter in 0u64..40,
            warmup in 1u64..6,
            multiplier in 1.0f64..8.0,
            floor_ms in 0u64..400,
            span in 1u64..100,
            hedge_enabled in proptest::prelude::any::<bool>(),
            slow_fraction in 0.0f64..0.9,
            delay_ms in 0u64..40,
            min_tracked in 1usize..8,
        ) {
            use minedig_primitives::health::{AdaptiveConfig, BreakerConfig, HedgeConfig};
            let cfg = HealthConfig {
                seed,
                breaker: BreakerConfig {
                    window,
                    min_samples,
                    failure_threshold: 0.5,
                    open_for,
                    probe_jitter,
                },
                adaptive: AdaptiveConfig {
                    warmup,
                    multiplier,
                    floor_ms,
                    synthetic_span_ms: span,
                    ..AdaptiveConfig::default()
                },
                hedge: HedgeConfig {
                    enabled: hedge_enabled,
                    slow_fraction,
                    delay_ms,
                    min_tracked,
                },
            };
            let pool = pool_with_tip();
            let mut off = Observer::new(pool.clone(), true);
            let mut on = Observer::new(pool, true).with_health(cfg);
            for t in (1_000..1_100).step_by(5) {
                off.poll_all(t);
                on.poll_all(t);
            }
            proptest::prop_assert_eq!(&on.stats, &off.stats);
            proptest::prop_assert_eq!(on.current_prev, off.current_prev);
            proptest::prop_assert_eq!(&on.current_roots, &off.current_roots);
            proptest::prop_assert_eq!(&on.current_blobs, &off.current_blobs);
            let hs = on.health_stats().unwrap();
            proptest::prop_assert!(hs.balanced(), "{:?}", hs);
            proptest::prop_assert_eq!(hs.breaker.trips, 0);
        }
    }
}
