//! The pool service.
//!
//! One `Pool` owns: the backend set, the current tip and its per-backend
//! template versions, the issued-job table used for share validation, and
//! the revenue ledger. It is cheaply cloneable (`Arc` inside) so the same
//! pool can simultaneously act as a `TemplateSource` for the network
//! simulator, serve protocol sessions on transport threads, and answer
//! the observer's job requests.

use crate::accounting::Ledger;
use crate::backend::Backend;
use crate::obfuscation;
use crate::protocol::{ClientMsg, Job, ServerMsg, Token};
use minedig_chain::blob::HashingBlob;
use minedig_chain::block::Block;
use minedig_chain::merkle::{coinbase_path, root_from_path};
use minedig_chain::netsim::{TemplateSource, TipInfo};
use minedig_chain::tx::MinerTag;
use minedig_net::transport::{Transport, TransportError};
use minedig_pow::{check_hash, slow_hash, Variant};
use minedig_primitives::{DetRng, Hash32};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Pool name: the Coinbase tag and the endpoint host names.
const NAME: &str = "coinhive";
/// Backend systems (Coinhive: 16 inferred).
const BACKENDS: u16 = 16;
/// Endpoints per backend (Coinhive: 2, inferred from 32 endpoints).
const ENDPOINTS_PER_BACKEND: u16 = 2;
/// WebSocket-style endpoints in all.
const ENDPOINTS: usize = (BACKENDS * ENDPOINTS_PER_BACKEND) as usize;
/// Seconds between template refreshes within one height.
const TEMPLATE_REFRESH_SECS: u64 = 15;
/// Template versions per height (Coinhive: at most 8 observed).
const MAX_TEMPLATES_PER_HEIGHT: u32 = 8;
/// Pool fee (Coinhive: 30 %).
const FEE_FRACTION: f64 = 0.30;
/// PoW variant shares are validated with.
const POW_VARIANT: Variant = Variant::Test;
/// Seed of the backends' extra nonces and of the pool's own draws.
const SEED: u64 = 0xc01;

/// Pool configuration. The pool models Coinhive as the paper measured
/// it: 32 endpoints on 16 backends, at most 8 templates per height, a
/// 30 % fee, and every served blob XOR-obfuscated.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Difficulty assigned to client shares (low, so browsers find them).
    pub share_difficulty: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            share_difficulty: 16,
        }
    }
}

struct IssuedJob {
    /// True (de-obfuscated) blob with the nonce zeroed.
    blob: Vec<u8>,
    share_difficulty: u64,
    height: u64,
}

/// Immutable snapshot of the current tip, swapped wholesale on
/// `announce_tip`. Readers clone the `Arc` out of a tiny critical
/// section and then work lock-free.
struct TipState {
    /// Monotone tip generation; per-backend caches self-invalidate by
    /// comparing against it, so a new tip needs no global cache sweep.
    epoch: u64,
    tip: Option<TipInfo>,
    seen_at: u64,
    /// The Coinbase's Merkle path over this tip's mempool, hashed by the
    /// first template build (a tip served to nobody, as during an outage
    /// or a resumed run's replay, never pays for it).
    coinbase_path: OnceLock<Vec<Hash32>>,
}

impl TipState {
    /// Leaf 0's siblings for this tip: shared by every backend's
    /// templates, so a template's root costs log₂ n pair hashes.
    fn coinbase_path(&self) -> &[Hash32] {
        self.coinbase_path.get_or_init(|| {
            let info = self.tip.as_ref().expect("template without tip");
            let tx_hashes: Vec<Hash32> = info.mempool.iter().map(|t| t.hash()).collect();
            coinbase_path(&tx_hashes)
        })
    }
}

/// One backend plus its own blob cache — the per-backend lock that lets
/// concurrent pollers overlap peek work instead of serializing on a
/// single pool-wide mutex.
struct BackendSlot {
    backend: Backend,
    cache: Mutex<BackendCache>,
}

#[derive(Default)]
struct BackendCache {
    /// Tip epoch these templates were built for; a mismatch clears lazily.
    epoch: u64,
    /// Cached template per version at the current epoch.
    templates: HashMap<u32, CachedTemplate>,
}

/// One template version as served: a pure function of (tip, backend,
/// version), so it is built once and then shared.
struct CachedTemplate {
    /// True (de-obfuscated) hashing blob with the nonce zeroed.
    blob: Vec<u8>,
    /// The observer's peek job for this version, built on its first peek
    /// and handed to every later peek of it, on either endpoint of the
    /// backend.
    peek: Option<Arc<Job>>,
}

/// Mutable state of the mining protocol proper: issued jobs, revenue
/// ledger, pool RNG. Touched only by miners/accounting, never by the
/// observer's peek path.
struct MiningState {
    jobs: HashMap<String, IssuedJob>,
    job_counter: u64,
    ledger: Ledger,
    rng: DetRng,
}

struct Shared {
    config: PoolConfig,
    tag: MinerTag,
    online: AtomicBool,
    tip: Mutex<Arc<TipState>>,
    backends: Vec<BackendSlot>,
    mining: Mutex<MiningState>,
}

/// The pool handle. Clone freely; all clones share state.
///
/// Lock granularity (lock order is tip → backend cache → mining, and no
/// path holds two of the same tier): the online flag is an atomic, the
/// tip is an `Arc` snapshot behind its own mutex, each backend guards
/// its own blob cache, and the job/ledger state has a separate lock —
/// so concurrent peeks of different backends share nothing but the tip
/// snapshot.
#[derive(Clone)]
pub struct Pool {
    shared: Arc<Shared>,
}

/// Why a job request yielded nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The pool is in an outage window (§4.2 observed 6–7 May 2018).
    Offline,
    /// No tip has been announced yet.
    NoTip,
    /// Endpoint index out of range.
    BadEndpoint(usize),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Offline => f.write_str("pool offline"),
            JobError::NoTip => f.write_str("no chain tip known"),
            JobError::BadEndpoint(e) => write!(f, "endpoint {e} does not exist"),
        }
    }
}

impl Pool {
    /// Creates a pool.
    pub fn new(config: PoolConfig) -> Pool {
        let tag = MinerTag::from_label(NAME);
        let backends = (0..BACKENDS)
            .map(|index| BackendSlot {
                backend: Backend {
                    index,
                    pool_tag: tag,
                    seed: SEED,
                },
                cache: Mutex::new(BackendCache::default()),
            })
            .collect();
        let rng = DetRng::seed(SEED).derive("pool");
        Pool {
            shared: Arc::new(Shared {
                config,
                tag,
                online: AtomicBool::new(true),
                tip: Mutex::new(Arc::new(TipState {
                    epoch: 0,
                    tip: None,
                    seen_at: 0,
                    coinbase_path: OnceLock::new(),
                })),
                backends,
                mining: Mutex::new(MiningState {
                    jobs: HashMap::new(),
                    job_counter: 0,
                    ledger: Ledger::new(),
                    rng,
                }),
            }),
        }
    }

    /// Snapshot of the current tip state (cheap: one short lock, one
    /// `Arc` clone).
    fn tip_state(&self) -> Arc<TipState> {
        self.shared.tip.lock().clone()
    }

    /// Total number of WebSocket-style endpoints.
    pub fn endpoint_count(&self) -> usize {
        ENDPOINTS
    }

    /// The pool's Coinbase tag.
    pub fn tag(&self) -> MinerTag {
        self.shared.tag
    }

    /// Toggles outage state.
    pub fn set_online(&self, online: bool) {
        self.shared.online.store(online, Ordering::SeqCst);
    }

    /// True when serving jobs.
    pub fn is_online(&self) -> bool {
        self.shared.online.load(Ordering::SeqCst)
    }

    /// Announces a new chain tip (also done via the `TemplateSource`
    /// adapter when plugged into the netsim).
    pub fn announce_tip(&self, tip: &TipInfo) {
        let mut guard = self.shared.tip.lock();
        let epoch = guard.epoch + 1;
        *guard = Arc::new(TipState {
            epoch,
            tip: Some(tip.clone()),
            seen_at: tip.prev_timestamp,
            coinbase_path: OnceLock::new(),
        });
        drop(guard);
        // Backend blob caches invalidate lazily via the epoch; issued
        // jobs are dropped now so stale shares are rejected.
        self.shared.mining.lock().jobs.clear();
    }

    fn version_at(tip: &TipState, now: u64) -> u32 {
        let elapsed = now.saturating_sub(tip.seen_at);
        let v = elapsed / TEMPLATE_REFRESH_SECS;
        (v as u32).min(MAX_TEMPLATES_PER_HEIGHT - 1)
    }

    /// Runs `f` on backend `backend_idx`'s template `version` for `tip`,
    /// under that backend's cache lock, building the template on a miss:
    /// the Coinbase hash plus its Merkle path, never the whole tree.
    fn with_template<R>(
        shared: &Shared,
        tip: &TipState,
        backend_idx: u16,
        version: u32,
        f: impl FnOnce(&mut CachedTemplate) -> R,
    ) -> R {
        let slot = &shared.backends[backend_idx as usize];
        let mut cache = slot.cache.lock();
        if cache.epoch != tip.epoch {
            cache.templates.clear();
            cache.epoch = tip.epoch;
        }
        let template = cache.templates.entry(version).or_insert_with(|| {
            let info = tip.tip.as_ref().expect("template without tip");
            let timestamp = tip.seen_at + version as u64 * TEMPLATE_REFRESH_SECS;
            let coinbase = slot.backend.coinbase(info, version).hash();
            let blob = HashingBlob {
                major_version: 7,
                minor_version: 7,
                timestamp,
                prev_id: info.prev_id,
                nonce: 0,
                merkle_root: root_from_path(coinbase, tip.coinbase_path()),
                tx_count: 1 + info.mempool.len() as u64,
            }
            .to_bytes();
            CachedTemplate { blob, peek: None }
        });
        f(template)
    }

    fn backend_of_endpoint(endpoint: usize) -> Result<u16, JobError> {
        if endpoint >= ENDPOINTS {
            return Err(JobError::BadEndpoint(endpoint));
        }
        Ok((endpoint / ENDPOINTS_PER_BACKEND as usize) as u16)
    }

    /// Observer-style job fetch: returns the blob currently served by the
    /// given endpoint *without* registering a job for share submission —
    /// this is what the paper's 500 ms poller does. Every peek of one
    /// template version returns the same shared job.
    pub fn peek_job(&self, endpoint: usize, now: u64) -> Result<Arc<Job>, JobError> {
        let shared = &*self.shared;
        if !self.is_online() {
            return Err(JobError::Offline);
        }
        let tip = self.tip_state();
        let Some(info) = tip.tip.as_ref() else {
            return Err(JobError::NoTip);
        };
        let backend = Self::backend_of_endpoint(endpoint)?;
        let version = Self::version_at(&tip, now);
        let height = info.height;
        Ok(Self::with_template(shared, &tip, backend, version, |t| {
            t.peek
                .get_or_insert_with(|| {
                    Arc::new(Job::from_blob(
                        format!("peek-{height}-{backend}-{version}"),
                        &obfuscation::obfuscated(&t.blob),
                        shared.config.share_difficulty,
                        height,
                    ))
                })
                .clone()
        }))
    }

    /// Miner-style job fetch: registers the job so shares can be
    /// validated and credited.
    pub fn issue_job(&self, endpoint: usize, now: u64) -> Result<Job, JobError> {
        let shared = &*self.shared;
        if !self.is_online() {
            return Err(JobError::Offline);
        }
        let tip = self.tip_state();
        let Some(info) = tip.tip.as_ref() else {
            return Err(JobError::NoTip);
        };
        let backend = Self::backend_of_endpoint(endpoint)?;
        let version = Self::version_at(&tip, now);
        let true_blob = Self::with_template(shared, &tip, backend, version, |t| t.blob.clone());
        let height = info.height;
        let share_difficulty = shared.config.share_difficulty;
        let mut mining = shared.mining.lock();
        mining.job_counter += 1;
        let job_id = format!("j{}-{height}-{backend}", mining.job_counter);
        mining.jobs.insert(
            job_id.clone(),
            IssuedJob {
                blob: true_blob.clone(),
                share_difficulty,
                height,
            },
        );
        drop(mining);
        let mut wire_blob = true_blob;
        obfuscation::xor_blob(&mut wire_blob);
        Ok(Job::from_blob(job_id, &wire_blob, share_difficulty, height))
    }

    /// Validates a submitted share and credits `token` on success.
    /// Returns the token's cumulative credited hashes.
    pub fn submit_share(
        &self,
        token: &Token,
        job_id: &str,
        nonce: u32,
        result: &Hash32,
    ) -> Result<u64, String> {
        let tip = self.tip_state();
        let current_height = tip.tip.as_ref().map(|t| t.height);
        let mut mining = self.shared.mining.lock();
        let (blob, share_difficulty) = match mining.jobs.get(job_id) {
            None => {
                mining.ledger.record_rejected();
                return Err("unknown or stale job".to_string());
            }
            Some(job) => {
                if Some(job.height) != current_height {
                    mining.ledger.record_rejected();
                    return Err("stale height".to_string());
                }
                (job.blob.clone(), job.share_difficulty)
            }
        };
        // Reconstruct the blob with the claimed nonce and verify.
        let parsed = HashingBlob::parse(&blob).expect("issued blob parses");
        let mined = parsed.with_nonce(nonce).to_bytes();
        let hash = slow_hash(&mined, POW_VARIANT);
        if hash != *result {
            mining.ledger.record_rejected();
            return Err("result hash mismatch".to_string());
        }
        if !check_hash(&hash, share_difficulty) {
            mining.ledger.record_rejected();
            return Err("low difficulty share".to_string());
        }
        Ok(mining.ledger.credit_share(token, share_difficulty))
    }

    /// Read access to the ledger (clone) for analyses and tests.
    pub fn ledger(&self) -> Ledger {
        self.shared.mining.lock().ledger.clone()
    }

    /// Builds the winning block at `found_at` and settles the ledger.
    /// Used by the `TemplateSource` adapter.
    pub fn win_block(&self, found_at: u64) -> Block {
        let shared = &*self.shared;
        let tip = self.tip_state();
        let info = tip.tip.clone().expect("win_block without tip");
        let version = Self::version_at(&tip, found_at);
        let timestamp = tip.seen_at + version as u64 * TEMPLATE_REFRESH_SECS;
        let mut mining = shared.mining.lock();
        let backend_idx = mining.rng.gen_range(u64::from(BACKENDS)) as usize;
        let backend = shared.backends[backend_idx].backend.clone();
        let mut block = backend.template(&info, version, timestamp);
        block.header.nonce = mining.rng.next_u32();
        mining.ledger.distribute(info.reward, FEE_FRACTION);
        block
    }

    /// Serves one protocol session over a transport. Returns when the
    /// peer disconnects. `endpoint` selects which backend's jobs this
    /// session sees; `clock` supplies virtual (or wall) time.
    pub fn serve<T: Transport, C: Fn() -> u64>(
        &self,
        transport: &mut T,
        endpoint: usize,
        clock: C,
    ) {
        let mut token: Option<Token> = None;
        loop {
            let msg = match transport.recv() {
                Ok(m) => m,
                Err(_) => return,
            };
            let reply = match ClientMsg::decode(&msg) {
                Err(e) => ServerMsg::Error {
                    reason: e.to_string(),
                },
                Ok(ClientMsg::Auth { token: t }) => {
                    let hashes = self.shared.mining.lock().ledger.lifetime_hashes(&t);
                    token = Some(t);
                    ServerMsg::Authed { hashes }
                }
                Ok(ClientMsg::GetJob) => match token {
                    None => ServerMsg::Error {
                        reason: "not authenticated".to_string(),
                    },
                    Some(_) => match self.issue_job(endpoint, clock()) {
                        Ok(job) => ServerMsg::Job(job),
                        Err(e) => ServerMsg::Error {
                            reason: e.to_string(),
                        },
                    },
                },
                // The observer's poll probe: unauthenticated (it never
                // submits) and keyed by the observer's own virtual
                // timestamp so a probe's answer is independent of the
                // serving session's clock.
                Ok(ClientMsg::Peek { endpoint, now }) => {
                    match self.peek_job(endpoint as usize, now) {
                        Ok(job) => ServerMsg::Job(Job::clone(&job)),
                        Err(e) => ServerMsg::Error {
                            reason: e.to_string(),
                        },
                    }
                }
                Ok(ClientMsg::Submit {
                    job_id,
                    nonce,
                    result,
                }) => match &token {
                    None => ServerMsg::Error {
                        reason: "not authenticated".to_string(),
                    },
                    Some(t) => match self.submit_share(t, &job_id, nonce, &result) {
                        Ok(hashes) => ServerMsg::HashAccepted { hashes },
                        Err(reason) => ServerMsg::Error { reason },
                    },
                },
            };
            if transport.send(&reply.encode()).is_err() {
                return;
            }
        }
    }

    /// Wraps this pool as a [`TemplateSource`] for the network simulator.
    pub fn template_source(&self) -> PoolTemplateSource {
        PoolTemplateSource { pool: self.clone() }
    }
}

/// `TemplateSource` adapter handing the pool's templates to the netsim.
pub struct PoolTemplateSource {
    pool: Pool,
}

impl TemplateSource for PoolTemplateSource {
    fn on_new_tip(&mut self, tip: &TipInfo) {
        self.pool.announce_tip(tip);
    }

    fn make_block(&mut self, found_at: u64) -> Block {
        self.pool.win_block(found_at)
    }
}

/// Convenience: result of a serve loop used by tests.
pub fn drive_session<T: Transport>(
    transport: &mut T,
    msg: &ClientMsg,
) -> Result<ServerMsg, TransportError> {
    transport.send(&msg.encode())?;
    let raw = transport.recv()?;
    ServerMsg::decode(&raw).map_err(|e| TransportError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_chain::tx::Transaction;
    use minedig_net::transport::channel_pair;

    fn tip(height: u64, seen_at: u64) -> TipInfo {
        TipInfo {
            height,
            prev_id: Hash32::keccak(&height.to_le_bytes()),
            prev_timestamp: seen_at,
            reward: 4_400_000_000_000,
            difficulty: 1_000,
            mempool: vec![Transaction::transfer(Hash32::keccak(b"m1"))],
        }
    }

    fn pool() -> Pool {
        Pool::new(PoolConfig::default())
    }

    #[test]
    fn endpoint_inventory_matches_coinhive() {
        let p = pool();
        assert_eq!(p.endpoint_count(), 32);
    }

    #[test]
    fn no_tip_means_no_job() {
        let p = pool();
        assert_eq!(p.peek_job(0, 100), Err(JobError::NoTip));
    }

    #[test]
    fn offline_means_no_job() {
        let p = pool();
        p.announce_tip(&tip(1, 100));
        p.set_online(false);
        assert_eq!(p.peek_job(0, 100), Err(JobError::Offline));
        p.set_online(true);
        assert!(p.peek_job(0, 100).is_ok());
    }

    #[test]
    fn bad_endpoint_rejected() {
        let p = pool();
        p.announce_tip(&tip(1, 100));
        assert_eq!(p.peek_job(32, 100), Err(JobError::BadEndpoint(32)));
    }

    #[test]
    fn paired_endpoints_share_blobs() {
        let p = pool();
        p.announce_tip(&tip(1, 100));
        let a = p.peek_job(0, 100).unwrap();
        let b = p.peek_job(1, 100).unwrap();
        let c = p.peek_job(2, 100).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "endpoints 0,1 share backend 0's job");
        assert_ne!(a.blob_hex, c.blob_hex, "endpoint 2 is backend 1");
    }

    #[test]
    fn at_most_eight_versions_per_height() {
        let p = pool();
        p.announce_tip(&tip(1, 1_000));
        let mut blobs = std::collections::HashSet::new();
        // Poll one endpoint across far more refresh windows than versions.
        for s in 0..100 {
            let job = p.peek_job(0, 1_000 + s * 10).unwrap();
            blobs.insert(job.blob_hex.clone());
        }
        assert_eq!(blobs.len(), 8);
    }

    #[test]
    fn all_backends_yield_128_distinct_blobs() {
        let p = pool();
        p.announce_tip(&tip(1, 1_000));
        let mut blobs = std::collections::HashSet::new();
        for endpoint in 0..32 {
            for s in 0..120 {
                if let Ok(job) = p.peek_job(endpoint, 1_000 + s) {
                    blobs.insert(job.blob_hex.clone());
                }
            }
        }
        assert_eq!(blobs.len(), 128, "16 backends x 8 versions");
    }

    #[test]
    fn obfuscation_hides_true_blob() {
        let p = pool();
        p.announce_tip(&tip(1, 100));
        let job = p.peek_job(0, 100).unwrap();
        let wire = job.blob_bytes().unwrap();
        let mut reverted = wire.clone();
        obfuscation::xor_blob(&mut reverted);
        // The wire form parses but points at a wrong prev id; the reverted
        // form carries the real tip prev id.
        let tip_prev = Hash32::keccak(&1u64.to_le_bytes());
        assert_ne!(HashingBlob::parse(&wire).unwrap().prev_id, tip_prev);
        assert_eq!(HashingBlob::parse(&reverted).unwrap().prev_id, tip_prev);
    }

    #[test]
    fn share_flow_accept_and_reject() {
        let p = Pool::new(PoolConfig {
            share_difficulty: 2, // ~every other hash passes
        });
        p.announce_tip(&tip(5, 100));
        let token = Token::from_index(1);
        let job = p.issue_job(0, 100).unwrap();
        let mut blob = job.blob_bytes().unwrap();
        obfuscation::xor_blob(&mut blob); // miner reverts the countermeasure
        let parsed = HashingBlob::parse(&blob).unwrap();

        let mut accepted = 0;
        for nonce in 0..64u32 {
            let mined = parsed.with_nonce(nonce).to_bytes();
            let h = slow_hash(&mined, Variant::Test);
            match p.submit_share(&token, &job.job_id, nonce, &h) {
                Ok(_) => accepted += 1,
                Err(reason) => assert_eq!(reason, "low difficulty share"),
            }
        }
        assert!(accepted > 0, "some shares must pass difficulty 2");
        let (ok, rej) = p.ledger().share_counts();
        assert_eq!(ok, accepted);
        assert_eq!(ok + rej, 64);
        assert_eq!(p.ledger().lifetime_hashes(&token), accepted * 2);
    }

    #[test]
    fn share_without_deobfuscation_is_rejected() {
        // The countermeasure in action: hashing the wire blob directly
        // (like a generic miner would) yields only rejected shares.
        let p = Pool::new(PoolConfig {
            share_difficulty: 1, // every correctly-computed hash passes
        });
        p.announce_tip(&tip(5, 100));
        let token = Token::from_index(2);
        let job = p.issue_job(0, 100).unwrap();
        let wire = job.blob_bytes().unwrap(); // NOT reverted
        let parsed = HashingBlob::parse(&wire).unwrap();
        for nonce in 0..8u32 {
            let mined = parsed.with_nonce(nonce).to_bytes();
            let h = slow_hash(&mined, Variant::Test);
            let res = p.submit_share(&token, &job.job_id, nonce, &h);
            assert_eq!(res.unwrap_err(), "result hash mismatch");
        }
    }

    #[test]
    fn stale_jobs_rejected_after_new_tip() {
        let p = Pool::new(PoolConfig {
            share_difficulty: 1,
        });
        p.announce_tip(&tip(5, 100));
        let job = p.issue_job(0, 100).unwrap();
        p.announce_tip(&tip(6, 220));
        let token = Token::from_index(3);
        let res = p.submit_share(&token, &job.job_id, 0, &Hash32::ZERO);
        assert!(res.is_err());
    }

    #[test]
    fn win_block_matches_a_served_blob() {
        // The heart of §4.2: the merkle root of the won block must be one
        // the observer could have collected from an endpoint.
        let p = pool();
        p.announce_tip(&tip(9, 1_000));
        let mut seen_roots = std::collections::HashSet::new();
        for endpoint in 0..32 {
            for s in (0..120).step_by(5) {
                if let Ok(job) = p.peek_job(endpoint, 1_000 + s) {
                    let mut blob = job.blob_bytes().unwrap();
                    obfuscation::xor_blob(&mut blob);
                    seen_roots.insert(HashingBlob::parse(&blob).unwrap().merkle_root);
                }
            }
        }
        let block = p.win_block(1_050);
        assert!(seen_roots.contains(&block.merkle_root()));
    }

    #[test]
    fn served_templates_equal_full_templates_for_any_mempool_size() {
        // A cached template comes from the Coinbase's Merkle path; it must
        // equal the full `Backend::template` for every endpoint and
        // version, and a cached peek job must equal one built fresh.
        let config = PoolConfig::default();
        let refresh = TEMPLATE_REFRESH_SECS;
        for txs in [0usize, 1, 2, 3, 7, 8, 12, 15, 16, 17, 64] {
            let p = pool();
            let info = TipInfo {
                mempool: (0..txs as u64)
                    .map(|i| Transaction::transfer(Hash32::keccak(&i.to_le_bytes())))
                    .collect(),
                ..tip(40 + txs as u64, 1_000)
            };
            p.announce_tip(&info);
            for endpoint in 0..p.endpoint_count() {
                let index = (endpoint / ENDPOINTS_PER_BACKEND as usize) as u16;
                let backend = Backend {
                    index,
                    pool_tag: p.tag(),
                    seed: SEED,
                };
                for version in 0..MAX_TEMPLATES_PER_HEIGHT {
                    let timestamp = 1_000 + version as u64 * refresh;
                    let block = backend.template(&info, version, timestamp);
                    let fresh = Job::from_blob(
                        format!("peek-{}-{index}-{version}", info.height),
                        &obfuscation::obfuscated(&block.hashing_blob().to_bytes()),
                        config.share_difficulty,
                        info.height,
                    );
                    let first = p.peek_job(endpoint, timestamp).unwrap();
                    let mut blob = first.blob_bytes().unwrap();
                    obfuscation::xor_blob(&mut blob);
                    let served = HashingBlob::parse(&blob).unwrap();
                    assert_eq!(served.merkle_root, block.merkle_root(), "{txs} txs");
                    assert_eq!(served.tx_count, block.tx_count(), "{txs} txs");
                    assert_eq!(*first, fresh, "{txs} txs, endpoint {endpoint}");
                    let cached = p.peek_job(endpoint, timestamp + refresh - 1).unwrap();
                    assert!(
                        Arc::ptr_eq(&cached, &first),
                        "{txs} txs, endpoint {endpoint}"
                    );
                }
            }
        }
    }

    #[test]
    fn win_block_distributes_reward() {
        let p = pool();
        p.announce_tip(&tip(9, 1_000));
        let token = Token::from_index(9);
        self::credit_via_internal(&p, &token, 100);
        let _ = p.win_block(1_010);
        let l = p.ledger();
        let total = l.balance(&token) + l.pool_balance();
        assert_eq!(total, 4_400_000_000_000);
        // 70/30 split.
        assert_eq!(l.balance(&token), (4_400_000_000_000f64 * 0.7) as u64);
    }

    /// Test helper: credit shares without grinding PoW.
    fn credit_via_internal(p: &Pool, token: &Token, hashes: u64) {
        p.shared.mining.lock().ledger.credit_share(token, hashes);
    }

    #[test]
    fn concurrent_peeks_race_tip_announcements_safely() {
        // The split-lock structure must stay coherent when peeks of
        // different backends overlap a tip swap: every job returned is
        // for one of the announced heights, never a torn mix.
        let p = pool();
        p.announce_tip(&tip(1, 100));
        let peekers: Vec<_> = (0..4)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    for s in 0..200u64 {
                        let endpoint = (t * 7 + s as usize) % 32;
                        if let Ok(job) = p.peek_job(endpoint, 100 + s) {
                            assert!((1..=8).contains(&job.height), "height {}", job.height);
                        }
                    }
                })
            })
            .collect();
        for h in 2..=8u64 {
            p.announce_tip(&tip(h, 100 + h * 20));
        }
        for t in peekers {
            t.join().unwrap();
        }
    }

    #[test]
    fn serve_answers_peek_without_auth() {
        let p = pool();
        p.announce_tip(&tip(3, 40));
        let (mut client, mut server) = channel_pair();
        let pool_clone = p.clone();
        let handle = std::thread::spawn(move || {
            pool_clone.serve(&mut server, 0, || 60);
        });
        // A peek needs no auth and matches the local peek bit-for-bit —
        // the probe's own timestamp keys the job, not the session clock.
        let r = drive_session(
            &mut client,
            &ClientMsg::Peek {
                endpoint: 5,
                now: 90,
            },
        )
        .unwrap();
        assert_eq!(r, ServerMsg::Job(Job::clone(&p.peek_job(5, 90).unwrap())));
        // Errors carry the JobError rendering the observer classifies on.
        let r = drive_session(
            &mut client,
            &ClientMsg::Peek {
                endpoint: 999,
                now: 90,
            },
        )
        .unwrap();
        assert_eq!(
            r,
            ServerMsg::Error {
                reason: "endpoint 999 does not exist".to_string()
            }
        );
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn serve_session_over_channel_transport() {
        let p = Pool::new(PoolConfig {
            share_difficulty: 1,
        });
        p.announce_tip(&tip(2, 50));
        let (mut client, mut server) = channel_pair();
        let pool_clone = p.clone();
        let handle = std::thread::spawn(move || {
            pool_clone.serve(&mut server, 0, || 60);
        });

        // Unauthenticated get_job is refused.
        let r = drive_session(&mut client, &ClientMsg::GetJob).unwrap();
        assert!(matches!(r, ServerMsg::Error { .. }));

        let r = drive_session(
            &mut client,
            &ClientMsg::Auth {
                token: Token::from_index(4),
            },
        )
        .unwrap();
        assert_eq!(r, ServerMsg::Authed { hashes: 0 });

        let r = drive_session(&mut client, &ClientMsg::GetJob).unwrap();
        let job = match r {
            ServerMsg::Job(j) => j,
            other => panic!("expected job, got {other:?}"),
        };

        // Solve one share correctly (revert the XOR first).
        let mut blob = job.blob_bytes().unwrap();
        obfuscation::xor_blob(&mut blob);
        let parsed = HashingBlob::parse(&blob).unwrap();
        let mined = parsed.with_nonce(7).to_bytes();
        let h = slow_hash(&mined, Variant::Test);
        let r = drive_session(
            &mut client,
            &ClientMsg::Submit {
                job_id: job.job_id.clone(),
                nonce: 7,
                result: h,
            },
        )
        .unwrap();
        assert_eq!(r, ServerMsg::HashAccepted { hashes: 1 });

        drop(client);
        handle.join().unwrap();
    }
}
