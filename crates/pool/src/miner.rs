//! The miner client.
//!
//! This is the counterpart of Coinhive's web miner and of the paper's
//! standalone resolver (§4.1: *"we replicate the working principle of the
//! web miner in a non-web implementation"*): authenticate with a token,
//! fetch a job, revert the blob obfuscation, grind nonces with the slow
//! hash, and submit results that meet the share target. The server credits
//! `share_difficulty` hashes per accepted share, which is exactly the
//! progress metric the short-link service displays.

use crate::obfuscation;
use crate::protocol::{ClientMsg, Job, ServerMsg, Token};
use minedig_chain::blob::HashingBlob;
use minedig_net::transport::{Transport, TransportError};
use minedig_pow::{check_hash, slow_hash, Variant};

/// Errors from the mining client.
#[derive(Debug, Clone, PartialEq)]
pub enum MinerError {
    /// Transport failure.
    Transport(TransportError),
    /// Server replied with an error message.
    Server(String),
    /// Server replied with something unexpected.
    Protocol(String),
    /// The server shed the same request [`MAX_SHED_RETRIES`] times in a
    /// row — overload outlasted the client's patience. Retryable at the
    /// session level (a reconnect re-offers the work later).
    Overloaded,
}

impl std::fmt::Display for MinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinerError::Transport(e) => write!(f, "miner transport error: {e}"),
            MinerError::Server(e) => write!(f, "pool error: {e}"),
            MinerError::Protocol(e) => write!(f, "protocol violation: {e}"),
            MinerError::Overloaded => f.write_str("pool shed the request repeatedly"),
        }
    }
}

/// Consecutive [`ServerMsg::Shed`] replies a client re-offers one request
/// through before giving up with [`MinerError::Overloaded`]. Bounded so a
/// server that sheds forever cannot trap the client in an infinite offer
/// loop.
pub const MAX_SHED_RETRIES: u32 = 64;

impl std::error::Error for MinerError {}

impl From<TransportError> for MinerError {
    fn from(e: TransportError) -> Self {
        MinerError::Transport(e)
    }
}

/// Statistics from a mining run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningReport {
    /// Nonce attempts actually hashed locally.
    pub hashes_computed: u64,
    /// Shares submitted.
    pub shares_submitted: u64,
    /// Shares the server accepted.
    pub shares_accepted: u64,
    /// Hashes the server has credited to our token (its own accounting).
    pub hashes_credited: u64,
}

/// A blocking miner client over any [`Transport`].
pub struct MinerClient<T: Transport> {
    transport: T,
    token: Token,
    variant: Variant,
    /// Whether to revert the pool's XOR countermeasure before hashing.
    /// The genuine web miner does; a naive external miner does not (and
    /// gets every share rejected — the behaviour the paper describes).
    pub deobfuscate: bool,
}

impl<T: Transport> MinerClient<T> {
    /// Creates a client; call [`MinerClient::auth`] before mining.
    pub fn new(transport: T, token: Token, variant: Variant) -> MinerClient<T> {
        MinerClient {
            transport,
            token,
            variant,
            deobfuscate: true,
        }
    }

    fn request(&mut self, msg: &ClientMsg) -> Result<ServerMsg, MinerError> {
        // A shed is the one reply that is about the request *rate*, not
        // the request: re-offer the same message, bounded so overload
        // that never clears surfaces as an error instead of a livelock.
        // Sheds are absorbed here so the auth/job/submit state machines
        // above never see them; against a server that never sheds (this
        // crate's `Pool` is one) the loop runs exactly once.
        for _ in 0..=MAX_SHED_RETRIES {
            self.transport.send(&msg.encode())?;
            let raw = self.transport.recv()?;
            match ServerMsg::decode(&raw).map_err(|e| MinerError::Protocol(e.to_string()))? {
                ServerMsg::Shed { .. } => continue,
                other => return Ok(other),
            }
        }
        Err(MinerError::Overloaded)
    }

    /// Authenticates; returns hashes already credited to the token.
    pub fn auth(&mut self) -> Result<u64, MinerError> {
        match self.request(&ClientMsg::Auth {
            token: self.token.clone(),
        })? {
            ServerMsg::Authed { hashes } => Ok(hashes),
            ServerMsg::Error { reason } => Err(MinerError::Server(reason)),
            other => Err(MinerError::Protocol(format!(
                "expected authed, got {other:?}"
            ))),
        }
    }

    /// Fetches a job.
    pub fn get_job(&mut self) -> Result<Job, MinerError> {
        match self.request(&ClientMsg::GetJob)? {
            ServerMsg::Job(job) => Ok(job),
            ServerMsg::Error { reason } => Err(MinerError::Server(reason)),
            other => Err(MinerError::Protocol(format!("expected job, got {other:?}"))),
        }
    }

    /// Mines until the server has credited at least `target_hashes`
    /// (the short-link resolution condition), or `max_local_hashes` local
    /// attempts have been spent. Returns the run report.
    pub fn mine_until_credited(
        &mut self,
        target_hashes: u64,
        max_local_hashes: u64,
    ) -> Result<MiningReport, MinerError> {
        let mut report = MiningReport::default();
        let mut credited = 0u64;
        'outer: while credited < target_hashes && report.hashes_computed < max_local_hashes {
            let job = self.get_job()?;
            let mut blob = job
                .blob_bytes()
                .map_err(|e| MinerError::Protocol(e.to_string()))?;
            if self.deobfuscate {
                obfuscation::xor_blob(&mut blob);
            }
            let parsed = HashingBlob::parse(&blob)
                .map_err(|e| MinerError::Protocol(format!("unparseable blob: {e}")))?;
            // Grind a bounded batch per job, then refresh the job (real
            // miners rotate jobs; this also bounds staleness).
            for nonce in 0..4096u32 {
                if report.hashes_computed >= max_local_hashes {
                    break 'outer;
                }
                let attempt = parsed.with_nonce(nonce).to_bytes();
                let hash = slow_hash(&attempt, self.variant);
                report.hashes_computed += 1;
                if check_hash(&hash, job.share_difficulty) {
                    report.shares_submitted += 1;
                    match self.request(&ClientMsg::Submit {
                        job_id: job.job_id.clone(),
                        nonce,
                        result: hash,
                    })? {
                        ServerMsg::HashAccepted { hashes } => {
                            report.shares_accepted += 1;
                            credited = hashes;
                            if credited >= target_hashes {
                                break 'outer;
                            }
                        }
                        ServerMsg::Error { .. } => {
                            // Rejected share (stale job, countermeasure,
                            // etc.) — fetch a fresh job.
                            continue 'outer;
                        }
                        other => {
                            return Err(MinerError::Protocol(format!(
                                "expected accept/error, got {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        report.hashes_credited = credited;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Pool, PoolConfig};
    use minedig_chain::netsim::TipInfo;
    use minedig_chain::tx::Transaction;
    use minedig_net::transport::channel_pair;
    use minedig_primitives::Hash32;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn serve_pool(
        share_difficulty: u64,
    ) -> (
        Pool,
        std::thread::JoinHandle<()>,
        MinerClient<minedig_net::transport::ChannelTransport>,
    ) {
        let pool = Pool::new(PoolConfig {
            share_difficulty,
            ..PoolConfig::default()
        });
        pool.announce_tip(&TipInfo {
            height: 1,
            prev_id: Hash32::keccak(b"tip"),
            prev_timestamp: 100,
            reward: 1_000_000,
            difficulty: 1_000,
            mempool: vec![Transaction::transfer(Hash32::keccak(b"t"))],
        });
        let (client_t, mut server_t) = channel_pair();
        let p2 = pool.clone();
        let handle = std::thread::spawn(move || p2.serve(&mut server_t, 0, || 120));
        let client = MinerClient::new(client_t, Token::from_index(1), Variant::Test);
        (pool, handle, client)
    }

    #[test]
    fn auth_then_mine_to_target() {
        let (pool, handle, mut client) = serve_pool(4);
        assert_eq!(client.auth().unwrap(), 0);
        let report = client.mine_until_credited(16, 10_000).unwrap();
        assert!(report.hashes_credited >= 16);
        assert!(report.shares_accepted >= 4); // 16 credited / 4 per share
        assert!(report.hashes_computed >= report.shares_accepted);
        drop(client);
        handle.join().unwrap();
        let token = Token::from_index(1);
        assert_eq!(
            pool.ledger().lifetime_hashes(&token),
            report.hashes_credited
        );
    }

    #[test]
    fn naive_miner_defeated_by_countermeasure() {
        let (pool, handle, mut client) = serve_pool(1);
        client.deobfuscate = false; // generic miner unaware of the XOR
        client.auth().unwrap();
        let report = client.mine_until_credited(4, 600).unwrap();
        assert_eq!(report.shares_accepted, 0);
        assert_eq!(report.hashes_credited, 0);
        // Every hash met difficulty 1 and was submitted, yet all rejected.
        assert!(report.shares_submitted > 0);
        drop(client);
        handle.join().unwrap();
        let (_, rejected) = pool.ledger().share_counts();
        assert_eq!(rejected, report.shares_submitted);
    }

    #[test]
    fn mining_without_auth_fails() {
        let (_pool, handle, mut client) = serve_pool(1);
        let err = client.get_job().unwrap_err();
        assert!(matches!(err, MinerError::Server(_)));
        drop(client);
        handle.join().unwrap();
    }

    /// A client-side transport that answers the requests `shed` picks
    /// (numbered from 0) with [`ServerMsg::Shed`] itself, so the pool
    /// never sees them; every other request passes through.
    struct Shedding<T: Transport> {
        inner: T,
        shed: fn(u64) -> bool,
        offered: u64,
        sheds: Arc<AtomicU64>,
        owes_shed: bool,
    }

    impl<T: Transport> Shedding<T> {
        fn new(inner: T, shed: fn(u64) -> bool) -> (Shedding<T>, Arc<AtomicU64>) {
            let sheds = Arc::new(AtomicU64::new(0));
            let transport = Shedding {
                inner,
                shed,
                offered: 0,
                sheds: sheds.clone(),
                owes_shed: false,
            };
            (transport, sheds)
        }
    }

    impl<T: Transport> Transport for Shedding<T> {
        fn send(&mut self, message: &[u8]) -> Result<(), TransportError> {
            let n = self.offered;
            self.offered += 1;
            if (self.shed)(n) {
                self.sheds.fetch_add(1, Ordering::Relaxed);
                self.owes_shed = true;
                Ok(())
            } else {
                self.inner.send(message)
            }
        }

        fn send_timeout(&mut self, message: &[u8], _: Duration) -> Result<(), TransportError> {
            self.send(message)
        }

        fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
            if std::mem::take(&mut self.owes_shed) {
                return Ok(ServerMsg::Shed { retry_after_ms: 1 }.encode());
            }
            self.inner.recv()
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
            if std::mem::take(&mut self.owes_shed) {
                return Ok(ServerMsg::Shed { retry_after_ms: 1 }.encode());
            }
            self.inner.recv_timeout(timeout)
        }
    }

    #[test]
    fn miner_rides_out_sheds_transparently() {
        let (_pool, handle, mut plain) = serve_pool(4);
        plain.auth().unwrap();
        let reference = plain.mine_until_credited(16, 10_000).unwrap();
        drop(plain);
        handle.join().unwrap();

        // Every other offer is shed and silently re-offered.
        let (pool, handle, client) = serve_pool(4);
        let (transport, sheds) = Shedding::new(client.transport, |n| n % 2 == 0);
        let mut gated = MinerClient::new(transport, Token::from_index(1), Variant::Test);
        gated.auth().unwrap();
        let report = gated.mine_until_credited(16, 10_000).unwrap();
        drop(gated);
        handle.join().unwrap();

        assert_eq!(report, reference, "sheds must not perturb the mining run");
        assert!(sheds.load(Ordering::Relaxed) > 0, "no request was shed");
        assert_eq!(
            pool.ledger().lifetime_hashes(&Token::from_index(1)),
            report.hashes_credited
        );
    }

    #[test]
    fn persistent_overload_surfaces_as_error() {
        let (_pool, handle, client) = serve_pool(1);
        // The auth passes; every later offer is shed, so the client must
        // give up instead of spinning forever.
        let (transport, sheds) = Shedding::new(client.transport, |n| n > 0);
        let mut client = MinerClient::new(transport, Token::from_index(1), Variant::Test);
        client.auth().unwrap();
        assert_eq!(client.get_job().unwrap_err(), MinerError::Overloaded);
        drop(client);
        handle.join().unwrap();
        assert_eq!(
            sheds.load(Ordering::Relaxed),
            u64::from(MAX_SHED_RETRIES) + 1
        );
    }

    #[test]
    fn local_hash_budget_is_respected() {
        let (_pool, handle, mut client) = serve_pool(u64::MAX); // impossible target
        client.auth().unwrap();
        let report = client.mine_until_credited(1, 50).unwrap();
        assert_eq!(report.hashes_computed, 50);
        assert_eq!(report.shares_accepted, 0);
        drop(client);
        handle.join().unwrap();
    }
}
