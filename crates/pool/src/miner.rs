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
}

impl std::fmt::Display for MinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinerError::Transport(e) => write!(f, "miner transport error: {e}"),
            MinerError::Server(e) => write!(f, "pool error: {e}"),
            MinerError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

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
        self.transport.send(&msg.encode())?;
        let raw = self.transport.recv()?;
        ServerMsg::decode(&raw).map_err(|e| MinerError::Protocol(e.to_string()))
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

    fn serve_pool(
        share_difficulty: u64,
    ) -> (
        Pool,
        std::thread::JoinHandle<()>,
        MinerClient<minedig_net::transport::ChannelTransport>,
    ) {
        let pool = Pool::new(PoolConfig { share_difficulty });
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
