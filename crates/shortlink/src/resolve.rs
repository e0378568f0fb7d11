//! The non-browser link resolver.
//!
//! §4.1: "To efficiently resolve the short links without a web browser,
//! we replicate the working principle of the web miner in a non-web
//! implementation […] making use of the official optimized Monero hash
//! code. We found that Coinhive alters the block header contained in the
//! PoW inputs before sending them to the users which the web miner
//! reverts deep within its WebAssembly."
//!
//! Two modes:
//! * [`resolve_with_pool`] — the real thing: a [`MinerClient`] session
//!   against a [`Pool`], grinding actual CryptoNight-style shares
//!   (including the XOR de-obfuscation) until the service releases the
//!   redirect. Used by integration tests and the example binaries.
//! * [`resolve_accounted`] — bulk mode for the Table 4/5 studies: the
//!   hash *cost* is accounted (the paper spent 61.5 M hashes over two
//!   days) without grinding each one, preserving every decision the
//!   methodology makes (budget cut-offs, infeasible-link skipping).

use crate::service::{RedeemError, ShortlinkService};
use minedig_net::transport::Transport;
use minedig_pool::miner::{MinerClient, MinerError};
use minedig_pool::pool::Pool;
use minedig_pool::protocol::Token;

/// Outcome of a bulk (accounted) resolution run.
#[derive(Clone, Debug, Default)]
pub struct ResolveReport {
    /// `(code, destination)` of each resolved link.
    pub resolved: Vec<(String, String)>,
    /// Links skipped because they exceeded the per-link budget.
    pub skipped_over_budget: u64,
    /// Codes whose visit produced no document (dead or unknown links in
    /// the study input) — dropped from the Table 4/5 studies, but no
    /// longer silently.
    pub visit_failures: u64,
    /// Total hashes the run accounted for.
    pub hashes_spent: u64,
}

/// Resolves one code in accounted mode into `report` — the per-item step
/// [`resolve_accounted`] folds over its input, exposed so the
/// enumeration campaign can resolve links as its fold reaches them.
pub fn resolve_step(
    service: &ShortlinkService,
    report: &mut ResolveReport,
    code: &str,
    budget_per_link: u64,
) {
    let Some(doc) = service.visit(code) else {
        report.visit_failures += 1;
        return;
    };
    if doc.required_hashes > budget_per_link {
        report.skipped_over_budget += 1;
        return;
    }
    // Saturating: an unlimited-budget run over infeasible (~1e19 hash)
    // links can exceed u64 in aggregate; the tally caps rather than
    // wrapping.
    report.hashes_spent = report.hashes_spent.saturating_add(doc.required_hashes);
    match service.redeem(code, doc.required_hashes) {
        Ok(url) => report.resolved.push((code.to_string(), url)),
        Err(RedeemError::UnknownCode) => {}
        Err(RedeemError::NotEnoughHashes { .. }) => {
            unreachable!("accounted mode supplies the exact requirement")
        }
    }
}

/// Resolves `codes` in accounted mode: every link whose requirement is at
/// most `budget_per_link` hashes is "computed" and redeemed; the total
/// hash cost is tallied (the paper's 61.5 M figure for <10 K-hash links).
pub fn resolve_accounted(
    service: &ShortlinkService,
    codes: &[String],
    budget_per_link: u64,
) -> ResolveReport {
    let mut report = ResolveReport::default();
    for code in codes {
        resolve_step(service, &mut report, code, budget_per_link);
    }
    report
}

/// Errors from the end-to-end resolution path.
#[derive(Debug)]
pub enum ResolveError {
    /// The link does not exist.
    UnknownCode,
    /// Mining failed (transport/pool error).
    Miner(MinerError),
    /// The pool session ended before enough hashes were credited.
    Starved {
        /// Hashes credited when the session ended.
        credited: u64,
        /// Hashes that were required.
        required: u64,
    },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::UnknownCode => f.write_str("unknown short code"),
            ResolveError::Miner(e) => write!(f, "mining failed: {e}"),
            ResolveError::Starved { credited, required } => {
                write!(f, "only {credited}/{required} hashes credited")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolves one link end-to-end: authenticates against the pool with the
/// *visitor's* session (hashes are credited to the link creator's token —
/// that is the monetization), grinds real shares until the requirement is
/// met, then redeems the redirect.
pub fn resolve_with_pool<T: Transport>(
    service: &ShortlinkService,
    pool: &Pool,
    transport: T,
    code: &str,
    max_local_hashes: u64,
) -> Result<String, ResolveError> {
    let doc = service.visit(code).ok_or(ResolveError::UnknownCode)?;
    // The creator's token is what the miner authenticates with — visits
    // mine *for the creator*.
    let creator = Token::from_index(doc.token_id);
    let variant = {
        // Use the pool's configured variant implicitly via the client.
        minedig_pow::Variant::Test
    };
    let mut client = MinerClient::new(transport, creator.clone(), variant);
    client.auth().map_err(ResolveError::Miner)?;
    let before = pool.ledger().lifetime_hashes(&creator);
    let report = client
        .mine_until_credited(before + doc.required_hashes, max_local_hashes)
        .map_err(ResolveError::Miner)?;
    let credited_for_visit = report.hashes_credited.saturating_sub(before);
    if credited_for_visit < doc.required_hashes {
        return Err(ResolveError::Starved {
            credited: credited_for_visit,
            required: doc.required_hashes,
        });
    }
    service
        .redeem(code, credited_for_visit)
        .map_err(|_| ResolveError::UnknownCode)
}

/// [`resolve_with_pool`] with reconnect-and-retry: each attempt mines
/// over a fresh transport from `connect` (which receives the attempt
/// number — chaos suites use it to label fault schedules per attempt),
/// so an injected disconnect or stall costs one attempt, not the link.
/// Returns the destination plus the number of retries it took. Unknown
/// codes fail immediately; transport-level failures retry until
/// `max_attempts` connections have been spent, returning the last error.
pub fn resolve_with_pool_retrying<T, F>(
    service: &ShortlinkService,
    pool: &Pool,
    mut connect: F,
    code: &str,
    max_local_hashes: u64,
    max_attempts: u32,
) -> Result<(String, u32), ResolveError>
where
    T: Transport,
    F: FnMut(u32) -> Option<T>,
{
    let mut last = ResolveError::Miner(MinerError::Transport(
        minedig_net::transport::TransportError::Closed,
    ));
    for attempt in 0..max_attempts {
        // A failed connect consumes the attempt like a torn session.
        let Some(transport) = connect(attempt) else {
            continue;
        };
        match resolve_with_pool(service, pool, transport, code, max_local_hashes) {
            Ok(url) => return Ok((url, attempt)),
            // Permanent: retrying cannot make a dead code live.
            Err(ResolveError::UnknownCode) => return Err(ResolveError::UnknownCode),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinkPopulation, ModelConfig};
    use minedig_chain::netsim::TipInfo;
    use minedig_chain::tx::Transaction;
    use minedig_net::transport::channel_pair;
    use minedig_pool::pool::PoolConfig;
    use minedig_primitives::Hash32;

    fn service_with(total_links: u64) -> ShortlinkService {
        ShortlinkService::new(LinkPopulation::generate(&ModelConfig {
            total_links,
            users: 100,
            seed: 5,
        }))
    }

    #[test]
    fn accounted_resolution_respects_budget() {
        let service = service_with(3_000);
        let codes: Vec<String> = (0..3_000u64).map(crate::ids::index_to_code).collect();
        let report = resolve_accounted(&service, &codes, 10_000);
        assert!(!report.resolved.is_empty());
        assert!(
            report.skipped_over_budget > 0,
            "10^19 links must be skipped"
        );
        assert_eq!(
            report.resolved.len() as u64 + report.skipped_over_budget,
            3_000
        );
        assert_eq!(report.visit_failures, 0);
        // Spent hashes == sum of requirements of resolved links.
        assert!(report.hashes_spent >= report.resolved.len() as u64 * 256);
        assert!(report.hashes_spent <= report.resolved.len() as u64 * 10_000);
    }

    #[test]
    fn dead_codes_are_counted_not_swallowed() {
        let service = service_with(10);
        let codes: Vec<String> = ["a", "zzzz", "!!!", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let report = resolve_accounted(&service, &codes, u64::MAX);
        assert_eq!(report.visit_failures, 2, "zzzz and !!! have no document");
        assert_eq!(
            report.resolved.len() as u64 + report.skipped_over_budget + report.visit_failures,
            4,
            "every input code lands in exactly one counter"
        );
    }

    #[test]
    fn accounted_resolution_returns_real_targets() {
        let service = service_with(100);
        let codes = vec!["a".to_string()];
        let report = resolve_accounted(&service, &codes, u64::MAX);
        assert_eq!(report.resolved.len(), 1);
        assert!(report.resolved[0].1.starts_with("https://"));
    }

    /// Full stack: pool + miner + service with real (Test-variant) PoW.
    #[test]
    fn end_to_end_pow_resolution() {
        let service = ShortlinkService::new(LinkPopulation {
            links: vec![crate::model::LinkRecord {
                index: 0,
                token_id: 3,
                required_hashes: 8,
                target_domain: "youtu.be".into(),
                path_hash: 0x5eed_c0de,
                target_categories: Default::default(),
            }],
            users: 1,
        });
        let pool = Pool::new(PoolConfig {
            share_difficulty: 4,
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

        let url = resolve_with_pool(&service, &pool, client_t, "a", 100_000).unwrap();
        assert_eq!(url, "https://youtu.be/5eedc0de");
        // The creator got credited at least the requirement.
        let creator = Token::from_index(3);
        assert!(pool.ledger().lifetime_hashes(&creator) >= 8);
        handle.join().unwrap();
    }

    #[test]
    fn unknown_code_fails_cleanly() {
        let service = service_with(10);
        let pool = Pool::new(PoolConfig::default());
        let (client_t, _server) = channel_pair();
        let err = resolve_with_pool(&service, &pool, client_t, "zzzz", 10).unwrap_err();
        assert!(matches!(err, ResolveError::UnknownCode));
    }
}
