//! End-to-end mining chaos: the real-PoW short-link resolution path —
//! miner client, pool protocol, frames — over real TCP sockets, with a
//! deterministic fault schedule injected into the miner's transport.
//!
//! All five fault kinds are injected, *including drops*. A silently
//! dropped request would leave the miner blocked in `recv()` forever —
//! nothing is coming back — so every TCP socket here is wrapped in a
//! [`DeadlineTransport`] first: the wedge surfaces as a transport
//! timeout, which the retry loop already treats as a broken attempt
//! worth reconnecting.

use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::fault::FaultyTransport;
use minedig::net::tcp::{TcpServer, TcpTransport};
use minedig::net::transport::DeadlineTransport;
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::pool::protocol::Token;
use minedig::primitives::fault::{FaultConfig, FaultPlan};
use minedig::primitives::Hash32;
use minedig::shortlink::model::{LinkPopulation, LinkRecord};
use minedig::shortlink::resolve::{resolve_with_pool, resolve_with_pool_retrying};
use minedig::shortlink::service::ShortlinkService;

fn one_link_service() -> ShortlinkService {
    ShortlinkService::new(LinkPopulation {
        links: vec![LinkRecord {
            index: 0,
            token_id: 3,
            required_hashes: 8,
            target_domain: "youtu.be".into(),
            path_hash: 0x5eed_c0de,
            target_categories: Default::default(),
        }],
        users: 1,
    })
}

fn pool_with_tip() -> Pool {
    let pool = Pool::new(PoolConfig {
        share_difficulty: 4,
    });
    pool.announce_tip(&TipInfo {
        height: 1,
        prev_id: Hash32::keccak(b"chaos-tip"),
        prev_timestamp: 100,
        reward: 1_000_000,
        difficulty: 1_000,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"t"))],
    });
    pool
}

fn spawn_server(pool: &Pool) -> TcpServer {
    let p = pool.clone();
    TcpServer::spawn("127.0.0.1:0", move |mut t| {
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind")
}

/// All five kinds, drops included (survivable thanks to the deadline
/// wrapper — see module docs).
fn tcp_chaos_plan(seed: u64, fault_prob: f64) -> FaultPlan {
    FaultPlan::with_config(
        seed,
        FaultConfig {
            fault_prob,
            kind_weights: [1.0, 1.0, 1.0, 1.0, 1.0],
            ..FaultConfig::default()
        },
    )
}

/// Bound every blocking socket operation so that a silently dropped
/// request times out instead of wedging the attempt forever.
const TCP_DEADLINE: std::time::Duration = std::time::Duration::from_millis(500);

fn bounded_connect(addr: std::net::SocketAddr) -> Option<DeadlineTransport<TcpTransport>> {
    let t = TcpTransport::connect(addr).ok()?;
    Some(DeadlineTransport::new(t, TCP_DEADLINE))
}

#[test]
fn mining_over_faulty_tcp_resolves_with_reconnects() {
    let service = one_link_service();
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();

    // Reference: the clean path resolves in one session.
    let clean_url = {
        let t = TcpTransport::connect(addr).unwrap();
        resolve_with_pool(&service, &pool, t, "a", 100_000).unwrap()
    };

    let plan = tcp_chaos_plan(2018, 0.3);
    let (url, retries) = resolve_with_pool_retrying(
        &service,
        &pool,
        |attempt| {
            // Per-attempt labels give each session its own reproducible
            // fault schedule.
            Some(FaultyTransport::new(
                bounded_connect(addr)?,
                plan.clone(),
                &format!("miner-{attempt}"),
            ))
        },
        "a",
        100_000,
        32,
    )
    .expect("chaos must be survivable at p=0.3");

    assert_eq!(url, clean_url, "faults must not change the destination");
    assert!(
        retries > 0,
        "p=0.3 across a whole mining session must break at least one attempt"
    );
    assert!(
        server.connections_accepted() > 2,
        "each broken attempt reconnects with a fresh socket"
    );
    // The creator was credited by a successful session despite the chaos
    // (earlier broken attempts may have credited partial work on top).
    let creator = Token::from_index(3);
    assert!(pool.ledger().lifetime_hashes(&creator) >= 8);
}

#[test]
fn permanent_tcp_outage_reports_the_last_error() {
    let service = one_link_service();
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();

    // Every operation faults: no attempt can complete a session.
    let plan = tcp_chaos_plan(7, 1.0);
    let err = resolve_with_pool_retrying(
        &service,
        &pool,
        |attempt| {
            Some(FaultyTransport::new(
                bounded_connect(addr)?,
                plan.clone(),
                &format!("outage-{attempt}"),
            ))
        },
        "a",
        100_000,
        4,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("mining failed") || msg.contains("hashes credited"),
        "transport-level failure expected, got: {msg}"
    );
}

#[test]
fn dropped_requests_time_out_and_resolve_on_retry() {
    // Drop-only schedule: the fault kind that used to be excluded from
    // this suite. A dropped request wedges a plain recv forever; the
    // deadline wrapper turns it into a timeout the retry loop absorbs.
    let service = one_link_service();
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();

    let plan = FaultPlan::with_config(
        11,
        FaultConfig {
            fault_prob: 0.25,
            kind_weights: [1.0, 0.0, 0.0, 0.0, 0.0],
            ..FaultConfig::default()
        },
    );
    let (url, retries) = resolve_with_pool_retrying(
        &service,
        &pool,
        |attempt| {
            Some(FaultyTransport::new(
                bounded_connect(addr)?,
                plan.clone(),
                &format!("drop-{attempt}"),
            ))
        },
        "a",
        100_000,
        32,
    )
    .expect("drops at p=0.25 must be survivable under a recv deadline");
    assert_eq!(url, "https://youtu.be/5eedc0de");
    assert!(
        retries > 0,
        "p=0.25 across whole sessions must drop at least one message"
    );
}

#[test]
fn refused_connections_consume_attempts_then_recover() {
    let service = one_link_service();
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();
    // The first two attempts cannot even connect; the third succeeds on
    // a clean socket.
    let (url, retries) = resolve_with_pool_retrying(
        &service,
        &pool,
        |attempt| {
            if attempt < 2 {
                return None;
            }
            TcpTransport::connect(addr).ok()
        },
        "a",
        100_000,
        8,
    )
    .unwrap();
    assert_eq!(url, "https://youtu.be/5eedc0de");
    assert_eq!(retries, 2);
}

#[test]
fn unknown_code_is_not_retried() {
    let service = one_link_service();
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();
    let mut attempts = 0u32;
    let err = resolve_with_pool_retrying(
        &service,
        &pool,
        |_| {
            attempts += 1;
            TcpTransport::connect(addr).ok()
        },
        "zzzz",
        100_000,
        8,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unknown short code"));
    assert_eq!(attempts, 1, "a dead code must fail fast");
}
