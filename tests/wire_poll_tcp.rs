//! The observer's wire path over **real TCP sockets**.
//!
//! The in-process suites poll the pool directly or over channel
//! transports; this suite puts actual kernel sockets in the loop: a live
//! [`TcpServer`] answering the pool wire protocol and a
//! [`WireJobSource`] holding one connection per endpoint, whose sweeps
//! must match the in-process pool's. It also pins the transport's
//! zero-timeout semantics on real file descriptors: std rejects
//! `set_read_timeout(Some(ZERO))`, so the transport must switch the
//! socket nonblocking instead of surfacing `InvalidInput` as a hard I/O
//! error.
//!
//! `MINEDIG_FAULT_SEED` is the CI matrix axis, as in
//! `backend_matrix.rs`.

use minedig::analysis::poller::{FaultyJobSource, Observer, PollPolicy, WireJobSource};
use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::tcp::{TcpServer, TcpTransport};
use minedig::net::transport::{Transport, TransportError};
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::primitives::fault::FaultPlan;
use minedig::primitives::Hash32;
use proptest::prelude::*;
use std::time::Duration;

/// Base fault seed from `MINEDIG_FAULT_SEED` (the CI matrix axis), 0
/// when unset; a malformed value panics naming the variable.
fn base_seed() -> u64 {
    FaultPlan::parse(|name| std::env::var(name).ok())
        .unwrap_or_else(|e| panic!("{e}"))
        .map_or(0, |plan| plan.seed())
}

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

/// A live TCP pool server; every connection gets a full protocol
/// session (auth, submit, and the observer's `Peek` probes).
fn spawn_server(pool: &Pool) -> TcpServer {
    let p = pool.clone();
    TcpServer::spawn("127.0.0.1:0", move |mut t| {
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind")
}

/// A wire source with one real TCP connection per pool endpoint.
fn wire_source(pool: &Pool, addr: std::net::SocketAddr) -> WireJobSource<TcpTransport> {
    WireJobSource::new(pool.endpoint_count(), Duration::from_secs(5), move |_| {
        TcpTransport::connect(addr).ok()
    })
}

/// Sweep times shared by the equivalence tests.
fn sweep_times() -> impl Iterator<Item = u64> {
    (1_000..1_100).step_by(10)
}

// ---------------------------------------------------------------------
// Zero-timeout regressions against a live server
// ---------------------------------------------------------------------

/// The original bug: a zero-timeout readiness probe on a freshly
/// connected socket must report `Timeout` ("nothing yet"), never `Io`
/// (std rejecting `set_read_timeout(Some(ZERO))`).
#[test]
fn zero_timeout_probes_on_a_live_server_never_error() {
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    for _ in 0..50 {
        match t.recv_timeout(Duration::ZERO) {
            Err(TransportError::Timeout) => {}
            other => panic!("zero-timeout probe must be Timeout, got {other:?}"),
        }
    }
    // Zero-timeout *sends* take the nonblocking path too; a small frame
    // fits the socket buffer and must go through in one call.
    let msg = minedig::pool::protocol::ClientMsg::Peek {
        endpoint: 0,
        now: 7,
    };
    t.send_timeout(&msg.encode(), Duration::ZERO)
        .expect("small nonblocking send fits the socket buffer");
    // After probing, the blocking path still works on the same socket —
    // mode switching must be transparent.
    let raw = t.recv_timeout(Duration::from_secs(5)).unwrap();
    let reply = minedig::pool::protocol::ServerMsg::decode(&raw).unwrap();
    assert!(matches!(reply, minedig::pool::protocol::ServerMsg::Job(_)));
}

// ---------------------------------------------------------------------
// Observer equivalence over real sockets
// ---------------------------------------------------------------------

/// Sweeps over real TCP ≡ the in-process pool: same clusters, same
/// counters.
#[test]
fn wire_sweeps_over_tcp_match_the_in_process_pool() {
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();

    let mut reference = Observer::new(pool.clone(), true);
    let mut wired = Observer::with_source(wire_source(&pool, addr), true, PollPolicy::default());
    for t in sweep_times() {
        reference.poll_all(t);
        wired.poll_all(t);
    }

    assert_eq!(wired.current_prev(), reference.current_prev());
    assert_eq!(wired.current_blob_count(), reference.current_blob_count());
    let (s, r) = (wired.stats(), reference.stats());
    assert_eq!(s.polls, r.polls);
    assert_eq!(s.answered, r.answered);
    assert_eq!(s.offline, r.offline);
    assert_eq!(s.endpoints_down, r.endpoints_down);
    assert_eq!(s.max_blobs_per_prev, r.max_blobs_per_prev);
    assert!(s.balanced());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The same equivalence under injected fault schedules: transient
    // faults plus outlasting retries leave the wire sweep bit-identical
    // to the clean in-process observation.
    #[test]
    fn faulty_wire_sweeps_over_tcp_match_the_clean_observation(
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.6,
    ) {
        let pool = pool_with_tip();
        let server = spawn_server(&pool);
        let addr = server.addr();
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);

        let mut clean = Observer::new(pool.clone(), true);
        let mut faulty = Observer::with_source(
            FaultyJobSource::new(wire_source(&pool, addr), plan.clone()),
            true,
            PollPolicy::outlasting(&plan),
        );
        for t in sweep_times() {
            clean.poll_all(t);
            faulty.poll_all(t);
        }

        prop_assert_eq!(faulty.current_prev(), clean.current_prev());
        let (f, c) = (faulty.stats(), clean.stats());
        prop_assert_eq!(f.answered, c.answered, "outlasting retries clear every fault");
        prop_assert_eq!(f.endpoints_down, 0u64);
        prop_assert!(f.balanced());
    }
}
