//! The cooperative async backend over **real TCP sockets**.
//!
//! The in-process suites prove async ≡ sequential ≡ sharded over
//! channel transports; this suite re-proves it with actual kernel
//! sockets in the loop: a live [`TcpServer`] answering the pool wire
//! protocol, a [`WireJobSource`] holding one connection per endpoint,
//! and the executor's readiness probes hitting `recv_timeout(ZERO)` on
//! real file descriptors. That zero-timeout probe is the regression
//! under test — std rejects `set_read_timeout(Some(ZERO))`, so the
//! transport must switch the socket nonblocking instead of surfacing
//! `InvalidInput` as a hard I/O error.
//!
//! `MINEDIG_CONCURRENCY` and `MINEDIG_FAULT_SEED` are the CI matrix
//! axes, as in `backend_matrix.rs`.

use minedig::analysis::poller::{FaultyJobSource, Observer, PollPolicy, WireJobSource};
use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::aio::{recv_ready, MultiParkWait};
use minedig::net::tcp::{TcpParker, TcpServer, TcpTransport};
use minedig::net::transport::{Transport, TransportError};
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::pool::protocol::Token;
use minedig::primitives::aexec::{block_on, AsyncExecutor, ParkWait};
use minedig::primitives::fault::{FaultPlan, FAULT_SEED_ENV};
use minedig::primitives::supervise::Backend;
use minedig::primitives::Hash32;
use minedig::shortlink::model::{LinkPopulation, LinkRecord};
use minedig::shortlink::resolve::{resolve_with_pool, resolve_with_pool_async};
use minedig::shortlink::service::ShortlinkService;
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

/// Base fault seed from the environment (the CI matrix axis).
fn base_seed() -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
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

/// `recv_ready` (the async adapter the whole backend rests on) over a
/// real socket: Pending while the wire is quiet, Ready with the frame
/// once the server replies.
#[test]
fn recv_ready_suspends_then_resolves_over_real_tcp() {
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    let msg = minedig::pool::protocol::ClientMsg::Peek {
        endpoint: 3,
        now: 42,
    };
    t.send(&msg.encode()).unwrap();
    let raw: Vec<u8> = block_on(|ctx| {
        let t = &mut t;
        async move { ctx.io(recv_ready(t)).await.unwrap() }
    });
    let expected = pool.peek_job(3, 42).unwrap();
    match minedig::pool::protocol::ServerMsg::decode(&raw).unwrap() {
        minedig::pool::protocol::ServerMsg::Job(job) => {
            assert_eq!(job.blob_hex, expected.blob_hex, "same job as a direct peek")
        }
        other => panic!("expected a job, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Observer equivalence over real sockets
// ---------------------------------------------------------------------

/// Async over real TCP ≡ blocking over real TCP ≡ the sharded backend's
/// (in-line) sweep over real TCP ≡ the in-process pool: same clusters,
/// same counters, with every endpoint's fetch in flight at once on one
/// thread.
#[test]
fn async_wire_sweeps_match_every_blocking_backend() {
    let pool = pool_with_tip();
    let server = spawn_server(&pool);
    let addr = server.addr();

    let mut reference = Observer::new(pool.clone(), true);
    let mut seq = Observer::with_source(wire_source(&pool, addr), true, PollPolicy::default());
    let mut sharded = Observer::with_source(wire_source(&pool, addr), true, PollPolicy::default());
    let mut asynced = Observer::with_source(wire_source(&pool, addr), true, PollPolicy::default());

    let aexec = AsyncExecutor::new(64);
    let endpoints = pool.endpoint_count() as u64;
    for t in sweep_times() {
        reference.poll_all(t);
        seq.poll_all(t);
        assert!(sharded.sweep(t, &Backend::Sharded(4)).is_none());
        let stats = asynced.poll_all_async(t, &aexec);
        assert_eq!(stats.tasks, endpoints, "one task per endpoint");
        assert_eq!(
            stats.in_flight_high_water, endpoints,
            "all {endpoints} fetches in flight at once on one thread"
        );
    }

    assert_eq!(asynced.current_prev(), reference.current_prev());
    assert_eq!(asynced.current_blob_count(), reference.current_blob_count());
    for obs in [&seq, &sharded, &asynced] {
        let (s, r) = (obs.stats(), reference.stats());
        assert_eq!(s.polls, r.polls);
        assert_eq!(s.answered, r.answered);
        assert_eq!(s.offline, r.offline);
        assert_eq!(s.endpoints_down, r.endpoints_down);
        assert_eq!(s.max_blobs_per_prev, r.max_blobs_per_prev);
        assert!(s.balanced());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The same equivalence under injected fault schedules, at any
    // in-flight budget: transient faults plus outlasting retries leave
    // the async wire sweep bit-identical to the clean in-process
    // observation.
    #[test]
    fn faulty_async_wire_sweeps_match_the_clean_observation(
        fault_off in 0u64..1_000,
        prob in 0.1f64..0.6,
        concurrency in 1usize..=64,
    ) {
        let pool = pool_with_tip();
        let server = spawn_server(&pool);
        let addr = server.addr();
        let plan = FaultPlan::transient_only(base_seed().wrapping_add(fault_off), prob);

        let mut clean = Observer::new(pool.clone(), true);
        let mut faulty_seq = Observer::with_source(
            FaultyJobSource::new(wire_source(&pool, addr), plan.clone()),
            true,
            PollPolicy::outlasting(&plan),
        );
        let mut faulty_async = Observer::with_source(
            FaultyJobSource::new(wire_source(&pool, addr), plan.clone()),
            true,
            PollPolicy::outlasting(&plan),
        );
        let aexec = AsyncExecutor::new(concurrency);
        for t in sweep_times() {
            clean.poll_all(t);
            faulty_seq.poll_all(t);
            faulty_async.poll_all_async(t, &aexec);
        }

        prop_assert_eq!(faulty_async.current_prev(), clean.current_prev());
        let (a, s, c) = (faulty_async.stats(), faulty_seq.stats(), clean.stats());
        prop_assert_eq!(a.retries, s.retries, "same schedule, same retries");
        prop_assert_eq!(a.reconnects, s.reconnects);
        prop_assert_eq!(a.answered, c.answered, "outlasting retries clear every fault");
        prop_assert_eq!(a.endpoints_down, 0u64);
        prop_assert!(a.balanced());
    }
}

// ---------------------------------------------------------------------
// Idle behaviour: park, don't spin
// ---------------------------------------------------------------------

/// With replies held back by a slow server, the executor's idle sweeps
/// park on a socket's readability instead of busy-repolling: the probe
/// count stays orders of magnitude below what a spin loop would rack
/// up, and the sweep still matches the in-process observation.
#[test]
fn idle_sweeps_park_on_the_socket_instead_of_spinning() {
    let pool = pool_with_tip();
    let p = pool.clone();
    // Every connection's session starts ~20 ms late, so a whole sweep
    // has all fetches pending with nothing readable for a while.
    let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
        std::thread::sleep(Duration::from_millis(20));
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind");
    let addr = server.addr();

    // Capture one parker per dialed connection; the idle strategy
    // blocks on the first endpoint's socket.
    let parkers: std::sync::Arc<Mutex<Vec<TcpParker>>> =
        std::sync::Arc::new(Mutex::new(Vec::new()));
    let captured = parkers.clone();
    let source = WireJobSource::new(pool.endpoint_count(), Duration::from_secs(5), move |_| {
        let t = TcpTransport::connect(addr).ok()?;
        if let Ok(p) = t.parker() {
            captured.lock().unwrap().push(p);
        }
        Some(t)
    });

    let mut reference = Observer::new(pool.clone(), true);
    let mut asynced = Observer::with_source(source, true, PollPolicy::default());
    let parks = std::cell::Cell::new(0u64);
    let mut idle = ParkWait::new(Duration::from_millis(5), |budget| {
        parks.set(parks.get() + 1);
        let guard = parkers.lock().unwrap();
        guard.first().is_some_and(|p| p.wait(budget))
    });
    let aexec = AsyncExecutor::new(64);
    reference.poll_all(1_000);
    let stats = asynced.poll_all_async_idle(1_000, &aexec, &mut idle);

    assert!(
        parks.get() > 0,
        "a 20 ms quiet wire must trigger idle parking"
    );
    // A 100 µs spin loop would re-probe 32 sockets ~200 times while the
    // server sleeps (~6400 repolls); parking caps idle sweeps at the
    // park budget's cadence.
    assert!(
        stats.io_repolls < 2_000,
        "io_repolls {} suggests the executor span instead of parking",
        stats.io_repolls
    );
    assert_eq!(asynced.current_prev(), reference.current_prev());
    assert_eq!(asynced.stats().answered, reference.stats().answered);
}

/// Same quiet-wire setup, but the idle strategy is [`MultiParkWait`]
/// watching *every* dialed connection instead of pinning one socket:
/// whichever endpoint's session wakes first ends the park, and the
/// sweep still matches the in-process observation bit for bit.
#[test]
fn multi_park_idle_strategy_watches_every_endpoint() {
    let pool = pool_with_tip();
    let p = pool.clone();
    let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
        std::thread::sleep(Duration::from_millis(20));
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind");
    let addr = server.addr();

    let mut idle = MultiParkWait::new(Duration::from_millis(5));
    let registrar = idle.registrar();
    let source = WireJobSource::new(pool.endpoint_count(), Duration::from_secs(5), move |_| {
        let t = TcpTransport::connect(addr).ok()?;
        if let Ok(p) = t.parker() {
            registrar.register(p);
        }
        Some(t)
    });

    let mut reference = Observer::new(pool.clone(), true);
    let mut asynced = Observer::with_source(source, true, PollPolicy::default());
    let aexec = AsyncExecutor::new(64);
    reference.poll_all(1_000);
    let stats = asynced.poll_all_async_idle(1_000, &aexec, &mut idle);

    assert_eq!(
        idle.watched(),
        pool.endpoint_count(),
        "every dialed connection must land in the watch set"
    );
    assert!(
        idle.parks() > 0,
        "a 20 ms quiet wire must trigger idle parking"
    );
    assert!(
        stats.io_repolls < 2_000,
        "io_repolls {} suggests the executor span instead of parking",
        stats.io_repolls
    );
    assert_eq!(asynced.current_prev(), reference.current_prev());
    assert_eq!(asynced.stats().answered, reference.stats().answered);
}

/// Mid-run **connect**: endpoints whose eager dial is refused only come
/// up when the sweep's retry loop redials them — after the executor
/// already owns the idle strategy — so their parkers can only reach the
/// watch set through the [`MultiParkRegistrar`]. The watch set must
/// grow mid-sweep and the late endpoints must still answer.
#[test]
fn multi_park_watch_set_grows_for_endpoints_dialed_mid_sweep() {
    let pool = pool_with_tip();
    let p = pool.clone();
    let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
        std::thread::sleep(Duration::from_millis(20));
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind");
    let addr = server.addr();

    let endpoints = pool.endpoint_count();
    // Odd endpoints refuse their first dial (the eager one in
    // `WireJobSource::new`) and start the sweep down.
    let deferred: std::sync::Arc<Mutex<std::collections::HashSet<usize>>> =
        std::sync::Arc::new(Mutex::new((0..endpoints).filter(|e| e % 2 == 1).collect()));
    let late = deferred.lock().unwrap().len() as u64;
    assert!(late > 0, "the pool must have odd endpoints to defer");

    let mut idle = MultiParkWait::new(Duration::from_millis(5));
    let registrar = idle.registrar();
    let gate = deferred.clone();
    let source = WireJobSource::new(endpoints, Duration::from_secs(5), move |e| {
        if gate.lock().unwrap().remove(&e) {
            return None;
        }
        let t = TcpTransport::connect(addr).ok()?;
        if let Ok(p) = t.parker() {
            registrar.register(p);
        }
        Some(t)
    });
    assert_eq!(
        idle.watched() as u64,
        endpoints as u64 - late,
        "deferred endpoints must not be watched before the sweep"
    );

    let mut reference = Observer::new(pool.clone(), true);
    let mut asynced = Observer::with_source(source, true, PollPolicy::default());
    let aexec = AsyncExecutor::new(64);
    reference.poll_all(1_000);
    asynced.poll_all_async_idle(1_000, &aexec, &mut idle);

    assert_eq!(
        idle.watched(),
        endpoints,
        "every mid-sweep dial must reach the watch set through the registrar"
    );
    assert!(
        idle.parks() > 0,
        "a 20 ms quiet wire must trigger idle parking"
    );
    let (s, r) = (asynced.stats(), reference.stats());
    assert_eq!(
        s.reconnects, late,
        "each deferred endpoint redials exactly once"
    );
    assert_eq!(s.answered, r.answered, "late dials still answer the sweep");
    assert_eq!(s.endpoints_down, 0);
    assert!(s.balanced());
    assert_eq!(asynced.current_prev(), reference.current_prev());
}

/// Mid-run **disconnect**: one server session hangs up after its first
/// reply, so the next sweep finds a dead socket. The fetch surfaces as
/// `Closed`, the retry loop redials, and the replacement connection's
/// parker joins the watch set *alongside* the dead one — a closed
/// socket's `peek` reports ready (EOF), so a stale watch-set entry can
/// end a park early but can never wedge one.
#[test]
fn multi_park_survives_an_endpoint_dying_mid_sweep() {
    use minedig::pool::protocol::{ClientMsg, ServerMsg};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let pool = pool_with_tip();
    let p = pool.clone();
    let sessions = std::sync::Arc::new(AtomicUsize::new(0));
    let order = sessions.clone();
    let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
        let i = order.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        if i == 0 {
            // Doomed session: answer exactly one probe, then hang up.
            if let Ok(raw) = t.recv() {
                if let Ok(ClientMsg::Peek { endpoint, now }) = ClientMsg::decode(&raw) {
                    if let Ok(job) = p.peek_job(endpoint as usize, now) {
                        let _ = t.send(&ServerMsg::Job(job).encode());
                    }
                }
            }
            return;
        }
        p.serve(&mut t, 0, || 160);
    })
    .expect("bind");
    let addr = server.addr();

    let endpoints = pool.endpoint_count();
    let mut idle = MultiParkWait::new(Duration::from_millis(5));
    let registrar = idle.registrar();
    let source = WireJobSource::new(endpoints, Duration::from_secs(5), move |_| {
        let t = TcpTransport::connect(addr).ok()?;
        if let Ok(p) = t.parker() {
            registrar.register(p);
        }
        Some(t)
    });
    assert_eq!(idle.watched(), endpoints);

    let mut reference = Observer::new(pool.clone(), true);
    let mut asynced = Observer::with_source(source, true, PollPolicy::default());
    let aexec = AsyncExecutor::new(64);
    // Sweep one: every session answers (the doomed one for the last
    // time). Sweep two: the dead socket fails, redials, answers.
    for t in [1_000, 1_010] {
        reference.poll_all(t);
        asynced.poll_all_async_idle(t, &aexec, &mut idle);
    }

    assert_eq!(
        idle.watched(),
        endpoints + 1,
        "the replacement parker joins the watch set; the dead one stays"
    );
    assert!(
        idle.parks() > 0,
        "a 20 ms quiet wire must trigger idle parking"
    );
    let (s, r) = (asynced.stats(), reference.stats());
    assert_eq!(s.reconnects, 1, "exactly one endpoint died and redialed");
    assert_eq!(
        s.answered, r.answered,
        "the dead endpoint recovers in-sweep"
    );
    assert_eq!(s.endpoints_down, 0);
    assert!(s.balanced());
    assert_eq!(asynced.current_prev(), reference.current_prev());
}

// ---------------------------------------------------------------------
// Shortlink resolution: async over real TCP ≡ blocking over real TCP
// ---------------------------------------------------------------------

fn one_link_service() -> ShortlinkService {
    ShortlinkService::new(LinkPopulation {
        links: vec![LinkRecord {
            index: 0,
            token_id: 3,
            required_hashes: 8,
            target_domain: "youtu.be".into(),
            path_hash: 0x5eed_c0de,
            target_categories: Box::new([]),
        }],
        users: 1,
    })
}

fn mining_pool() -> Pool {
    let pool = Pool::new(PoolConfig {
        share_difficulty: 4,
        ..PoolConfig::default()
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

/// The full §4.1 mining path — auth, jobs, CryptoNight shares, redeem —
/// through the async client over a real socket lands on the same URL
/// and credits the creator identically to the blocking client.
#[test]
fn async_resolution_over_tcp_matches_the_blocking_path() {
    // Blocking reference on its own pool/server pair.
    let (service, pool) = (one_link_service(), mining_pool());
    let server = spawn_server(&pool);
    let t = TcpTransport::connect(server.addr()).unwrap();
    let url = resolve_with_pool(&service, &pool, t, "a", 100_000).unwrap();
    let creator = Token::from_index(3);
    let blocking_credit = pool.ledger().lifetime_hashes(&creator);

    // Async run on an identical, independent pair.
    let (service, pool) = (one_link_service(), mining_pool());
    let server = spawn_server(&pool);
    let t = TcpTransport::connect(server.addr()).unwrap();
    let (svc, pl) = (&service, &pool);
    let async_url: String = block_on(|ctx| async move {
        resolve_with_pool_async(&ctx, svc, pl, t, "a", 100_000)
            .await
            .unwrap()
    });

    assert_eq!(async_url, url);
    assert_eq!(async_url, "https://youtu.be/5eedc0de");
    assert_eq!(pool.ledger().lifetime_hashes(&creator), blocking_credit);
}
