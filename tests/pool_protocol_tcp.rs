//! Integration: the pool protocol over real TCP sockets — several miners
//! with distinct tokens mining concurrently, revenue split on a won
//! block, and failure injection (malformed frames, wrong-pool miners).

use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::tcp::{TcpServer, TcpTransport};
use minedig::net::transport::Transport;
use minedig::pool::miner::MinerClient;
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::pool::protocol::{ServerMsg, Token};
use minedig::pow::Variant;
use minedig::primitives::Hash32;

fn pool_with_tip(share_difficulty: u64) -> Pool {
    let pool = Pool::new(PoolConfig { share_difficulty });
    pool.announce_tip(&TipInfo {
        height: 1,
        prev_id: Hash32::keccak(b"tcp-tip"),
        prev_timestamp: 100,
        reward: 1_000_000_000,
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

#[test]
fn three_miners_share_revenue_pro_rata() {
    let pool = pool_with_tip(2);
    let server = spawn_server(&pool);
    let addr = server.addr();

    // Three miners with targets 8, 16 and 24 credited hashes.
    let handles: Vec<_> = [(1u64, 8u64), (2, 16), (3, 24)]
        .into_iter()
        .map(|(idx, target)| {
            std::thread::spawn(move || {
                let t = TcpTransport::connect(addr).unwrap();
                let mut client = MinerClient::new(t, Token::from_index(idx), Variant::Test);
                client.auth().unwrap();
                client.mine_until_credited(target, 200_000).unwrap()
            })
        })
        .collect();
    for h in handles {
        let report = h.join().unwrap();
        assert!(report.shares_accepted > 0);
    }

    // The pool wins a block; payouts follow credited hashes 70/30.
    let _block = pool.win_block(170);
    let ledger = pool.ledger();
    let balances: Vec<u64> = (1..=3)
        .map(|i| ledger.balance(&Token::from_index(i)))
        .collect();
    assert!(
        balances[0] < balances[1] && balances[1] < balances[2],
        "{balances:?}"
    );
    let total: u64 = balances.iter().sum::<u64>() + ledger.pool_balance();
    assert_eq!(total, 1_000_000_000);
    let pool_cut = ledger.pool_balance() as f64 / 1_000_000_000.0;
    assert!((0.29..0.32).contains(&pool_cut), "pool cut {pool_cut}");
}

#[test]
fn malformed_frames_get_error_replies_not_crashes() {
    let pool = pool_with_tip(1);
    let server = spawn_server(&pool);
    let mut t = TcpTransport::connect(server.addr()).unwrap();
    for garbage in [&b"\xff\xfe\x00"[..], b"{}", b"{\"type\":\"warp\"}"] {
        t.send(garbage).unwrap();
        let reply = t.recv().unwrap();
        let msg = ServerMsg::decode(&reply).unwrap();
        assert!(matches!(msg, ServerMsg::Error { .. }), "for {garbage:?}");
    }
    // The session is still usable afterwards.
    let mut client = MinerClient::new(t, Token::from_index(9), Variant::Test);
    assert_eq!(client.auth().unwrap(), 0);
}

#[test]
fn wrong_variant_miner_earns_nothing() {
    // A miner hashing with the wrong algorithm (variant mismatch) gets
    // every share rejected — like pointing a stock miner at Coinhive.
    let pool = pool_with_tip(1); // pool validates with Variant::Test
    let server = spawn_server(&pool);
    let t = TcpTransport::connect(server.addr()).unwrap();
    let mut client = MinerClient::new(t, Token::from_index(5), Variant::Lite);
    client.auth().unwrap();
    let report = client.mine_until_credited(2, 64).unwrap();
    assert_eq!(report.shares_accepted, 0);
    assert!(report.shares_submitted > 0);
}

#[test]
fn pool_survives_client_disconnects_mid_session() {
    let pool = pool_with_tip(1);
    let server = spawn_server(&pool);
    for _ in 0..5 {
        let mut t = TcpTransport::connect(server.addr()).unwrap();
        t.send(&minedig::pool::protocol::ClientMsg::GetJob.encode())
            .unwrap();
        drop(t); // hang up without reading
    }
    // A fresh client still works.
    let t = TcpTransport::connect(server.addr()).unwrap();
    let mut client = MinerClient::new(t, Token::from_index(1), Variant::Test);
    assert_eq!(client.auth().unwrap(), 0);
    assert!(client.get_job().is_ok());
    assert_eq!(server.connections_accepted(), 6);
}
