//! End-to-end short-link resolution over real TCP sockets.
//!
//! Reproduces the paper's §4.1 tooling in miniature: a Coinhive-style
//! pool serves jobs over localhost TCP (WebSocket-style frames, XOR blob
//! obfuscation ON), a short-link service requires hashes before releasing
//! redirects, and the non-browser resolver authenticates with the link
//! creator's token, reverts the obfuscation, grinds real
//! CryptoNight-style shares and redeems the link.
//!
//! Run with: `cargo run --example shortlink_resolver`

use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::tcp::{TcpServer, TcpTransport};
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::primitives::Hash32;
use minedig::shortlink::ids::code_to_index;
use minedig::shortlink::model::{LinkPopulation, LinkRecord};
use minedig::shortlink::resolve::resolve_with_pool;
use minedig::shortlink::service::ShortlinkService;

fn main() {
    // The pool XORs every blob it serves (the resolver must know to
    // revert it — the paper had to reverse-engineer this).
    let pool = Pool::new(PoolConfig {
        share_difficulty: 8,
    });
    pool.announce_tip(&TipInfo {
        height: 1_600_000,
        prev_id: Hash32::keccak(b"tip"),
        prev_timestamp: 1_526_342_400,
        reward: 4_700_000_000_000,
        difficulty: 55_400_000_000,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"tx"))],
    });

    // Serve endpoint 0 over real TCP.
    let server_pool = pool.clone();
    let server = TcpServer::spawn("127.0.0.1:0", move |mut transport| {
        server_pool.serve(&mut transport, 0, || 1_526_342_460);
    })
    .expect("bind localhost");
    println!("pool endpoint listening on {}", server.addr());

    // A short link requiring 64 credited hashes, at the paper's own
    // example link id.
    let service = ShortlinkService::new(LinkPopulation {
        links: vec![LinkRecord {
            index: code_to_index("3w88o").expect("valid code"),
            token_id: 7,
            required_hashes: 64,
            target_domain: "youtu.be".into(),
            path_hash: 0x3e88,
            target_categories: Default::default(),
        }],
        users: 1,
    });
    let doc = service.visit("3w88o").unwrap();
    println!(
        "visiting cnhv.co/{}: creator token #{}, requires {} hashes",
        doc.code, doc.token_id, doc.required_hashes
    );

    let transport = TcpTransport::connect(server.addr()).expect("connect");
    println!("grinding real CryptoNight-style shares (Test variant)…");
    let url = resolve_with_pool(&service, &pool, transport, "3w88o", 1_000_000).expect("resolve");
    println!("redirect released: {url}");

    let creator = minedig::pool::protocol::Token::from_index(7);
    println!(
        "creator credited {} hashes; pool accepted/rejected shares: {:?}",
        pool.ledger().lifetime_hashes(&creator),
        pool.ledger().share_counts()
    );
}
