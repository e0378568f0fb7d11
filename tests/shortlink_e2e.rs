//! Integration: the full §4.1 loop — enumerate the link space, resolve a
//! link with real PoW over TCP, and confirm the measurement statistics
//! recover the generator's ground truth.

use minedig::chain::netsim::TipInfo;
use minedig::chain::tx::Transaction;
use minedig::net::tcp::{TcpServer, TcpTransport};
use minedig::pool::pool::{Pool, PoolConfig};
use minedig::pool::protocol::Token;
use minedig::primitives::Hash32;
use minedig::shortlink::enumerate::enumerate_links;
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::resolve::{resolve_accounted, resolve_with_pool};
use minedig::shortlink::service::ShortlinkService;

#[test]
fn enumerate_then_resolve_cheap_links() {
    let pop = LinkPopulation::generate(&ModelConfig {
        total_links: 8_000,
        users: 600,
        seed: 77,
    });
    let truth_cheap = pop
        .links
        .iter()
        .filter(|l| l.required_hashes <= 10_000)
        .count();
    let service = ShortlinkService::new(pop);
    let e = enumerate_links(&service, 128);
    assert_eq!(e.docs.len(), 8_000);

    let all_codes: Vec<String> = e.docs.iter().map(|d| d.code.clone()).collect();
    let report = resolve_accounted(&service, &all_codes, 10_000);
    assert_eq!(report.resolved.len(), truth_cheap);
    assert_eq!(report.skipped_over_budget as usize, 8_000 - truth_cheap);
    // Every resolved URL is well-formed.
    for (_, url) in &report.resolved {
        assert!(url.starts_with("https://"));
    }
}

#[test]
fn real_pow_resolution_over_tcp_credits_the_creator() {
    let pool = Pool::new(PoolConfig {
        share_difficulty: 8,
        ..PoolConfig::default()
    });
    pool.announce_tip(&TipInfo {
        height: 9,
        prev_id: Hash32::keccak(b"sl-tip"),
        prev_timestamp: 500,
        reward: 77,
        difficulty: 100,
        mempool: vec![Transaction::transfer(Hash32::keccak(b"m"))],
    });
    let p = pool.clone();
    let server = TcpServer::spawn("127.0.0.1:0", move |mut t| {
        p.serve(&mut t, 2, || 530);
    })
    .unwrap();

    let service = ShortlinkService::new(LinkPopulation {
        links: vec![minedig::shortlink::model::LinkRecord {
            index: 0,
            token_id: 11,
            required_hashes: 24,
            target_domain: "zippyshare.com".into(),
            path_hash: 0xf11e,
            target_categories: Default::default(),
        }],
        users: 1,
    });

    let transport = TcpTransport::connect(server.addr()).unwrap();
    let url = resolve_with_pool(&service, &pool, transport, "a", 500_000).unwrap();
    assert_eq!(url, "https://zippyshare.com/0000f11e");
    let creator = Token::from_index(11);
    assert!(pool.ledger().lifetime_hashes(&creator) >= 24);
}

#[test]
fn infeasible_link_cannot_be_resolved_within_budget() {
    // The 10^19-hash links from Fig 4's tail: the resolver must give up
    // cleanly rather than grind forever.
    let service = ShortlinkService::new(LinkPopulation {
        links: vec![minedig::shortlink::model::LinkRecord {
            index: 0,
            token_id: 1,
            required_hashes: minedig::shortlink::model::MAX_HASHES,
            target_domain: "never.example".into(),
            path_hash: 0,
            target_categories: Default::default(),
        }],
        users: 1,
    });
    let report = resolve_accounted(&service, &["a".to_string()], 10_000);
    assert!(report.resolved.is_empty());
    assert_eq!(report.skipped_over_budget, 1);
    assert_eq!(report.hashes_spent, 0);
}

#[test]
fn measurement_recovers_generator_ground_truth() {
    let config = ModelConfig {
        total_links: 12_000,
        users: 900,
        seed: 3,
    };
    let pop = LinkPopulation::generate(&config);
    let service = ShortlinkService::new(pop.clone());
    let e = enumerate_links(&service, 64);
    assert_eq!(e.links_per_token(), pop.links_per_token());
    let mut truth_unbiased = pop.hash_requirements_unbiased();
    let mut measured_unbiased = e.requirements_unbiased();
    truth_unbiased.sort_unstable();
    measured_unbiased.sort_unstable();
    assert_eq!(truth_unbiased, measured_unbiased);
}
