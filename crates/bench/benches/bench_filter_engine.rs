//! NoCoin filter-engine throughput: pages scanned per second — the cost
//! that bounds how fast the §3.1 pipeline can cover 138 M domains.
//!
//! `scan_pages` runs the keyword-indexed engine over 256 typical landing
//! pages; `beyond_cut_page` labels one page cut at 256 kB, where the
//! tag scanner's word-at-a-time pass over text carries the cost (such
//! pages hold most of the bytes a scan reads).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minedig_nocoin::NoCoinEngine;
use minedig_web::page::{zgrab_fetch, ZGRAB_CUT};
use minedig_web::universe::Population;
use minedig_web::zone::Zone;
use std::hint::black_box;

fn bench_scan_pages(c: &mut Criterion) {
    let engine = NoCoinEngine::new();
    let pop = Population::generate(Zone::Org, 7, 64);
    let pages: Vec<(String, String)> = pop
        .scanned_domains()
        .filter_map(|d| zgrab_fetch(d, 7).map(|html| (d.name.clone(), html)))
        .take(256)
        .collect();
    assert!(!pages.is_empty());

    let mut group = c.benchmark_group("nocoin");
    group.throughput(Throughput::Elements(pages.len() as u64));
    group.bench_function("scan_pages", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (domain, html) in &pages {
                hits += engine.scan_page(black_box(domain), black_box(html)).len();
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_beyond_cut_page(c: &mut Criterion) {
    let engine = NoCoinEngine::new();
    let pop = Population::generate(Zone::Org, 7, 0);
    let mut domain = pop
        .artifacts
        .iter()
        .find(|d| d.tls)
        .expect("a TLS artifact domain")
        .clone();
    domain.beyond_cut = true;
    let html = zgrab_fetch(&domain, 7).expect("TLS domains answer");
    assert_eq!(html.len(), ZGRAB_CUT);

    let mut group = c.benchmark_group("nocoin");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("beyond_cut_page", |b| {
        b.iter(|| engine.page_labels(black_box(&domain.name), black_box(&html)))
    });
    group.finish();
}

fn bench_single_rule(c: &mut Criterion) {
    let rule = minedig_nocoin::Rule::parse("||coinhive.com^").unwrap();
    let url = "https://www.coinhive.com/lib/coinhive.min.js";
    c.bench_function("host_anchor_match", |b| {
        b.iter(|| black_box(rule.matches(black_box(url))))
    });
}

criterion_group!(
    benches,
    bench_scan_pages,
    bench_beyond_cut_page,
    bench_single_rule
);
criterion_main!(benches);
