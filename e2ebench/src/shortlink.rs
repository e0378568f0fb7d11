//! §4.1 as `minedig shortlink` runs it: generate the link universe,
//! walk the ID space until 256 consecutive dead codes, resolve the
//! unbiased tail and the Table 4 sample, then the Fig 3/4 statistics
//! and Table 4/5 categorisation — composed from the shortlink crate's
//! leaf functions.

use crate::trace::{rss_mb, span};
use crate::Layers;
use minedig::primitives::stats::{top1_share, top_k_for_share, Ecdf, Pow2Histogram};
use minedig::primitives::DetRng;
use minedig::shortlink::enumerate::Enumeration;
use minedig::shortlink::ids::{code_to_index, index_to_code};
use minedig::shortlink::model::{LinkPopulation, ModelConfig};
use minedig::shortlink::probe::{probe_with_retry, ProbePolicy};
use minedig::shortlink::resolve::{resolve_step, ResolveReport};
use minedig::shortlink::service::ShortlinkService;
use minedig::web::category::Category;
use std::collections::{BTreeMap, HashSet};

/// Links in the paper's crawl of `cnhv.co` (§4.1).
pub const PAPER_LINKS: u64 = 1_709_203;

/// Dead-run limit of the study's walk.
pub const DEAD_RUN_LIMIT: u64 = 256;

/// Per-link resolve budget of the unbiased tail, in hashes.
pub const RESOLVE_BUDGET: u64 = 10_000;

/// Table 4 sample size per top-10 user.
const PER_USER_SAMPLE: usize = 1_000;

/// Probes and resolutions are timed in batches of this many calls: one
/// span per call would cost more memory than the study itself.
const BATCH: usize = 4_096;

/// The link model the CLI builds for `links` links.
pub fn model_config(links: u64, seed: u64) -> ModelConfig {
    ModelConfig {
        total_links: links,
        users: 12_000.min(links as usize / 4).max(100),
        seed,
    }
}

/// The workload's inputs: the link universe and the service over it.
pub fn setup(links: u64, seed: u64) -> ShortlinkService {
    ShortlinkService::new(LinkPopulation::generate(&model_config(links, seed)))
}

/// Runs the study at `links` links through the leaf functions, with
/// spans, and returns the CLI's result lines.
pub fn traced(links: u64, seed: u64, layers: &mut Layers) -> Vec<String> {
    let config = model_config(links, seed);
    let population = span("shortlink.model", || LinkPopulation::generate(&config));
    let service = span("shortlink.service", || ShortlinkService::new(population));
    layers.set("mem.after_setup_mb", rss_mb());

    let enumeration = walk(&service);
    layers.count("shortlink.probes", enumeration.probed as f64);
    layers.count("shortlink.live", enumeration.docs.len() as f64);
    layers.set("mem.after_enumerate_mb", rss_mb());

    let mut seen = HashSet::new();
    let tail: Vec<String> = enumeration
        .docs
        .iter()
        .filter(|d| {
            seen.insert((d.token_id, d.required_hashes)) && d.required_hashes < RESOLVE_BUDGET
        })
        .map(|d| d.code.clone())
        .collect();
    let tail_report = resolve(&service, &tail, RESOLVE_BUDGET, layers);
    analyze(&service, enumeration, tail_report, seed, layers)
}

/// The sequential ID-space walk: probe codes in increasing order until
/// `DEAD_RUN_LIMIT` consecutive dead ones, each probe through the
/// `LinkProber` with the default retry policy.
fn walk(service: &ShortlinkService) -> Enumeration {
    let policy = ProbePolicy::default();
    let mut e = Enumeration {
        docs: Vec::new(),
        probed: 0,
        failed_probes: 0,
        probe_retries: 0,
    };
    let mut dead_run = 0u64;
    let mut index = 0u64;
    while dead_run < DEAD_RUN_LIMIT {
        span("shortlink.probe", || {
            for _ in 0..BATCH {
                if dead_run >= DEAD_RUN_LIMIT {
                    break;
                }
                let (result, retries) = probe_with_retry(service, &index_to_code(index), &policy);
                e.probed += 1;
                e.probe_retries += u64::from(retries);
                match result {
                    Ok(Some(doc)) => {
                        dead_run = 0;
                        e.docs.push(doc);
                    }
                    Ok(None) => dead_run += 1,
                    Err(_) => e.failed_probes += 1,
                }
                index += 1;
            }
        });
    }
    e
}

fn resolve(
    service: &ShortlinkService,
    codes: &[String],
    budget: u64,
    layers: &mut Layers,
) -> ResolveReport {
    let mut report = ResolveReport::default();
    for chunk in codes.chunks(BATCH) {
        span("shortlink.resolve", || {
            for code in chunk {
                resolve_step(service, &mut report, code, budget);
            }
        });
    }
    layers.count("shortlink.resolved", report.resolved.len() as f64);
    report
}

/// Fig 3/4 statistics, the Table 4 sample (resolved at any cost) and
/// the Table 5 categorisation of the resolved tail; returns the CLI's
/// result lines.
pub fn analyze(
    service: &ShortlinkService,
    enumeration: Enumeration,
    tail_report: ResolveReport,
    seed: u64,
    layers: &mut Layers,
) -> Vec<String> {
    let (top1, users85, le1024, top10_codes) = span("shortlink.analyze", || {
        let per_token = enumeration.links_per_token();
        let top1 = top1_share(&per_token);
        let users85 = top_k_for_share(per_token, 0.85);
        let biased = enumeration.requirements_biased();
        let unbiased = enumeration.requirements_unbiased();
        let mut hist = Pow2Histogram::new(63);
        for &h in &biased {
            hist.add(h);
        }
        let log2 = |v: &u64| (*v as f64).log2();
        std::hint::black_box((
            hist,
            Ecdf::new(biased.iter().map(log2).collect()),
            Ecdf::new(unbiased.iter().map(log2).collect()),
        ));
        let le1024 = unbiased.iter().filter(|&&h| h <= 1024).count() as f64 / unbiased.len() as f64;
        let mut rng = DetRng::seed(seed).derive("shortlink.study.sample");
        let mut sample = Vec::new();
        for token in enumeration.top_tokens(10) {
            let mut codes: Vec<String> = enumeration
                .docs
                .iter()
                .filter(|d| d.token_id == token)
                .map(|d| d.code.clone())
                .collect();
            rng.shuffle(&mut codes);
            codes.truncate(PER_USER_SAMPLE);
            sample.extend(codes);
        }
        (top1, users85, le1024, sample)
    });
    let top10_report = resolve(service, &top10_codes, u64::MAX, layers);
    let top10_domains = span("shortlink.analyze", || {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for (_code, url) in &top10_report.resolved {
            let domain = url
                .trim_start_matches("https://")
                .split('/')
                .next()
                .unwrap_or("");
            *counts.entry(domain.to_string()).or_insert(0) += 1;
        }
        let total = top10_report.resolved.len().max(1) as f64;
        let mut shares: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(d, c)| (d, c as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

        let rulespace = DetRng::seed(seed).derive("shortlink.study.rulespace");
        let mut categories: BTreeMap<Category, u64> = BTreeMap::new();
        for (code, _url) in &tail_report.resolved {
            let Some(link) = code_to_index(code).and_then(|i| service.link(i)) else {
                continue;
            };
            if rulespace.derive(&link.target_domain).chance(0.67) {
                for c in &link.target_categories {
                    *categories.entry(*c).or_insert(0) += 1;
                }
            }
        }
        std::hint::black_box(categories);
        shares
    });
    let hashes = tail_report
        .hashes_spent
        .saturating_add(top10_report.hashes_spent);
    let mut lines = vec![
        format!(
            "top-1 user owns {:.1}% of links; {} users own 85% (paper: 1/3 and 10)",
            top1 * 100.0,
            users85
        ),
        format!(
            "unbiased requirements ≤1024 hashes: {:.1}% (paper: >2/3); resolution cost {:.1}M hashes",
            le1024 * 100.0,
            hashes as f64 / 1e6
        ),
        "top destinations of heavy users:".to_string(),
    ];
    for (d, f) in top10_domains.iter().take(5) {
        lines.push(format!("  {d:<24} {:>5.1}%", f * 100.0));
    }
    lines
}
