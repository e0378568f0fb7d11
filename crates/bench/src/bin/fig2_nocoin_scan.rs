//! Figure 2: NoCoin-detected miners on Alexa and .com/.net/.org, two scan
//! dates each, with the share of the top filter targets.
//!
//! Both dates are full zgrab scans: the second date scans the first
//! date's population after churn (`minedig_web::churn::second_scan`).

use minedig_bench::{seed, SEED_ENV};
use minedig_core::campaign::ZgrabCampaign;
use minedig_core::report::{bar_chart, campaign_line, comparison_table, Comparison};
use minedig_core::scan::{scan_len, FetchModel, ZgrabScanOutcome};
use minedig_nocoin::list::ServiceLabel;
use minedig_primitives::supervise::{run_to_end, Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_web::churn::{second_scan, DEFAULT_REMOVAL_RATE};
use minedig_web::universe::Population;
use minedig_web::zone::Zone;

/// Paper's first/second scan-date counts per zone.
const PAPER: [(Zone, f64, f64); 4] = [
    (Zone::Alexa, 710.0, 621.0),
    (Zone::Com, 6_676.0, 5_744.0),
    (Zone::Net, 618.0, 553.0),
    (Zone::Org, 473.0, 399.0),
];

/// Scans `population` on `backend`, with its campaign line on stderr.
fn scan(
    label: &str,
    population: &Population,
    seed: u64,
    model: &FetchModel,
    backend: Backend,
) -> ZgrabScanOutcome {
    let started = std::time::Instant::now();
    let outcome = run_to_end(ZgrabCampaign::new(population, seed, model, backend));
    eprint!(
        "{}",
        campaign_line(
            label,
            &backend,
            scan_len(population) as u64,
            "domains",
            started.elapsed()
        )
    );
    outcome
}

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV]));
    let seed = configured(seed(&env));
    let backend = configured(Backend::parse(&env));
    println!("Figure 2 — NoCoin detected miners (zgrab, TLS-only, 256 kB)\n");

    let model = FetchModel::default();
    let mut rows = Vec::new();
    for (zone, paper_first, paper_second) in PAPER {
        let population = Population::generate(zone, seed, 500);
        let first = scan(
            &format!("zgrab scan 1 {}", zone.label()),
            &population,
            seed,
            &model,
            backend,
        );
        let second = scan(
            &format!("zgrab scan 2 {}", zone.label()),
            &second_scan(&population, seed, DEFAULT_REMOVAL_RATE),
            seed,
            &model,
            backend,
        );

        rows.push(Comparison::new(
            &format!("{} scan 1", zone.label()),
            paper_first,
            first.hit_domains as f64,
        ));
        rows.push(Comparison::new(
            &format!("{} scan 2", zone.label()),
            paper_second,
            second.hit_domains as f64,
        ));

        // Per-label shares (the stacked bars of Fig 2).
        let total = first.hit_domains.max(1) as f64;
        let mut series: Vec<(String, f64)> = first
            .label_counts
            .iter()
            .map(|(l, c)| (l.label().to_string(), *c as f64 / total))
            .collect();
        series.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!(
            "{}",
            bar_chart(
                &format!(
                    "{} scan 1: {} hits on {} domains (clean-sample FPs: {}/{})",
                    zone.label(),
                    first.hit_domains,
                    population.total,
                    first.clean_sample_hits,
                    first.clean_sample_size
                ),
                &series,
                40
            )
        );
        let coinhive_like = first
            .label_counts
            .get(&ServiceLabel::Coinhive)
            .copied()
            .unwrap_or(0) as f64
            / total;
        println!(
            "   coinhive share of detected sites: {:.1}% (paper: >75% incl. variants)\n",
            coinhive_like * 100.0
        );
    }

    println!(
        "{}",
        comparison_table("Fig 2: potential mining domains per scan", &rows)
    );
    println!("note: measured counts are full-zone-scale; the miner population is\nmaterialized exactly and the clean remainder is FP-sampled (DESIGN.md).");
}
