//! Table 3: top-5 RuleSpace categories of mining sites, NoCoin-detected
//! vs signature-detected, on Alexa and .org — including the "Gaming"
//! artefact caused by the cpmstar ad-network false positive.

use minedig_bench::{run_chrome_scans, seed, SEED_ENV};
use minedig_core::scan::categorize;
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_web::category::RuleSpace;

fn print_top5(
    title: &str,
    refs: &[minedig_core::scan::DomainRef],
    zone: minedig_web::zone::Zone,
    rulespace: &RuleSpace,
    paper_top: &[(&str, f64)],
    paper_coverage: f64,
) {
    let (counts, covered, total) = categorize(refs, zone, rulespace);
    let mut ranked: Vec<(String, u64)> = counts
        .iter()
        .map(|(c, n)| (c.label().to_string(), *n))
        .collect();
    ranked.sort_by_key(|(_, n)| std::cmp::Reverse(*n));

    println!("-- {title} --");
    println!("   measured top-5 (share of categorized sites):");
    for (label, n) in ranked.iter().take(5) {
        println!(
            "     {label:<22} {:>5.1}%",
            *n as f64 / covered.max(1) as f64 * 100.0
        );
    }
    println!("   paper top-5:");
    for (label, pct) in paper_top {
        println!("     {label:<22} {pct:>5.1}%");
    }
    println!(
        "   categorized: measured {:.0}% vs paper {:.0}%  ({} of {} sites)\n",
        covered as f64 / total.max(1) as f64 * 100.0,
        paper_coverage,
        covered,
        total
    );
}

/// Paper reference rows: (top-5 list, top-5 list, coverage %, coverage %).
type PaperRefs = (
    &'static [(&'static str, f64)],
    &'static [(&'static str, f64)],
    f64,
    f64,
);

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV]));
    let seed = configured(seed(&env));
    let backend = configured(Backend::parse(&env));
    println!("Table 3 — top categories (Symantec RuleSpace substitute)\n");
    let (_db, scans) = run_chrome_scans(seed, backend);
    let rulespace = RuleSpace::new(seed);

    for (population, o) in &scans {
        let zone = population.zone;
        let (paper_nocoin, paper_sig, cov_nc, cov_sig): PaperRefs = match zone {
            minedig_web::zone::Zone::Alexa => (
                &[
                    ("Gaming", 19.0),
                    ("Edu. Site", 9.0),
                    ("Shopping", 8.0),
                    ("Pornogr.", 7.0),
                    ("Tech.", 6.0),
                ],
                &[
                    ("Pornogr.", 19.0),
                    ("Tech.", 8.0),
                    ("Filesharing", 8.0),
                    ("Edu. Site", 5.0),
                    ("Ent. & Music", 5.0),
                ],
                79.0,
                74.0,
            ),
            _ => (
                &[
                    ("Gaming", 29.0),
                    ("Business", 8.0),
                    ("Edu. Site", 6.0),
                    ("Pornogr.", 5.0),
                    ("Shopping", 4.0),
                ],
                &[
                    ("Religion", 9.0),
                    ("Business", 8.0),
                    ("Edu. Site", 8.0),
                    ("Health Site", 7.0),
                    ("Tech.", 6.0),
                ],
                54.0,
                42.0,
            ),
        };
        print_top5(
            &format!("{} / NoCoin-detected sites", zone.label()),
            &o.nocoin_refs,
            zone,
            &rulespace,
            paper_nocoin,
            cov_nc,
        );
        print_top5(
            &format!("{} / signature-detected sites", zone.label()),
            &o.miner_refs,
            zone,
            &rulespace,
            paper_sig,
            cov_sig,
        );
    }
    println!("note: the NoCoin column's Gaming spike is driven by the cpmstar ad-network FP,\nreproducing the category mismatch the paper highlights.");
}
