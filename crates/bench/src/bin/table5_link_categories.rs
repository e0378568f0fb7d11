//! Table 5: categories of the unbiased <10 K-hash destinations — the
//! long tail is diverse, unlike the filesharing-heavy top-10 users.

use minedig_bench::{link_scale, seed, LINK_SCALE_ENV, SEED_ENV};
use minedig_core::shortlink_study::{run_study, StudyConfig};
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_shortlink::model::{ModelConfig, PAPER_LINK_COUNT};

const PAPER: [(&str, u64); 10] = [
    ("Tech. & Telecomm.", 1_522),
    ("Gaming", 737),
    ("Dynamic Site", 727),
    ("Business", 578),
    ("Pornogr.", 577),
    ("Shopping", 572),
    ("Finance and Investing", 502),
    ("Ent. & Music", 313),
    ("Edu. Site", 305),
    ("Hosting", 298),
];

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV, LINK_SCALE_ENV]));
    let seed = configured(seed(&env));
    let scale = configured(link_scale(&env));
    let backend = configured(Backend::parse(&env));
    println!("Table 5 — categories of the unbiased <10k-hash dataset (scale 1:{scale})\n");

    let study = run_study(
        &StudyConfig {
            model: ModelConfig {
                total_links: PAPER_LINK_COUNT / scale,
                users: 12_000,
                seed,
            },
            resolve_budget: 10_000,
            backend,
            ..StudyConfig::default()
        },
        seed,
        None,
    )
    .expect("a straight run cannot fail")
    .0;

    let mut measured: Vec<(String, u64)> = study
        .tail_categories
        .iter()
        .map(|(c, n)| (c.label().to_string(), *n))
        .collect();
    measured.sort_by_key(|(_, n)| std::cmp::Reverse(*n));

    println!(
        "{:<26} {:>10} {:>14}",
        "category",
        "paper",
        format!("measured(1:{scale})")
    );
    for (i, (label, paper_count)) in PAPER.iter().enumerate() {
        let m = measured
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        println!(
            "{:<26} {:>10} {:>14}   (measured rank {})",
            label,
            paper_count,
            m,
            measured
                .iter()
                .position(|(l, _)| l == label)
                .map(|p| p + 1)
                .unwrap_or(0)
        );
        let _ = i;
    }
    println!("\nmeasured top-10:");
    for (label, n) in measured.iter().take(10) {
        println!("  {label:<26} {n}");
    }
    println!(
        "\nRuleSpace classified {:.0}% of resolved URLs (paper: ~2/3 classified, 1/3 not)",
        study.tail_classified_fraction * 100.0
    );
    println!(
        "hash cost of resolving the unbiased tail: {:.1}M hashes (paper: 61.5M at full scale)",
        study.tail_hashes_spent as f64 / 1e6
    );
}
