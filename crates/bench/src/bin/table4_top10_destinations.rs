//! Table 4: where the top-10 link creators' links lead (1000-link samples
//! per user, resolved with the non-browser miner).

use minedig_bench::{link_scale, seed, LINK_SCALE_ENV, SEED_ENV};
use minedig_core::report::{comparison_table, Comparison};
use minedig_core::shortlink_study::{run_study, StudyConfig};
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_shortlink::model::{ModelConfig, PAPER_LINK_COUNT, TOP10_DESTINATIONS};

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV, LINK_SCALE_ENV]));
    let seed = configured(seed(&env));
    let scale = configured(link_scale(&env));
    let backend = configured(Backend::parse(&env));
    println!("Table 4 — top destinations of the top-10 creators (scale 1:{scale})\n");

    let study = run_study(
        &StudyConfig {
            model: ModelConfig {
                total_links: PAPER_LINK_COUNT / scale,
                users: 12_000,
                seed,
            },
            per_user_sample: 1_000,
            backend,
            ..StudyConfig::default()
        },
        seed,
        None,
    )
    .expect("a straight run cannot fail")
    .0;

    let mut rows = Vec::new();
    let mut paper_mass = 0.0;
    let mut measured_mass = 0.0;
    for (domain, _category, paper_freq) in TOP10_DESTINATIONS {
        let measured = study
            .top10_domains
            .iter()
            .find(|(d, _)| d == domain)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        paper_mass += paper_freq;
        measured_mass += measured;
        rows.push(Comparison::new(
            domain,
            paper_freq * 100.0,
            measured * 100.0,
        ));
    }
    println!(
        "{}",
        comparison_table("Table 4: destination domain frequency (%)", &rows)
    );
    println!(
        "top-10 domains cover: measured {:.1}% vs paper {:.1}% of sampled links",
        measured_mass * 100.0,
        paper_mass * 100.0
    );
    println!("\nmeasured top-10 (for reference):");
    for (d, f) in study.top10_domains.iter().take(10) {
        println!("  {d:<24} {:>5.1}%", f * 100.0);
    }
    println!("\ncategories: streaming/filesharing dominate, as in the paper\n(youtu.be → Ent. & Music, zippyshare/icerbox/ul.to/share-online/oboom → Filesharing).");
}
