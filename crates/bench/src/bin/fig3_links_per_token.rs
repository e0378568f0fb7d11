//! Figure 3: links per creator token — heavy concentration on a few
//! users (one user = ⅓ of links, ten users = 85 %).

use minedig_bench::{fig3_verdicts, link_scale, seed, LINK_SCALE_ENV, SEED_ENV};
use minedig_core::report::{comparison_table, Comparison};
use minedig_core::shortlink_study::{run_study, StudyConfig};
use minedig_primitives::stats::{gini, power_law_alpha};
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_shortlink::model::{ModelConfig, PAPER_LINK_COUNT};

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV, LINK_SCALE_ENV]));
    let seed = configured(seed(&env));
    let scale = configured(link_scale(&env));
    let backend = configured(Backend::parse(&env));
    println!("Figure 3 — short links per token (scale 1:{scale})\n");

    let study = run_study(
        &StudyConfig {
            model: ModelConfig {
                total_links: PAPER_LINK_COUNT / scale,
                users: 12_000,
                seed,
            },
            backend,
            ..StudyConfig::default()
        },
        seed,
        None,
    )
    .expect("a straight run cannot fail")
    .0;

    // The log-log series: rank → link count (decimated for printing).
    println!("rank    links_per_token   (log-log power law)");
    let mut rank = 1usize;
    while rank <= study.links_per_token.len() {
        println!("{:>6}  {:>12}", rank, study.links_per_token[rank - 1]);
        rank = (rank as f64 * 3.0).ceil() as usize;
    }

    let total: u64 = study.links_per_token.iter().sum();
    let alpha = power_law_alpha(
        &study
            .links_per_token
            .iter()
            .map(|&c| c as f64)
            .collect::<Vec<_>>(),
        1.0,
    );

    let rows = vec![
        Comparison::new(
            "total live links",
            PAPER_LINK_COUNT as f64 / scale as f64,
            total as f64,
        ),
        Comparison::new("top-1 user share (%)", 33.3, study.top1_share * 100.0),
        Comparison::new("users for 85% of links", 10.0, study.users_for_85pct as f64),
        Comparison::new(
            "tokens observed",
            12_000.0,
            study.links_per_token.len() as f64,
        ),
    ];
    println!("\n{}", comparison_table("Fig 3 headline statistics", &rows));
    let tokens = study.links_per_token.len();
    for line in fig3_verdicts(gini(&study.links_per_token), alpha, tokens) {
        println!("{line}");
    }
    println!(
        "links probed during enumeration: {} (live space + dead run)",
        study.walk.probed
    );
}
