//! Figure 4: the required-hash distribution, with and without the
//! heavy-user bias, plus the duration axis at 20 H/s.

use minedig_bench::{link_scale, seed, LINK_SCALE_ENV, SEED_ENV};
use minedig_core::report::{comparison_table, Comparison};
use minedig_core::shortlink_study::{run_study, StudyConfig};
use minedig_pow::hashrate::{human_duration, ClientClass};
use minedig_primitives::supervise::{Backend, SHARDS_ENV};
use minedig_primitives::{configured, read_env};
use minedig_shortlink::model::{ModelConfig, PAPER_LINK_COUNT};

fn main() {
    let env = configured(read_env(&[SEED_ENV, SHARDS_ENV, LINK_SCALE_ENV]));
    let seed = configured(seed(&env));
    let scale = configured(link_scale(&env));
    let backend = configured(Backend::parse(&env));
    println!("Figure 4 — required hashes per short link (scale 1:{scale})\n");

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

    println!("#hashes    @20H/s      #links   CDF(all)  CDF(unbiased)");
    for exp in [8u32, 9, 10, 11, 12, 13, 14, 15, 16, 40, 63] {
        let hashes = 1u64 << exp.min(63);
        let count = study
            .hist_biased
            .bins()
            .iter()
            .find(|(floor, _)| *floor == hashes)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        let duration = human_duration(ClientClass::BrowserLaptop.seconds_for(hashes));
        println!(
            "2^{exp:<6} {duration:>8} {count:>10}     {:>6.3}        {:>6.3}",
            study.cdf_biased.fraction_at_or_below(exp as f64),
            study.cdf_unbiased.fraction_at_or_below(exp as f64),
        );
    }

    let biased_at_512 =
        study.cdf_biased.fraction_at_or_below(9.0) - study.cdf_biased.fraction_at_or_below(8.9);
    let rows = vec![
        Comparison::new(
            "unbiased ≤1024 hashes (%)",
            66.7,
            study.unbiased_le_1024 * 100.0,
        ),
        Comparison::new(
            "unbiased <10k resolvable (%)",
            85.0,
            study.cdf_unbiased.fraction_at_or_below((10_000f64).log2()) * 100.0,
        ),
        // The unbiased dataset counts one link per (user, count) pair, so
        // its size — and the cost of resolving it — grows far more slowly
        // than the link count; compare against the paper's full 61.5 M.
        Comparison::new(
            "hashes spent resolving (M)",
            61.5,
            study.tail_hashes_spent as f64 / 1e6,
        ),
    ];
    println!("\n{}", comparison_table("Fig 4 headline statistics", &rows));
    println!(
        "biased CDF mass at exactly 512 hashes: {:.2} (the heavy-user spike)",
        biased_at_512
    );
    println!(
        "max observed requirement: 2^{:.1} ≈ 10^19 hashes ≈ {} at 20 H/s (misconfiguration tail)",
        study.cdf_biased.max(),
        human_duration(ClientClass::BrowserLaptop.seconds_for(u64::MAX))
    );
}
