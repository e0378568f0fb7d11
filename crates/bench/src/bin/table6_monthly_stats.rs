//! Table 6: Coinhive mining statistics for May, June and July 2018 —
//! blocks/day, implied hash rate, and XMR turned over.

use minedig_analysis::estimate::monthly_row;
use minedig_analysis::scenario::run_scenario;
use minedig_bench::{seed, SEED_ENV};
use minedig_core::attribute::{month_config, Month};
use minedig_core::report::{comparison_table, Comparison};
use minedig_primitives::{configured, read_env};

const PAPER: [(Month, f64, f64, f64, f64); 3] = [
    (Month::May, 9.0, 8.8, 5.5, 1_231.0),
    (Month::June, 10.0, 9.7, 5.5, 1_293.0),
    (Month::July, 9.0, 9.1, 5.8, 1_215.0),
];

fn main() {
    let env = configured(read_env(&[SEED_ENV]));
    let seed = configured(seed(&env));
    println!("Table 6 — Coinhive monthly mining statistics (three full simulated months)\n");

    let mut rows = Vec::new();
    for (month, p_med, p_avg, p_mhs, p_xmr) in PAPER {
        let mut config = month_config(month, seed);
        // Months are long; a coarser poll grid plus the guaranteed
        // end-of-interval sample keeps attribution exact (see scenario.rs).
        config.poll_interval_secs = 60;
        let (start, end) = month.window();
        let result = run_scenario(config, None)
            .expect("a straight run cannot fail")
            .0;
        let row = monthly_row(
            month.label(),
            &result.attributed,
            start,
            end,
            &result.network,
        );

        rows.push(Comparison::new(
            &format!("{} med [blocks/day]", month.label()),
            p_med,
            row.median,
        ));
        rows.push(Comparison::new(
            &format!("{} avg [blocks/day]", month.label()),
            p_avg,
            row.avg,
        ));
        rows.push(Comparison::new(
            &format!("{} hashrate [MH/s]", month.label()),
            p_mhs,
            row.mhs,
        ));
        rows.push(Comparison::new(
            &format!("{} currency [XMR]", month.label()),
            p_xmr,
            row.xmr,
        ));
        println!(
            "{}: attributed {}/{} ground-truth blocks (recall {:.1}%, precise: {})",
            month.label(),
            result.attributed.len(),
            result.ground_truth.len(),
            result.recall() * 100.0,
            result.precise()
        );
    }
    println!("\n{}", comparison_table("Table 6", &rows));
    println!("At 120 USD/XMR (the paper's rate), ~1250 XMR/month ≈ 150,000 USD/month,\nof which Coinhive keeps 30%.");
}
