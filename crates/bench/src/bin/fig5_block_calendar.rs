//! Figure 5: Coinhive-mined blocks over four weeks, as a day × hour
//! calendar, attributed purely from observed PoW inputs.

use minedig_analysis::calendar::BlockCalendar;
use minedig_analysis::scenario::{run_scenario, FIG5_HOLIDAYS, FIG5_OUTAGE, FIG5_START};
use minedig_bench::{days, fmt_date, seed, DAYS_ENV, SEED_ENV};
use minedig_core::attribute::fig5_config;
use minedig_core::report::{comparison_table, Comparison};
use minedig_primitives::{configured, read_env};

fn main() {
    let env = configured(read_env(&[SEED_ENV, DAYS_ENV]));
    let seed = configured(seed(&env));
    let days = configured(days(&env));
    println!(
        "Figure 5 — blocks mined by the Coinhive network (attribution via Merkle-root matching)\n"
    );

    let mut config = fig5_config(seed);
    config.duration_days = days;
    let result = run_scenario(config, None)
        .expect("a straight run cannot fail")
        .0;

    let calendar = BlockCalendar::new(&result.attributed, FIG5_START, days as usize).with_outages(
        (0..days as usize)
            .filter(|d| {
                let day_start = FIG5_START + *d as u64 * 86_400;
                day_start >= FIG5_OUTAGE.0 && day_start < FIG5_OUTAGE.1
            })
            .collect(),
    );

    // The calendar heat map.
    println!("date         00 01 02 03 04 05 06 07 08 09 10 11 12 13 14 15 16 17 18 19 20 21 22 23 | total");
    for (day, row) in calendar.grid.iter().enumerate() {
        let date = fmt_date(FIG5_START + day as u64 * 86_400);
        let marks: String = row
            .iter()
            .map(|&c| match c {
                0 => " . ".to_string(),
                n => format!("{n:>2} "),
            })
            .collect();
        let total: u32 = row.iter().sum();
        let outage = if calendar.outage_days.contains(&day) {
            "  << outage"
        } else {
            ""
        };
        let holiday = if FIG5_HOLIDAYS
            .iter()
            .any(|&h| h == FIG5_START + day as u64 * 86_400)
        {
            "  << holiday"
        } else {
            ""
        };
        println!("{date}  {marks}| {total:>3}{outage}{holiday}");
    }

    let share = result.attributed.len() as f64 / result.total_blocks.max(1) as f64 * 100.0;
    let avg = result.attributed.len() as f64 / days as f64;
    let rows = vec![
        Comparison::new("median blocks/day", 8.5, calendar.median_per_day()),
        Comparison::new("average blocks/day", 9.0, avg),
        Comparison::new("block share (%)", 1.18, share),
        Comparison::new(
            "median difficulty (G)",
            55.4,
            result.network.median_difficulty as f64 / 1e9,
        ),
        Comparison::new(
            "network hashrate (MH/s)",
            462.0,
            result.network.network_hashrate / 1e6,
        ),
        Comparison::new(
            "XMR earned over window",
            1_271.0,
            result
                .attributed
                .iter()
                .map(|b| minedig_chain::emission::atomic_to_xmr(b.reward))
                .sum(),
        ),
    ];
    println!(
        "\n{}",
        comparison_table("Fig 5 / §4.2 headline numbers", &rows)
    );
    println!(
        "attribution recall vs ground truth: {:.1}% over {} pool blocks; precision: {}",
        result.recall() * 100.0,
        result.ground_truth.len(),
        if result.precise() {
            "exact (no foreign blocks matched)"
        } else {
            "IMPRECISE — BUG"
        }
    );
    println!(
        "observer: {} polls, {} answered, {} refused during the 6–7 May outage, max {} distinct blobs/height (paper: ≤128)",
        result.poll_stats.polls,
        result.poll_stats.answered,
        result.poll_stats.offline,
        result.poll_stats.max_blobs_per_prev
    );
    let spikes = calendar.spike_days(1.7);
    println!(
        "spike days (>1.7x median): {:?} (holidays at day offsets 4, 14, 26)",
        spikes
    );
}
