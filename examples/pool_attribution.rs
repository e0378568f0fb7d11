//! Block attribution over a live simulated Monero network.
//!
//! Spins up the §4.2 scenario for three virtual days: a 456 MH/s
//! rest-of-network, a Coinhive-style pool at ~6 MH/s serving obfuscated
//! job blobs from 32 endpoints, and the paper's observer clustering blobs
//! by previous-block pointer and matching Merkle roots. Prints every
//! attributed block and the derived economics.
//!
//! Run with: `cargo run --example pool_attribution`

use minedig::analysis::estimate::pool_estimate;
use minedig::analysis::scenario::{run_scenario, ScenarioConfig};
use minedig::chain::emission::atomic_to_xmr;

fn main() {
    let days = 3;
    println!("Simulating {days} days of the Monero network with an instrumented pool…\n");
    let result = run_scenario(
        ScenarioConfig {
            duration_days: days,
            seed: 0xd16,
            ..ScenarioConfig::default()
        },
        None,
    )
    .expect("a straight run cannot fail")
    .0;

    println!("attributed blocks (proven pool-mined via Merkle-root match):");
    println!(
        "{:<8} {:>12} {:>10} {:<18}",
        "height", "found_at", "XMR", "block id"
    );
    for b in &result.attributed {
        println!(
            "{:<8} {:>12} {:>10.3} {}…",
            b.height,
            b.found_at,
            atomic_to_xmr(b.reward),
            &b.block_id.to_hex()[..16]
        );
    }

    let (start, end) = result.window;
    let est = pool_estimate(&result.attributed, start, end, &result.network);
    println!(
        "\nnetwork median difficulty: {:.1} G",
        result.network.median_difficulty as f64 / 1e9
    );
    println!(
        "implied network hashrate:  {:.0} MH/s",
        result.network.network_hashrate / 1e6
    );
    println!(
        "pool block share:          {:.2}% (paper: 1.18%)",
        est.block_share * 100.0
    );
    println!(
        "implied pool hashrate:     {:.1} MH/s (paper: 5.5)",
        est.pool_hashrate / 1e6
    );
    println!(
        "constantly-mining users:   {:.0}K–{:.0}K at 100–20 H/s (paper: 58K–292K)",
        est.users_lower / 1e3,
        est.users_upper / 1e3
    );
    println!("XMR earned in the window:  {:.1}", est.xmr_earned);
    println!(
        "\nattribution recall {:.0}%, precision {}, max {} distinct blobs per height (paper: ≤128)",
        result.recall() * 100.0,
        if result.precise() { "exact" } else { "BUG" },
        result.poll_stats.max_blobs_per_prev
    );
}
