//! §6 discussion, quantified: is browser mining a feasible alternative to
//! advertising?
//!
//! The paper closes with: "it remains questionable whether mining is a
//! feasible ad alternative [...] the impact of the CPU intensive miner on
//! a website's performance [...] is yet to be quantified." This binary
//! runs the arithmetic for representative site tiers and compares against
//! typical 2018 display-ad revenue (~1–3 USD RPM).

use minedig_analysis::economics::{ExchangeRate, SiteEconomics};
use minedig_chain::emission::{atomic_to_xmr, base_reward, supply_mid_2018};
use minedig_primitives::{configured, read_env};

fn main() {
    // No knobs: every MINEDIG_* variable is refused.
    let _ = configured(read_env(&[]));
    println!("Feasibility: mining revenue vs display ads (the paper's closing question)\n");

    let network_hashrate = 462e6;
    let reward = atomic_to_xmr(base_reward(supply_mid_2018()));
    let rate = ExchangeRate::paper_writing_time();
    let pool_fee = 0.30;

    println!(
        "assumptions: network 462 MH/s, block reward {reward:.2} XMR, {} USD/XMR, 30% pool fee",
        rate.usd_per_xmr
    );
    println!("visitor hash rates: 20 H/s (paper's laptop) / 100 H/s (desktop)\n");

    let tiers = [
        ("long-tail blog", 500.0, 90.0),
        ("mid-size forum", 10_000.0, 180.0),
        ("Alexa-10k site", 250_000.0, 240.0),
        ("streaming portal", 2_000_000.0, 1_200.0),
    ];

    println!(
        "{:<18} {:>12} {:>10} {:>14} {:>14} {:>12}",
        "site tier", "visits/day", "avg stay", "mine $/day@20", "mine $/day@100", "ads $/day*"
    );
    for (name, visitors, stay) in tiers {
        let usd = |hashrate: f64| {
            SiteEconomics {
                visitors_per_day: visitors,
                avg_visit_seconds: stay,
                visitor_hashrate: hashrate,
            }
            .daily_usd_after_fee(network_hashrate, reward, rate, pool_fee)
        };
        // 2018 display RPM ≈ 2 USD per 1000 pageviews.
        let ads = visitors / 1_000.0 * 2.0;
        println!(
            "{:<18} {:>12} {:>9}s {:>14.2} {:>14.2} {:>12.2}",
            name,
            visitors,
            stay,
            usd(20.0),
            usd(100.0),
            ads
        );
    }

    println!("\n(*) at a typical 2018 display RPM of 2 USD per 1000 views.");
    println!("\nConclusion (matches the paper's skepticism): even with every visitor");
    println!("mining at desktop speed for their whole stay, mining under-earns ads");
    println!("by 1–2 orders of magnitude at 2018 difficulty and exchange rates —");
    println!("while burning the visitor's CPU and battery. The exceptions are");
    println!("long-stay streaming/filesharing sites, which is exactly where the");
    println!("paper finds miners deployed (Tables 4 and 5).");

    // Sanity: the streaming tier must beat the blog tier per the model.
    let blog = SiteEconomics {
        visitors_per_day: 500.0,
        avg_visit_seconds: 90.0,
        visitor_hashrate: 20.0,
    }
    .daily_usd_after_fee(network_hashrate, reward, rate, pool_fee);
    let streaming = SiteEconomics {
        visitors_per_day: 2_000_000.0,
        avg_visit_seconds: 1_200.0,
        visitor_hashrate: 20.0,
    }
    .daily_usd_after_fee(network_hashrate, reward, rate, pool_fee);
    assert!(streaming > blog * 1_000.0);
}
