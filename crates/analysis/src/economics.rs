//! Economics: XMR→USD conversion, the pool's 70/30 split, and the
//! per-site revenue arithmetic behind the paper's closing question
//! ("whether mining is a feasible ad alternative").

use crate::attribution::AttributedBlock;
use minedig_chain::emission::atomic_to_xmr;

/// An exchange-rate anchor. Monero's 2018 rate swung hard; the paper
/// quotes 120 USD/XMR at writing time and a 400 USD peak.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeRate {
    /// USD per XMR.
    pub usd_per_xmr: f64,
}

impl ExchangeRate {
    /// The paper's at-writing rate.
    pub fn paper_writing_time() -> ExchangeRate {
        ExchangeRate { usd_per_xmr: 120.0 }
    }
}

/// Revenue report for a pool over a window.
#[derive(Clone, Copy, Debug)]
pub struct PoolRevenue {
    /// Total XMR mined in the window.
    pub xmr: f64,
    /// Gross USD at the given rate.
    pub usd_gross: f64,
    /// The pool's cut (Coinhive: 30 %).
    pub usd_pool_cut: f64,
    /// Paid out to site operators (70 %).
    pub usd_user_payout: f64,
}

/// Computes pool revenue from attributed blocks.
pub fn pool_revenue(blocks: &[AttributedBlock], rate: ExchangeRate, pool_fee: f64) -> PoolRevenue {
    assert!((0.0..=1.0).contains(&pool_fee));
    let xmr: f64 = blocks.iter().map(|b| atomic_to_xmr(b.reward)).sum();
    let usd_gross = xmr * rate.usd_per_xmr;
    PoolRevenue {
        xmr,
        usd_gross,
        usd_pool_cut: usd_gross * pool_fee,
        usd_user_payout: usd_gross * (1.0 - pool_fee),
    }
}

/// The per-site arithmetic the paper's conclusion gestures at: what one
/// website earns from mining visitors, before the pool's cut.
///
/// `visitors_per_day` × `avg_visit_seconds` × `hashrate` gives the site's
/// hash contribution; the network pays `block_reward × blocks_per_day /
/// network_hashrate` USD per H/s·day.
#[derive(Clone, Copy, Debug)]
pub struct SiteEconomics {
    /// Daily visitors.
    pub visitors_per_day: f64,
    /// Average visit duration, seconds.
    pub avg_visit_seconds: f64,
    /// Per-visitor hash rate (browser-grade: 20–100 H/s).
    pub visitor_hashrate: f64,
}

impl SiteEconomics {
    /// The site's average continuous hash rate.
    pub fn site_hashrate(&self) -> f64 {
        self.visitors_per_day * self.avg_visit_seconds / 86_400.0 * self.visitor_hashrate
    }

    /// Gross daily XMR for this site, given the network state.
    pub fn daily_xmr(&self, network_hashrate: f64, block_reward_xmr: f64) -> f64 {
        let blocks_per_day = 720.0;
        self.site_hashrate() / network_hashrate * blocks_per_day * block_reward_xmr
    }

    /// Net daily USD after the pool's fee.
    pub fn daily_usd_after_fee(
        &self,
        network_hashrate: f64,
        block_reward_xmr: f64,
        rate: ExchangeRate,
        pool_fee: f64,
    ) -> f64 {
        self.daily_xmr(network_hashrate, block_reward_xmr) * rate.usd_per_xmr * (1.0 - pool_fee)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_primitives::Hash32;

    fn blocks(n: u64, reward_xmr: f64) -> Vec<AttributedBlock> {
        (0..n)
            .map(|i| AttributedBlock {
                height: i,
                block_id: Hash32::keccak(&i.to_le_bytes()),
                timestamp: i,
                found_at: i,
                reward: (reward_xmr * 1e12) as u64,
            })
            .collect()
    }

    #[test]
    fn monthly_revenue_matches_paper_headline() {
        // ~265 blocks/month at ~4.7 XMR ≈ 1250 XMR ≈ 150k USD at 120 $/XMR.
        let r = pool_revenue(&blocks(265, 4.7), ExchangeRate::paper_writing_time(), 0.30);
        assert!((1_200.0..1_300.0).contains(&r.xmr), "xmr {}", r.xmr);
        assert!(
            (140_000.0..160_000.0).contains(&r.usd_gross),
            "usd {}",
            r.usd_gross
        );
        assert!((r.usd_pool_cut - r.usd_gross * 0.3).abs() < 1.0);
        assert!((r.usd_pool_cut + r.usd_user_payout - r.usd_gross).abs() < 1e-6);
    }

    #[test]
    fn peak_rate_multiplies_revenue() {
        let b = blocks(100, 4.7);
        let low = pool_revenue(&b, ExchangeRate::paper_writing_time(), 0.3);
        let high = pool_revenue(&b, ExchangeRate { usd_per_xmr: 400.0 }, 0.3);
        assert!((high.usd_gross / low.usd_gross - 400.0 / 120.0).abs() < 1e-9);
    }

    #[test]
    fn typical_site_earns_almost_nothing() {
        // The feasibility question: 10k visitors/day × 3 min × 40 H/s.
        let site = SiteEconomics {
            visitors_per_day: 10_000.0,
            avg_visit_seconds: 180.0,
            visitor_hashrate: 40.0,
        };
        // Site hashrate ≈ 833 H/s of a 462 MH/s network.
        assert!((800.0..900.0).contains(&site.site_hashrate()));
        let usd = site.daily_usd_after_fee(462e6, 4.7, ExchangeRate::paper_writing_time(), 0.30);
        // A couple of dollars per day — the paper's skepticism about
        // mining as an ad alternative, quantified.
        assert!((0.2..3.0).contains(&usd), "daily usd {usd}");
    }

    #[test]
    fn zero_blocks_zero_revenue() {
        let r = pool_revenue(&[], ExchangeRate::paper_writing_time(), 0.3);
        assert_eq!(r.xmr, 0.0);
        assert_eq!(r.usd_gross, 0.0);
    }
}
