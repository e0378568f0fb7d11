//! Between-scan-date churn.
//!
//! Figure 2 shows two scan dates per dataset, with the second bar 10–16 %
//! lower everywhere — operators remove miners (media pressure, Coinhive
//! key revocations) faster than new ones appear in early 2018. We model
//! this as per-artifact removal with a small compensating arrival rate.

use crate::universe::{Domain, Population};
use minedig_primitives::DetRng;

/// Fraction of artifact domains whose artifact disappears between the
/// two scan dates of Figure 2.
pub const DEFAULT_REMOVAL_RATE: f64 = 0.13;

/// Fraction of (former) artifact count re-appearing as fresh deployments.
pub const DEFAULT_ARRIVAL_RATE: f64 = 0.015;

/// Produces the population as seen at the second scan date.
pub fn second_scan(first: &Population, seed: u64, removal_rate: f64) -> Population {
    let mut rng = DetRng::seed(seed).derive(&format!("web.churn.{}", first.zone.label()));
    let mut artifacts: Vec<Domain> = first
        .artifacts
        .iter()
        .filter(|_| !rng.chance(removal_rate))
        .cloned()
        .collect();
    // Fresh arrivals clone the profile of random survivors under new
    // names (a new deployment looks like an existing kind of deployment).
    let arrivals = (first.artifacts.len() as f64 * DEFAULT_ARRIVAL_RATE) as usize;
    for i in 0..arrivals {
        if artifacts.is_empty() {
            break;
        }
        let mut fresh = artifacts[rng.range_usize(0, artifacts.len())].clone();
        fresh.name = format!("fresh-{i:05}.{}", first.zone.tld());
        fresh.token_id = rng.gen_range(1 << 20);
        artifacts.push(fresh);
    }
    Population {
        zone: first.zone,
        total: first.total,
        clean_total: first.total - artifacts.len() as u64,
        artifacts,
        clean_sample: first.clean_sample.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Population;
    use crate::zone::Zone;

    #[test]
    fn second_scan_shrinks_by_roughly_the_removal_rate() {
        let first = Population::generate(Zone::Org, 42, 10);
        let second = second_scan(&first, 42, DEFAULT_REMOVAL_RATE);
        let ratio = second.artifacts.len() as f64 / first.artifacts.len() as f64;
        // −13 % removal + 1.5 % arrivals ≈ 0.885.
        assert!((0.85..0.92).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn totals_remain_consistent() {
        let first = Population::generate(Zone::Alexa, 42, 10);
        let second = second_scan(&first, 42, DEFAULT_REMOVAL_RATE);
        assert_eq!(second.total, first.total);
        assert_eq!(
            second.clean_total + second.artifacts.len() as u64,
            second.total
        );
    }

    #[test]
    fn churn_is_deterministic() {
        let first = Population::generate(Zone::Org, 42, 0);
        let a = second_scan(&first, 7, DEFAULT_REMOVAL_RATE);
        let b = second_scan(&first, 7, DEFAULT_REMOVAL_RATE);
        assert_eq!(a.artifacts.len(), b.artifacts.len());
    }

    #[test]
    fn zero_removal_only_adds_arrivals() {
        let first = Population::generate(Zone::Org, 42, 0);
        let second = second_scan(&first, 7, 0.0);
        assert!(second.artifacts.len() >= first.artifacts.len());
    }
}
