//! Scan populations: materialized artifact domains plus a sampled clean
//! remainder.
//!
//! Scanning 116 M clean pages to confirm they are clean would be wasted
//! compute; scanning *none* of them would silently assume the pipeline
//! has no false positives. The population therefore carries (a) every
//! artifact domain individually, (b) an honest random sample of clean
//! domains that every pipeline also scans, and (c) the exact clean total
//! for extrapolation.

use crate::category::{sample_categories, Category};
use crate::deploy::{
    artifact_plan, category_profile, clean_profile, ArtifactKind, BEYOND_CUT_RATE,
};
use crate::zone::Zone;
use minedig_primitives::DetRng;
use minedig_wasm::corpus::default_profiles;
use minedig_wasm::sigdb::WasmClass;

/// One domain in a scan population.
#[derive(Clone, Debug)]
pub struct Domain {
    /// Domain name (synthesized, unique within the population).
    pub name: String,
    /// The zone it belongs to.
    pub zone: Zone,
    /// Whether the site serves TLS (zgrab requires it; Chrome does not).
    pub tls: bool,
    /// Ground-truth artifact, if any.
    pub artifact: Option<ArtifactKind>,
    /// Listed script placed beyond the 256 kB cut (zgrab blind spot).
    pub beyond_cut: bool,
    /// Which corpus build of the family's Wasm this site embeds.
    pub wasm_version: u32,
    /// Site-key/token index (for miner deployments).
    pub token_id: u64,
    /// Latent site categories (revealed only via the RuleSpace oracle).
    pub latent_categories: Vec<Category>,
}

/// A zone's scan population.
#[derive(Clone, Debug)]
pub struct Population {
    /// The zone.
    pub zone: Zone,
    /// Total domains in the zone (full scale).
    pub total: u64,
    /// All artifact-bearing domains, materialized.
    pub artifacts: Vec<Domain>,
    /// A random sample of clean domains (scanned for FP honesty).
    pub clean_sample: Vec<Domain>,
    /// Number of clean domains the sample represents.
    pub clean_total: u64,
}

impl Population {
    /// Generates a zone's population. `clean_sample_size` controls how
    /// many clean domains are materialized for FP measurement.
    pub fn generate(zone: Zone, seed: u64, clean_sample_size: usize) -> Population {
        let mut rng = DetRng::seed(seed).derive(&format!("web.universe.{}", zone.label()));
        let profiles = default_profiles();
        let versions_of = |class: &WasmClass| -> u32 {
            profiles
                .iter()
                .find(|p| p.class == *class)
                .map(|p| p.versions)
                .unwrap_or(1)
        };

        let mut artifacts = Vec::new();
        let mut domain_counter = 0u64;
        for spec in artifact_plan(zone) {
            let count = rng.poisson(spec.expected);
            for _ in 0..count {
                domain_counter += 1;
                let name = format!("site-{:07}.{}", domain_counter, zone.tld());
                let profile = category_profile(zone, &spec.kind);
                let wasm_versions = match spec.kind {
                    ArtifactKind::ActiveMiner { family, .. } => {
                        versions_of(&WasmClass::Miner(family))
                    }
                    ArtifactKind::BenignWasm { kind } => versions_of(&WasmClass::Benign(kind)),
                    _ => 1,
                };
                artifacts.push(Domain {
                    name,
                    zone,
                    tls: rng.chance(zone.tls_rate()),
                    artifact: Some(spec.kind),
                    beyond_cut: rng.chance(BEYOND_CUT_RATE),
                    wasm_version: rng.gen_range(wasm_versions as u64) as u32,
                    token_id: rng.gen_range(1 << 20),
                    latent_categories: sample_categories(&mut rng, profile),
                });
            }
        }

        let clean_total = zone.full_size() - artifacts.len() as u64;
        let clean_sample = (0..clean_sample_size)
            .map(|i| Domain {
                name: format!("clean-{i:07}.{}", zone.tld()),
                zone,
                tls: rng.chance(zone.tls_rate()),
                artifact: None,
                beyond_cut: false,
                wasm_version: 0,
                token_id: 0,
                latent_categories: sample_categories(&mut rng, clean_profile()),
            })
            .collect();

        Population {
            zone,
            total: zone.full_size(),
            artifacts,
            clean_sample,
            clean_total,
        }
    }

    /// Number of ground-truth active miners.
    pub fn true_active_miners(&self) -> usize {
        self.artifacts
            .iter()
            .filter(|d| d.artifact.map(|a| a.runs_miner()).unwrap_or(false))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexa_population_matches_calibration() {
        let p = Population::generate(Zone::Alexa, 42, 100);
        let actives = p.true_active_miners() as f64;
        assert!((actives - 737.0).abs() < 737.0 * 0.15, "actives {actives}");
        assert_eq!(p.total, 950_000);
        assert_eq!(p.clean_total + p.artifacts.len() as u64, p.total);
        assert_eq!(p.clean_sample.len(), 100);
    }

    #[test]
    fn population_is_deterministic() {
        let a = Population::generate(Zone::Org, 42, 10);
        let b = Population::generate(Zone::Org, 42, 10);
        assert_eq!(a.artifacts.len(), b.artifacts.len());
        assert_eq!(a.artifacts[0].name, b.artifacts[0].name);
        let c = Population::generate(Zone::Org, 43, 10);
        assert_ne!(a.artifacts.len(), c.artifacts.len());
    }

    #[test]
    fn domain_names_are_unique() {
        let p = Population::generate(Zone::Org, 42, 50);
        let domains = p.artifacts.iter().chain(&p.clean_sample);
        let mut names: Vec<&String> = domains.map(|d| &d.name).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn wasm_versions_stay_within_family_range() {
        let p = Population::generate(Zone::Alexa, 42, 0);
        let profiles = default_profiles();
        for d in &p.artifacts {
            if let Some(ArtifactKind::ActiveMiner { family, .. }) = d.artifact {
                // jsMiner is JS-only and has no Wasm corpus profile.
                let Some(profile) = profiles
                    .iter()
                    .find(|pr| pr.class == WasmClass::Miner(family))
                else {
                    assert_eq!(family, minedig_wasm::sigdb::MinerFamily::JsMinerLegacy);
                    continue;
                };
                assert!(d.wasm_version < profile.versions);
            }
        }
    }

    #[test]
    fn tls_rate_is_respected() {
        let p = Population::generate(Zone::Org, 42, 2_000);
        let tls = p.clean_sample.iter().filter(|d| d.tls).count() as f64 / 2_000.0;
        assert!((tls - Zone::Org.tls_rate()).abs() < 0.04, "tls {tls}");
    }

    #[test]
    fn every_domain_has_categories() {
        let p = Population::generate(Zone::Alexa, 42, 20);
        for d in p.artifacts.iter().chain(&p.clean_sample) {
            assert!(!d.latent_categories.is_empty());
        }
    }
}
