//! Ground-truth mining-artifact model and its calibration tables.
//!
//! A domain either is clean or carries exactly one *artifact*:
//!
//! * an **active miner** of some family, hosted in one of three ways —
//!   service-hosted (the script URL is on the mining service's domain and
//!   thus on the NoCoin list), self-hosted (a copied/renamed build on the
//!   site's own infrastructure — invisible to the list), or dynamically
//!   injected (invisible even to static HTML scans);
//! * an **Authedmine consent miner** — listed script, but it never starts
//!   (and never compiles Wasm) without an explicit user opt-in, which a
//!   crawler never gives;
//! * a **dead reference** — a listed miner script tag whose mining never
//!   runs (revoked keys, abandoned installs; historically very common);
//! * the **cpmstar ad network** — a gaming ad script on the NoCoin list
//!   that the paper could not verify to contain mining code (their false
//!   positive example);
//! * **benign Wasm** — codecs/games/crypto libraries (the ~4 % of Wasm
//!   that is not a miner in Table 1).
//!
//! Expected counts are calibrated *at full zone scale* from the paper's
//! marginals; populations are sampled Poisson around them. Detection
//! outcomes are never hard-coded — they emerge from hosting/consent/TLS
//! mechanics when the real pipelines scan the synthesized pages.

use crate::category::{Category, CategoryWeights, GENERIC_WEB};
use crate::zone::Zone;
use minedig_nocoin::list::ServiceLabel;
use minedig_wasm::sigdb::{BenignKind, MinerFamily};

/// How an active miner's script reaches the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Hosting {
    /// Script served from the mining service's own (block-listed) domain.
    Hosted,
    /// A copied build served from the website's own infrastructure.
    SelfHosted,
    /// Injected dynamically by an innocuous-looking loader script.
    Injected,
}

/// A domain's mining-related artifact (ground truth).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A miner that actually runs on page load.
    ActiveMiner {
        /// Miner family.
        family: MinerFamily,
        /// Hosting style.
        hosting: Hosting,
    },
    /// Authedmine: listed script, requires consent, never runs headless.
    ConsentMiner,
    /// Listed miner script that no longer mines.
    DeadReference {
        /// Which service's script is referenced.
        label: ServiceLabel,
    },
    /// The cpmstar gaming ad network (block-list false positive).
    AdNetworkFp,
    /// Non-mining WebAssembly.
    BenignWasm {
        /// What kind of benign module.
        kind: BenignKind,
    },
}

impl ArtifactKind {
    /// True if loading the page executes mining Wasm.
    pub fn runs_miner(&self) -> bool {
        matches!(self, ArtifactKind::ActiveMiner { .. })
    }
}

/// An expected-count cell of the deployment plan.
#[derive(Clone, Debug)]
pub struct ArtifactSpec {
    /// The artifact.
    pub kind: ArtifactKind,
    /// Expected number of such domains in the zone (full scale).
    pub expected: f64,
}

/// Per-family active-miner calibration for a zone:
/// `(family, expected_active_total, hosted_fraction)`.
///
/// Hosted fractions are solved from Table 2's blocked/missed split —
/// Alexa miners are far more evasive (129/737 listed) than .org miners
/// (450/1372), consistent with .org's hacked-WordPress profile using
/// stock service-hosted scripts.
fn active_table(zone: Zone) -> Vec<(MinerFamily, f64, f64)> {
    use MinerFamily::*;
    match zone {
        Zone::Alexa => vec![
            (Coinhive, 311.0, 0.35),
            (Skencituer, 123.0, 0.0),
            (Cryptoloot, 103.0, 0.20),
            (UnknownWss, 56.0, 0.0),
            (Notgiven688, 46.0, 0.0),
            (WebStatiBid, 25.0, 0.0),
            (FreecontentDate, 20.0, 0.0),
            (JsMinerLegacy, 3.0, 0.3),
            (OtherMiner, 50.0, 0.0),
        ],
        Zone::Org => vec![
            (Coinhive, 711.0, 0.55),
            (Cryptoloot, 183.0, 0.32),
            (WebStatiBid, 120.0, 0.0),
            (FreecontentDate, 108.0, 0.0),
            (Notgiven688, 92.0, 0.0),
            (Skencituer, 40.0, 0.0),
            (UnknownWss, 40.0, 0.0),
            (JsMinerLegacy, 8.0, 0.3),
            (OtherMiner, 70.0, 0.0),
        ],
        // .com/.net are not Chrome-scanned; their composition scales the
        // .org pattern by the zone's NoCoin-visible mass (see DESIGN.md).
        Zone::Com => scale_actives(Zone::Org, 11.7),
        Zone::Net => scale_actives(Zone::Org, 1.12),
    }
}

fn scale_actives(base: Zone, factor: f64) -> Vec<(MinerFamily, f64, f64)> {
    active_table(base)
        .into_iter()
        .map(|(f, n, h)| (f, n * factor, h))
        .collect()
}

/// Non-wasm listed artifacts + benign wasm for a zone:
/// `(kind, expected)`.
fn listed_extras(zone: Zone) -> Vec<(ArtifactKind, f64)> {
    use ArtifactKind::*;
    let (consent, dead_ch, dead_cl, dead_wp, fp, dead_other, benign) = match zone {
        Zone::Alexa => (60.0, 560.0, 40.0, 40.0, 130.0, 34.0, 59.0),
        Zone::Org => (45.0, 300.0, 25.0, 80.0, 50.0, 28.0, 119.0),
        Zone::Com => (530.0, 3510.0, 290.0, 940.0, 585.0, 330.0, 1390.0),
        Zone::Net => (50.0, 336.0, 28.0, 90.0, 56.0, 31.0, 133.0),
    };
    vec![
        (ConsentMiner, consent),
        (
            DeadReference {
                label: ServiceLabel::Coinhive,
            },
            dead_ch,
        ),
        (
            DeadReference {
                label: ServiceLabel::Cryptoloot,
            },
            dead_cl,
        ),
        (
            DeadReference {
                label: ServiceLabel::WpMonero,
            },
            dead_wp,
        ),
        (AdNetworkFp, fp),
        (
            DeadReference {
                label: ServiceLabel::Other,
            },
            dead_other,
        ),
        (
            BenignWasm {
                kind: BenignKind::Codec,
            },
            benign * 0.40,
        ),
        (
            BenignWasm {
                kind: BenignKind::Game,
            },
            benign * 0.30,
        ),
        (
            BenignWasm {
                kind: BenignKind::CryptoLib,
            },
            benign * 0.15,
        ),
        (
            BenignWasm {
                kind: BenignKind::Misc,
            },
            benign * 0.15,
        ),
    ]
}

/// The full deployment plan for a zone.
pub fn artifact_plan(zone: Zone) -> Vec<ArtifactSpec> {
    let mut plan = Vec::new();
    for (family, total, hosted_frac) in active_table(zone) {
        let hosted = total * hosted_frac;
        let rest = total - hosted;
        // Evasive miners split ~3:1 between plain self-hosting and
        // dynamic injection.
        let specs = [
            (Hosting::Hosted, hosted),
            (Hosting::SelfHosted, rest * 0.75),
            (Hosting::Injected, rest * 0.25),
        ];
        for (hosting, expected) in specs {
            if expected > 0.0 {
                plan.push(ArtifactSpec {
                    kind: ArtifactKind::ActiveMiner { family, hosting },
                    expected,
                });
            }
        }
    }
    for (kind, expected) in listed_extras(zone) {
        if expected > 0.0 {
            plan.push(ArtifactSpec { kind, expected });
        }
    }
    plan
}

/// Probability a listed script sits beyond the 256 kB zgrab cut.
pub const BEYOND_CUT_RATE: f64 = 0.03;

/// Latent-category weight profile for an artifact in a zone — the
/// mechanism behind Table 3's category skews (e.g. the cpmstar FP pulling
/// "Gaming" to the top of the NoCoin column).
pub fn category_profile(zone: Zone, kind: &ArtifactKind) -> CategoryWeights {
    const FP_ADNET: CategoryWeights = &[
        (Category::Gaming, 75.0),
        (Category::EntertainmentMusic, 10.0),
        (Category::Technology, 5.0),
        (Category::MessageBoard, 5.0),
        (Category::Shopping, 5.0),
    ];
    const ACTIVE_ALEXA: CategoryWeights = &[
        (Category::Pornography, 20.0),
        (Category::Technology, 9.0),
        (Category::Filesharing, 9.0),
        (Category::EducationalSite, 5.5),
        (Category::EntertainmentMusic, 5.5),
        (Category::Gaming, 4.0),
        (Category::Business, 4.0),
        (Category::Shopping, 4.0),
        (Category::DynamicSite, 3.5),
        (Category::MessageBoard, 3.0),
        (Category::Hosting, 3.0),
        (Category::News, 2.5),
        (Category::Finance, 2.0),
        (Category::HealthSite, 2.0),
        (Category::Sports, 1.5),
        (Category::Travel, 1.5),
        (Category::Religion, 1.0),
        (Category::Automotive, 1.0),
    ];
    const ACTIVE_ORG: CategoryWeights = &[
        (Category::Religion, 10.0),
        (Category::Business, 9.0),
        (Category::EducationalSite, 9.0),
        (Category::HealthSite, 8.0),
        (Category::Technology, 7.0),
        (Category::Pornography, 4.0),
        (Category::Gaming, 3.5),
        (Category::Shopping, 3.5),
        (Category::DynamicSite, 3.0),
        (Category::EntertainmentMusic, 3.0),
        (Category::Hosting, 2.5),
        (Category::MessageBoard, 2.5),
        (Category::News, 2.0),
        (Category::Finance, 2.0),
        (Category::Sports, 1.5),
        (Category::Travel, 1.5),
        (Category::Filesharing, 1.0),
        (Category::Automotive, 1.0),
    ];
    const DEAD_ALEXA: CategoryWeights = &[
        (Category::Gaming, 13.0),
        (Category::EducationalSite, 11.0),
        (Category::Shopping, 10.0),
        (Category::Pornography, 6.5),
        (Category::Technology, 6.5),
        (Category::Business, 6.0),
        (Category::EntertainmentMusic, 5.0),
        (Category::DynamicSite, 5.0),
        (Category::News, 4.0),
        (Category::Finance, 4.0),
        (Category::HealthSite, 3.5),
        (Category::MessageBoard, 3.5),
        (Category::Hosting, 3.0),
        (Category::Filesharing, 3.0),
        (Category::Sports, 2.5),
        (Category::Travel, 2.5),
        (Category::Religion, 1.5),
        (Category::Automotive, 1.5),
    ];
    const DEAD_ORG: CategoryWeights = &[
        (Category::Gaming, 30.0),
        (Category::Business, 8.5),
        (Category::EducationalSite, 6.5),
        (Category::Pornography, 5.5),
        (Category::Shopping, 5.0),
        (Category::Technology, 4.5),
        (Category::DynamicSite, 4.0),
        (Category::EntertainmentMusic, 4.0),
        (Category::Religion, 3.5),
        (Category::HealthSite, 3.0),
        (Category::News, 3.0),
        (Category::MessageBoard, 3.0),
        (Category::Hosting, 2.5),
        (Category::Finance, 2.5),
        (Category::Filesharing, 2.0),
        (Category::Sports, 2.0),
        (Category::Travel, 2.0),
        (Category::Automotive, 1.5),
    ];

    match kind {
        ArtifactKind::AdNetworkFp => FP_ADNET,
        ArtifactKind::ActiveMiner { .. } | ArtifactKind::BenignWasm { .. } => match zone {
            Zone::Alexa => ACTIVE_ALEXA,
            _ => ACTIVE_ORG,
        },
        ArtifactKind::ConsentMiner | ArtifactKind::DeadReference { .. } => match zone {
            Zone::Alexa => DEAD_ALEXA,
            _ => DEAD_ORG,
        },
    }
}

/// Generic background profile for clean domains.
pub fn clean_profile() -> CategoryWeights {
    GENERIC_WEB
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_actives(zone: Zone) -> f64 {
        artifact_plan(zone)
            .iter()
            .filter(|s| s.kind.runs_miner())
            .map(|s| s.expected)
            .sum()
    }

    fn total_hosted_actives(zone: Zone) -> f64 {
        artifact_plan(zone)
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    ArtifactKind::ActiveMiner {
                        hosting: Hosting::Hosted,
                        ..
                    }
                )
            })
            .map(|s| s.expected)
            .sum()
    }

    #[test]
    fn alexa_calibration_matches_table2() {
        // 737 wasm miners, 129 of them list-visible.
        assert!((total_actives(Zone::Alexa) - 737.0).abs() < 2.0);
        assert!((total_hosted_actives(Zone::Alexa) - 129.0).abs() < 3.0);
    }

    #[test]
    fn org_calibration_matches_table2() {
        assert!((total_actives(Zone::Org) - 1372.0).abs() < 2.0);
        assert!((total_hosted_actives(Zone::Org) - 450.0).abs() < 12.0);
    }

    #[test]
    fn nocoin_visible_mass_matches_chrome_hits() {
        // hosted actives + consent + dead refs + fp ≈ 993 (Alexa) / 978 (.org).
        for (zone, target) in [(Zone::Alexa, 993.0), (Zone::Org, 978.0)] {
            let listed: f64 = artifact_plan(zone)
                .iter()
                .filter(|s| match s.kind {
                    ArtifactKind::ActiveMiner { hosting, .. } => hosting == Hosting::Hosted,
                    ArtifactKind::ConsentMiner
                    | ArtifactKind::DeadReference { .. }
                    | ArtifactKind::AdNetworkFp => true,
                    ArtifactKind::BenignWasm { .. } => false,
                })
                .map(|s| s.expected)
                .sum();
            assert!(
                (listed - target).abs() / target < 0.05,
                "{zone:?}: listed {listed} vs {target}"
            );
        }
    }

    #[test]
    fn total_wasm_matches_table1() {
        // Every planned artifact that compiles Wasm on load, save the
        // jsMiner: the 2011 Bitcoin miner predates WebAssembly and mines
        // in plain JavaScript.
        let compiles_wasm = |kind: &ArtifactKind| match kind {
            ArtifactKind::ActiveMiner { family, .. } => *family != MinerFamily::JsMinerLegacy,
            ArtifactKind::BenignWasm { .. } => true,
            _ => false,
        };
        for (zone, target) in [(Zone::Alexa, 796.0), (Zone::Org, 1491.0)] {
            let wasm: f64 = artifact_plan(zone)
                .iter()
                .filter(|s| compiles_wasm(&s.kind))
                .map(|s| s.expected)
                .sum();
            assert!(
                (wasm - target).abs() / target < 0.02,
                "{zone:?}: wasm {wasm} vs {target}"
            );
        }
    }

    #[test]
    fn zgrab_expected_hits_match_fig2() {
        // listed mass × TLS rate × in-cut rate ≈ Fig 2 first-scan bars.
        for (zone, target) in [
            (Zone::Alexa, 710.0),
            (Zone::Com, 6676.0),
            (Zone::Net, 618.0),
            (Zone::Org, 473.0),
        ] {
            let listed: f64 = artifact_plan(zone)
                .iter()
                .filter(|s| match s.kind {
                    ArtifactKind::ActiveMiner { hosting, .. } => hosting == Hosting::Hosted,
                    ArtifactKind::ConsentMiner
                    | ArtifactKind::DeadReference { .. }
                    | ArtifactKind::AdNetworkFp => true,
                    ArtifactKind::BenignWasm { .. } => false,
                })
                .map(|s| s.expected)
                .sum();
            let expected_hits = listed * zone.tls_rate() * (1.0 - BEYOND_CUT_RATE);
            assert!(
                (expected_hits - target).abs() / target < 0.10,
                "{zone:?}: zgrab expectation {expected_hits} vs {target}"
            );
        }
    }

    #[test]
    fn miner_prevalence_is_below_008_percent() {
        // The paper's headline: < 0.08 % of probed sites.
        for zone in Zone::all() {
            let rate = total_actives(zone) / zone.full_size() as f64;
            assert!(rate < 0.0008, "{zone:?} prevalence {rate}");
        }
    }

    #[test]
    fn profiles_exist_for_all_kinds() {
        let kinds = [
            ArtifactKind::AdNetworkFp,
            ArtifactKind::ConsentMiner,
            ArtifactKind::ActiveMiner {
                family: MinerFamily::Coinhive,
                hosting: Hosting::Hosted,
            },
            ArtifactKind::DeadReference {
                label: ServiceLabel::Coinhive,
            },
            ArtifactKind::BenignWasm {
                kind: BenignKind::Codec,
            },
        ];
        for zone in Zone::all() {
            for kind in &kinds {
                assert!(!category_profile(zone, kind).is_empty());
            }
        }
    }

    #[test]
    fn fp_profile_is_gaming_dominated() {
        let w = category_profile(Zone::Alexa, &ArtifactKind::AdNetworkFp);
        assert_eq!(w[0].0, Category::Gaming);
        let total: f64 = w.iter().map(|(_, x)| x).sum();
        assert!(w[0].1 / total > 0.5);
    }
}
