//! The calibrated link-creation model.
//!
//! Calibration targets from §4.1:
//! * 1,709,203 active links (Feb 2018); configurable scale,
//! * one user creates ⅓ of all links; ten users create ~85 % (Fig 3),
//! * hash requirements concentrate in 2^8–2^16 with a heavy-user spike at
//!   512 and a misconfiguration tail up to exactly 10^19 (Fig 4),
//! * after removing the user bias, >⅔ of requirements are ≤ 1024,
//! * top-10 users' links point overwhelmingly at streaming/filesharing
//!   (Table 4); the long tail is categorically diverse (Table 5).

use crate::ids::index_to_code;
use minedig_primitives::rng::Zipf;
use minedig_primitives::{DetRng, IdMap, IdSet};
use minedig_web::category::{sample_category_set, Category, CategorySet, CategoryWeights};
use std::fmt::Write;
use std::sync::Arc;

/// The paper's observed live-link count in February 2018.
pub const PAPER_LINK_COUNT: u64 = 1_709_203;

/// The "infeasible" requirement observed hundreds of times: 10^19 hashes
/// (≈ 16 Gyr at 20 H/s).
pub const MAX_HASHES: u64 = 10_000_000_000_000_000_000;

/// One short link.
///
/// The record stores only what its index cannot determine: the code
/// and the destination URL are computed on demand from `index`,
/// `target_domain` and `path_hash`. It owns no heap memory of its own:
/// the domain is shared and the categories are held inline.
#[derive(Clone, Debug)]
pub struct LinkRecord {
    /// Creation index (determines the code).
    pub index: u64,
    /// Creator token id (users ≡ tokens, as in the paper).
    pub token_id: u32,
    /// Hashes the visitor must get credited before the redirect fires.
    pub required_hashes: u64,
    /// Destination domain (for Table 4). Links to one domain may share
    /// the allocation.
    pub target_domain: Arc<str>,
    /// Path component of the destination URL.
    pub path_hash: u64,
    /// Latent destination categories (revealed via RuleSpace for Table 5).
    pub target_categories: CategorySet,
}

impl LinkRecord {
    /// The short code (`cnhv.co/<code>`).
    pub fn code(&self) -> String {
        index_to_code(self.index)
    }

    /// Destination URL: `https://<target_domain>/<path_hash as hex>`.
    pub fn target_url(&self) -> String {
        format!("https://{}/{:08x}", self.target_domain, self.path_hash)
    }
}

/// Model configuration.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Number of links to create (use `PAPER_LINK_COUNT / 10` by default).
    pub total_links: u64,
    /// Number of distinct creator tokens.
    pub users: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            total_links: PAPER_LINK_COUNT / 10,
            users: 12_000,
            seed: 0x1146,
        }
    }
}

/// Head-user link shares: rank-1 holds ⅓, ranks 1–10 hold ~85 % together.
const HEAD_SHARES: [f64; 10] = [
    0.3333, 0.12, 0.09, 0.075, 0.06, 0.05, 0.04, 0.035, 0.027, 0.02,
];

/// Destination mix of the top-10 users (Table 4) with the paper's
/// categories; ~89 % of their sampled links fall on these ten domains.
pub const TOP10_DESTINATIONS: &[(&str, Category, f64)] = &[
    ("youtu.be", Category::EntertainmentMusic, 0.20),
    ("zippyshare.com", Category::Filesharing, 0.10),
    ("icerbox.com", Category::Filesharing, 0.10),
    ("hq-mirror.de", Category::EntertainmentMusic, 0.10),
    ("andyspeedracing.com", Category::Automotive, 0.10),
    ("ftbucket.info", Category::MessageBoard, 0.099),
    ("getcoinfree.com", Category::Finance, 0.092),
    ("ul.to", Category::Filesharing, 0.042),
    ("share-online.biz", Category::Filesharing, 0.029),
    ("oboom.com", Category::Filesharing, 0.028),
];

/// Misc mirror domains (`mirror000.net` …) the head users' remaining
/// ~11 % of links point at.
const MIRRORS: u64 = 300;

/// Category weights for long-tail destinations (drives Table 5).
const TAIL_CATEGORY_WEIGHTS: CategoryWeights = &[
    (Category::Technology, 15.2),
    (Category::Gaming, 7.4),
    (Category::DynamicSite, 7.3),
    (Category::Business, 5.8),
    (Category::Pornography, 5.8),
    (Category::Shopping, 5.7),
    (Category::Finance, 5.0),
    (Category::EntertainmentMusic, 3.1),
    (Category::EducationalSite, 3.0),
    (Category::Hosting, 3.0),
    (Category::News, 2.6),
    (Category::MessageBoard, 2.4),
    (Category::Filesharing, 2.4),
    (Category::HealthSite, 2.0),
    (Category::Travel, 1.8),
    (Category::Sports, 1.8),
    (Category::Religion, 1.0),
    (Category::Automotive, 1.0),
];

/// Hash-requirement policy of one user: a small set of counts the user
/// configures across their links (the paper's unbiased CDF counts each
/// `(user, count)` pair once, implying users reuse counts).
#[derive(Clone, Debug)]
struct UserPolicy {
    counts: Vec<u64>,
}

fn sample_policy(rng: &mut DetRng, is_rank1: bool) -> UserPolicy {
    if is_rank1 {
        // The heavy user behind the 512-hash spike.
        return UserPolicy {
            counts: vec![512, 512, 512, 1024],
        };
    }
    // ~3 % of users misconfigure: astronomically large requirements,
    // many exactly at 10^19.
    if rng.chance(0.03) {
        let huge = if rng.chance(0.6) {
            MAX_HASHES
        } else {
            // 10^12 .. 10^18, log-uniform-ish.
            let exp = 12 + rng.gen_range(7) as u32;
            10u64.pow(exp)
        };
        return UserPolicy {
            counts: vec![huge, 1024],
        };
    }
    // Body of the distribution: powers of two, 2^8..2^16, weighted so
    // that ~2/3 of (user, count) pairs sit at ≤ 1024.
    const EXP_WEIGHTS: [(u32, f64); 9] = [
        (8, 0.18),
        (9, 0.20),
        (10, 0.28),
        (11, 0.09),
        (12, 0.07),
        (13, 0.05),
        (14, 0.05),
        (15, 0.04),
        (16, 0.04),
    ];
    let n = 1 + rng.gen_range(2) as usize;
    let counts = (0..n)
        .map(|_| 1u64 << EXP_WEIGHTS[rng.weighted_index_by(&EXP_WEIGHTS, |&(_, w)| w)].0)
        .collect();
    UserPolicy { counts }
}

/// The generated link population.
#[derive(Clone, Debug)]
pub struct LinkPopulation {
    /// All links in creation order.
    pub links: Vec<LinkRecord>,
    /// Number of users.
    pub users: usize,
}

impl LinkPopulation {
    /// Generates a population under the given configuration.
    ///
    /// # Panics
    ///
    /// If `config.users` does not fit the `u32` token ids.
    pub fn generate(config: &ModelConfig) -> LinkPopulation {
        let users = u32::try_from(config.users)
            .unwrap_or_else(|_| panic!("{} users do not fit u32 token ids", config.users));
        let mut rng = DetRng::seed(config.seed).derive("shortlink.model");
        let total = config.total_links;

        // Per-user link counts: explicit head shares + Zipf tail.
        let mut counts = vec![0u64; config.users];
        let mut assigned = 0u64;
        for (rank, share) in HEAD_SHARES.iter().enumerate() {
            counts[rank] = (total as f64 * share) as u64;
            assigned += counts[rank];
        }
        let tail_users = config.users - HEAD_SHARES.len();
        // A flat-ish power law: heavy-tailed, but no tail user rivals the
        // explicitly-modeled head (the paper's top-10 hold 85 %).
        let zipf = Zipf::new(tail_users, 0.8);
        for _ in 0..total.saturating_sub(assigned) {
            let r = HEAD_SHARES.len() + zipf.sample(&mut rng);
            counts[r] += 1;
        }

        // Policies and destination tilts per user.
        let policies: Vec<UserPolicy> = (0..config.users)
            .map(|u| sample_policy(&mut rng, u == 0))
            .collect();

        // Emit links in an interleaved creation order (users created
        // links over time, not in rank blocks).
        let mut owners: Vec<u32> = Vec::with_capacity(total as usize);
        for (user, &c) in (0..users).zip(&counts) {
            for _ in 0..c {
                owners.push(user);
            }
        }
        rng.shuffle(&mut owners);

        // The head users' 310 destinations cover ~85 % of links; every
        // link to one of them shares its domain.
        let top10_domains: Vec<Arc<str>> = TOP10_DESTINATIONS
            .iter()
            .map(|(d, _, _)| Arc::from(*d))
            .collect();
        let mirrors: Vec<Arc<str>> = (0..MIRRORS)
            .map(|m| Arc::from(format!("mirror{m:03}.net")))
            .collect();
        let mut links = Vec::with_capacity(owners.len());
        // A long-tail domain is formatted here, then copied once into
        // its own `Arc<str>`.
        let mut domain = String::new();
        for (index, &owner) in owners.iter().enumerate() {
            let user = owner as usize;
            let policy = &policies[user];
            let required_hashes = *rng.choose(&policy.counts);
            let is_head = user < HEAD_SHARES.len();
            let (target_domain, target_categories) = if is_head {
                // 89 % on the Table 4 domains, the rest on misc mirrors.
                if rng.chance(0.89) {
                    let i = rng.weighted_index_by(TOP10_DESTINATIONS, |&(_, _, w)| w);
                    let cat = TOP10_DESTINATIONS[i].1;
                    (top10_domains[i].clone(), CategorySet::from(cat))
                } else {
                    let m = rng.gen_range(MIRRORS) as usize;
                    (mirrors[m].clone(), CategorySet::from(Category::Filesharing))
                }
            } else {
                domain.clear();
                write!(
                    domain,
                    "dest-{:06}.{}",
                    rng.gen_range(500_000),
                    tail_tld(&mut rng)
                )
                .expect("writing to a String cannot fail");
                let cats = sample_category_set(&mut rng, TAIL_CATEGORY_WEIGHTS);
                (Arc::from(domain.as_str()), cats)
            };
            links.push(LinkRecord {
                index: index as u64,
                token_id: owner,
                required_hashes,
                target_domain,
                path_hash: rng.next_u64(),
                target_categories,
            });
        }
        LinkPopulation {
            links,
            users: config.users,
        }
    }

    /// Links-per-token counts (Fig 3's y-values), sorted descending.
    pub fn links_per_token(&self) -> Vec<u64> {
        let mut counts = IdMap::default();
        for l in &self.links {
            *counts.entry(l.token_id).or_insert(0u64) += 1;
        }
        let mut v: Vec<u64> = counts.into_values().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Hash requirements counted once per `(user, count)` pair (the
    /// user-bias-removed dataset of Fig 4).
    pub fn hash_requirements_unbiased(&self) -> Vec<u64> {
        let mut seen = IdSet::default();
        self.links
            .iter()
            .filter(|l| seen.insert((l.token_id, l.required_hashes)))
            .map(|l| l.required_hashes)
            .collect()
    }
}

fn tail_tld(rng: &mut DetRng) -> &'static str {
    let tlds: &[&'static str] = &["com", "net", "org", "info", "biz", "to", "io"];
    // `choose` yields `&&'static str`; the deref is load-bearing despite
    // clippy's auto-deref suggestion (the return type needs `&'static str`).
    #[allow(clippy::explicit_auto_deref)]
    *rng.choose(tlds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_primitives::stats::{top1_share, top_k_for_share};
    use minedig_primitives::{keccak256, to_hex};

    fn small_population() -> LinkPopulation {
        LinkPopulation::generate(&ModelConfig {
            total_links: 40_000,
            users: 3_000,
            seed: 42,
        })
    }

    #[test]
    fn top_user_owns_a_third() {
        let pop = small_population();
        let counts = pop.links_per_token();
        let share = top1_share(&counts);
        assert!((0.30..0.37).contains(&share), "top-1 share {share}");
    }

    #[test]
    fn ten_users_own_85_percent() {
        let pop = small_population();
        let counts = pop.links_per_token();
        let k = top_k_for_share(counts, 0.85);
        assert!((9..=12).contains(&k), "users for 85%: {k}");
    }

    #[test]
    fn unbiased_majority_at_or_below_1024() {
        let pop = small_population();
        let unbiased = pop.hash_requirements_unbiased();
        let le1024 = unbiased.iter().filter(|&&h| h <= 1024).count() as f64;
        let frac = le1024 / unbiased.len() as f64;
        assert!((0.60..0.75).contains(&frac), "≤1024 fraction {frac}");
    }

    #[test]
    fn biased_spike_at_512() {
        let pop = small_population();
        let at512 = pop.links.iter().filter(|l| l.required_hashes == 512);
        let frac = at512.count() as f64 / pop.links.len() as f64;
        // The ⅓-user sets 512 on ~75 % of links: expect a dominant spike.
        assert!(frac > 0.20, "512 spike {frac}");
    }

    #[test]
    fn infeasible_tail_exists() {
        let pop = small_population();
        let huge = pop
            .links
            .iter()
            .filter(|l| l.required_hashes == MAX_HASHES)
            .count();
        // Scales with the population; the full-size default yields
        // hundreds, matching the paper ("over hundreds of short links").
        assert!(huge > 15, "10^19 links: {huge}");
        // And from more than one user.
        let users: std::collections::HashSet<u32> = pop
            .links
            .iter()
            .filter(|l| l.required_hashes == MAX_HASHES)
            .map(|l| l.token_id)
            .collect();
        assert!(users.len() > 5, "10^19 users: {}", users.len());
    }

    #[test]
    fn head_links_point_at_table4_domains() {
        let pop = small_population();
        let head_links: Vec<&LinkRecord> = pop.links.iter().filter(|l| l.token_id < 10).collect();
        let youtube = head_links
            .iter()
            .filter(|l| &*l.target_domain == "youtu.be")
            .count() as f64;
        let share = youtube / head_links.len() as f64;
        assert!((0.14..0.24).contains(&share), "youtu.be share {share}");
    }

    #[test]
    fn tail_links_are_diverse() {
        let pop = small_population();
        let tail_cats: std::collections::HashSet<Category> = pop
            .links
            .iter()
            .filter(|l| l.token_id >= 10)
            .flat_map(|l| l.target_categories)
            .collect();
        assert!(tail_cats.len() >= 12, "tail categories {}", tail_cats.len());
    }

    #[test]
    fn a_record_is_48_bytes() {
        // The u32 token shares a word with the inline categories.
        assert_eq!(std::mem::size_of::<LinkRecord>(), 48);
    }

    #[test]
    #[should_panic(expected = "4294967296 users do not fit u32 token ids")]
    fn users_beyond_u32_are_refused() {
        LinkPopulation::generate(&ModelConfig {
            total_links: 0,
            users: 1 << 32,
            seed: 1,
        });
    }

    #[test]
    fn codes_match_indices() {
        let pop = small_population();
        assert_eq!(pop.links[0].code(), index_to_code(0));
        assert_eq!(
            pop.links.last().unwrap().code(),
            index_to_code(pop.links.len() as u64 - 1)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_population();
        let b = small_population();
        assert_eq!(a.links.len(), b.links.len());
        assert_eq!(a.links[1000].target_url(), b.links[1000].target_url());
    }

    /// Every field of a 10,000-link population, hashed: any change to
    /// the model's RNG draw order, or to how a code or URL is rendered,
    /// fails here.
    #[test]
    fn generation_matches_the_golden_digest() {
        let pop = LinkPopulation::generate(&ModelConfig {
            total_links: 10_000,
            users: 2_500,
            seed: 2018,
        });
        let mut rows = String::new();
        for l in &pop.links {
            let cats: Vec<&str> = l.target_categories.iter().map(|c| c.label()).collect();
            rows.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                l.index,
                l.code(),
                l.token_id,
                l.required_hashes,
                l.target_url(),
                l.target_domain,
                cats.join("|")
            ));
        }
        assert_eq!(pop.links.len(), 10_000);
        assert_eq!(
            to_hex(&keccak256(rows.as_bytes())),
            "62faecc25afe4c2490007ad50f4e19408154d0b84def803a3094d8309d1ecb76"
        );
    }
}
