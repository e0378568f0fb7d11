//! A Symantec-RuleSpace-style website category oracle.
//!
//! RuleSpace assigns one or more categories per site and covers only part
//! of each population (Table 3's "Categorized" row: 79 %/74 % on Alexa vs
//! 54 %/42 % on .org). We model both properties: every domain has latent
//! categories drawn from a context-dependent distribution, and the oracle
//! reveals them only with a zone-dependent coverage probability.

use minedig_primitives::DetRng;

/// Website categories (the subset appearing in Tables 3–5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Gaming sites.
    Gaming,
    /// Educational sites.
    EducationalSite,
    /// Shopping.
    Shopping,
    /// Pornography.
    Pornography,
    /// Technology & telecommunication.
    Technology,
    /// Business.
    Business,
    /// Religion.
    Religion,
    /// Health sites.
    HealthSite,
    /// Filesharing.
    Filesharing,
    /// Entertainment & music.
    EntertainmentMusic,
    /// Message boards / forums.
    MessageBoard,
    /// Finance and investing.
    Finance,
    /// Automotive.
    Automotive,
    /// Dynamic sites (RuleSpace's catch-all for generated content).
    DynamicSite,
    /// Hosting providers / parked infrastructure.
    Hosting,
    /// News.
    News,
    /// Travel.
    Travel,
    /// Sports.
    Sports,
}

impl Category {
    /// Label as printed in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Gaming => "Gaming",
            Category::EducationalSite => "Edu. Site",
            Category::Shopping => "Shopping",
            Category::Pornography => "Pornogr.",
            Category::Technology => "Tech. & Telecomm.",
            Category::Business => "Business",
            Category::Religion => "Religion",
            Category::HealthSite => "Health Site",
            Category::Filesharing => "Filesharing",
            Category::EntertainmentMusic => "Ent. & Music",
            Category::MessageBoard => "Msg. Board",
            Category::Finance => "Finance and Investing",
            Category::Automotive => "Automotive",
            Category::DynamicSite => "Dynamic Site",
            Category::Hosting => "Hosting",
            Category::News => "News",
            Category::Travel => "Travel",
            Category::Sports => "Sports",
        }
    }

    /// All categories.
    pub fn all() -> &'static [Category] {
        use Category::*;
        &[
            Gaming,
            EducationalSite,
            Shopping,
            Pornography,
            Technology,
            Business,
            Religion,
            HealthSite,
            Filesharing,
            EntertainmentMusic,
            MessageBoard,
            Finance,
            Automotive,
            DynamicSite,
            Hosting,
            News,
            Travel,
            Sports,
        ]
    }
}

/// A weighted category profile; weights need not be normalized.
pub type CategoryWeights = &'static [(Category, f64)];

/// Generic web background (clean domains and the long tail).
pub const GENERIC_WEB: CategoryWeights = &[
    (Category::Business, 14.0),
    (Category::Technology, 10.0),
    (Category::Shopping, 9.0),
    (Category::DynamicSite, 8.0),
    (Category::EntertainmentMusic, 7.0),
    (Category::News, 6.0),
    (Category::EducationalSite, 6.0),
    (Category::Hosting, 6.0),
    (Category::Gaming, 5.0),
    (Category::Finance, 5.0),
    (Category::HealthSite, 4.0),
    (Category::Travel, 4.0),
    (Category::Sports, 4.0),
    (Category::Pornography, 4.0),
    (Category::MessageBoard, 3.0),
    (Category::Religion, 2.0),
    (Category::Filesharing, 2.0),
    (Category::Automotive, 1.0),
];

/// Up to [`CAPACITY`](CategorySet::CAPACITY) categories in the order they
/// were added, held inline: a `Copy` value that owns no heap memory.
/// Reads as a slice through `Deref`.
#[derive(Clone, Copy)]
pub struct CategorySet {
    len: u8,
    /// `cats[..len]` are the set; the rest is filler.
    cats: [Category; CategorySet::CAPACITY],
}

impl CategorySet {
    /// Most categories a set holds: [`sample_category_set`] draws 1–3.
    pub const CAPACITY: usize = 3;

    /// The empty set.
    pub const fn new() -> CategorySet {
        CategorySet {
            len: 0,
            cats: [Category::Gaming; CategorySet::CAPACITY],
        }
    }

    /// Appends `category`. Panics when the set already holds
    /// [`CAPACITY`](CategorySet::CAPACITY) categories.
    pub fn push(&mut self, category: Category) {
        assert!(
            usize::from(self.len) < CategorySet::CAPACITY,
            "CategorySet holds at most {} categories",
            CategorySet::CAPACITY
        );
        self.cats[usize::from(self.len)] = category;
        self.len += 1;
    }
}

impl Default for CategorySet {
    fn default() -> CategorySet {
        CategorySet::new()
    }
}

impl From<Category> for CategorySet {
    fn from(category: Category) -> CategorySet {
        let mut set = CategorySet::new();
        set.push(category);
        set
    }
}

impl std::ops::Deref for CategorySet {
    type Target = [Category];

    fn deref(&self) -> &[Category] {
        &self.cats[..usize::from(self.len)]
    }
}

impl PartialEq for CategorySet {
    fn eq(&self, other: &CategorySet) -> bool {
        **self == **other
    }
}

impl Eq for CategorySet {}

impl std::fmt::Debug for CategorySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a CategorySet {
    type Item = &'a Category;
    type IntoIter = std::slice::Iter<'a, Category>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for CategorySet {
    type Item = Category;
    type IntoIter = std::iter::Take<std::array::IntoIter<Category, { CategorySet::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.cats.into_iter().take(usize::from(self.len))
    }
}

/// Samples 1–3 latent categories from a weight profile, without repeats,
/// in the order they were drawn.
pub fn sample_category_set(rng: &mut DetRng, weights: CategoryWeights) -> CategorySet {
    let n = 1 + rng.weighted_index(&[0.55, 0.35, 0.10]);
    let mut cats = CategorySet::new();
    for _ in 0..n {
        let c = weights[rng.weighted_index_by(weights, |&(_, w)| w)].0;
        if !cats.contains(&c) {
            cats.push(c);
        }
    }
    cats
}

/// [`sample_category_set`] as a `Vec`.
pub fn sample_categories(rng: &mut DetRng, weights: CategoryWeights) -> Vec<Category> {
    sample_category_set(rng, weights).to_vec()
}

/// The RuleSpace oracle: reveals latent categories with zone-dependent
/// coverage.
#[derive(Clone, Debug)]
pub struct RuleSpace {
    rng: DetRng,
}

impl RuleSpace {
    /// Creates an oracle; `seed` controls which domains are covered.
    pub fn new(seed: u64) -> RuleSpace {
        RuleSpace {
            rng: DetRng::seed(seed).derive("rulespace"),
        }
    }

    /// Coverage probability for a domain in a zone. Popular (Alexa)
    /// domains are much better covered than the .org long tail, and
    /// obscure self-hosted sites are worse than average (Table 3's
    /// 79/74/54/42 % "Categorized" row).
    pub fn coverage(&self, zone: crate::zone::Zone, obscure: bool) -> f64 {
        let base = match zone {
            crate::zone::Zone::Alexa => 0.78,
            crate::zone::Zone::Com => 0.62,
            crate::zone::Zone::Net => 0.60,
            crate::zone::Zone::Org => 0.50,
        };
        if obscure {
            base * 0.84
        } else {
            base
        }
    }

    /// Classifies a domain: returns its latent categories if covered.
    /// Coverage is deterministic per domain name.
    pub fn classify(
        &self,
        domain_name: &str,
        zone: crate::zone::Zone,
        obscure: bool,
        latent: &[Category],
    ) -> Option<Vec<Category>> {
        let mut rng = self.rng.derive(domain_name);
        if rng.chance(self.coverage(zone, obscure)) {
            Some(latent.to_vec())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Zone;

    #[test]
    fn sampling_respects_weights() {
        let mut rng = DetRng::seed(1);
        const PORN_HEAVY: CategoryWeights = &[
            (Category::Pornography, 19.0),
            (Category::Technology, 8.0),
            (Category::Gaming, 1.0),
        ];
        let mut porn = 0;
        let n = 5_000;
        for _ in 0..n {
            let cats = sample_categories(&mut rng, PORN_HEAVY);
            assert!(!cats.is_empty() && cats.len() <= 3);
            if cats.contains(&Category::Pornography) {
                porn += 1;
            }
        }
        let share = porn as f64 / n as f64;
        assert!(share > 0.6, "porn share {share}");
    }

    #[test]
    fn no_duplicate_categories_per_domain() {
        let mut rng = DetRng::seed(2);
        for _ in 0..1000 {
            let cats = sample_categories(&mut rng, GENERIC_WEB);
            let mut sorted = cats.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), cats.len());
        }
    }

    /// Reference sampler: builds a weights `Vec` per call and grows a
    /// `Vec` of draws.
    fn sample_categories_vec(rng: &mut DetRng, weights: CategoryWeights) -> Vec<Category> {
        let n = 1 + rng.weighted_index(&[0.55, 0.35, 0.10]);
        let w: Vec<f64> = weights.iter().map(|(_, x)| *x).collect();
        let mut cats = Vec::with_capacity(n);
        for _ in 0..n {
            let c = weights[rng.weighted_index(&w)].0;
            if !cats.contains(&c) {
                cats.push(c);
            }
        }
        cats
    }

    #[test]
    fn set_sampler_draws_what_the_vec_sampler_draws() {
        const NARROW: CategoryWeights = &[(Category::News, 1.0), (Category::Sports, 3.0)];
        const SKEWED: CategoryWeights = &[
            (Category::Hosting, 0.0),
            (Category::Travel, 1e-9),
            (Category::Religion, 50.0),
        ];
        for weights in [GENERIC_WEB, NARROW, SKEWED] {
            for seed in [0, 7, 2018] {
                let (mut set_rng, mut vec_rng) = (DetRng::seed(seed), DetRng::seed(seed));
                for draw in 0..5_000 {
                    let set = sample_category_set(&mut set_rng, weights);
                    let reference = sample_categories_vec(&mut vec_rng, weights);
                    assert_eq!(&*set, &reference[..], "seed {seed} draw {draw}");
                    assert_eq!(set.to_vec(), reference);
                }
                // Both consumed exactly the same draws.
                assert_eq!(set_rng.next_u64(), vec_rng.next_u64(), "seed {seed}");
            }
        }
        let (mut a, mut b) = (DetRng::seed(3), DetRng::seed(3));
        for _ in 0..1_000 {
            assert_eq!(
                sample_categories(&mut a, GENERIC_WEB),
                sample_categories_vec(&mut b, GENERIC_WEB)
            );
        }
    }

    #[test]
    fn category_sets_read_like_lists() {
        let mut set = CategorySet::new();
        assert!(set.is_empty());
        assert_eq!(set, CategorySet::default());
        assert_eq!(format!("{set:?}"), "[]");
        set.push(Category::News);
        assert_eq!(set, CategorySet::from(Category::News));
        set.push(Category::Gaming);
        assert_eq!(format!("{set:?}"), "[News, Gaming]");
        assert_eq!(set.len(), 2);
        assert!(set.contains(&Category::Gaming));
        let by_ref: Vec<Category> = (&set).into_iter().copied().collect();
        let by_value: Vec<Category> = set.into_iter().collect();
        assert_eq!(by_ref, [Category::News, Category::Gaming]);
        assert_eq!(by_value, by_ref);
        // Equality sees only the held categories, in order.
        let mut other = CategorySet::from(Category::Gaming);
        assert_ne!(other, set);
        other = CategorySet::from(Category::News);
        other.push(Category::Gaming);
        assert_eq!(other, set);
        assert_eq!(std::mem::size_of::<CategorySet>(), 4);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn a_fourth_category_does_not_fit() {
        let mut set = CategorySet::new();
        for c in [
            Category::News,
            Category::Gaming,
            Category::Travel,
            Category::Sports,
        ] {
            set.push(c);
        }
    }

    #[test]
    fn classification_is_deterministic_per_domain() {
        let rs = RuleSpace::new(3);
        let latent = vec![Category::Gaming];
        let a = rs.classify("example.org", Zone::Org, false, &latent);
        let b = rs.classify("example.org", Zone::Org, false, &latent);
        assert_eq!(a, b);
    }

    #[test]
    fn coverage_matches_zone_targets() {
        let rs = RuleSpace::new(4);
        let latent = vec![Category::Business];
        let covered = |zone, obscure| {
            let mut n = 0;
            for i in 0..4_000 {
                if rs
                    .classify(&format!("d{i}.x"), zone, obscure, &latent)
                    .is_some()
                {
                    n += 1;
                }
            }
            n as f64 / 4_000.0
        };
        let alexa = covered(Zone::Alexa, false);
        let org = covered(Zone::Org, false);
        let org_obscure = covered(Zone::Org, true);
        assert!((0.74..0.82).contains(&alexa), "alexa {alexa}");
        assert!((0.46..0.54).contains(&org), "org {org}");
        assert!(org_obscure < org, "obscure coverage must be lower");
    }

    #[test]
    fn generic_web_covers_all_table_categories() {
        // Every category printed in Tables 3-5 must be producible.
        let listed: Vec<Category> = GENERIC_WEB.iter().map(|(c, _)| *c).collect();
        for c in Category::all() {
            assert!(listed.contains(c), "{c:?} missing from GENERIC_WEB");
        }
    }
}
