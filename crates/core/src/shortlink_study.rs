//! §4.1 as one campaign: enumerate the link space while resolving the
//! cheap unbiased tail, then compute the Fig 3/4 distributions, resolve
//! the top users' samples and categorize destinations.
//!
//! The walk's ledger is one 16-byte [`Sighting`] per live link, and the
//! analysis reads the sightings: no live link's [`VisitDoc`] outlives
//! its probe.
//!
//! [`VisitDoc`]: minedig_shortlink::service::VisitDoc

use minedig_primitives::ckpt::{Checkpointable, CkptError, Snapshot};
use minedig_primitives::stats::{top1_share, top_k_for_share, Ecdf, Pow2Histogram};
use minedig_primitives::supervise::{
    run_campaign, Backend, Campaign, Ckpt, SuperviseError, SuperviseReport,
};
use minedig_primitives::{DetRng, IdMap, IdSet};
use minedig_shortlink::campaign::{EnumCampaign, Sighting, WalkCounts, WalkLedger};
use minedig_shortlink::ids::index_to_code;
use minedig_shortlink::model::{LinkPopulation, ModelConfig};
use minedig_shortlink::probe::ProbePolicy;
use minedig_shortlink::resolve::resolve_accounted;
use minedig_shortlink::service::ShortlinkService;
use minedig_web::category::Category;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;

/// Study configuration.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Link model.
    pub model: ModelConfig,
    /// Per-link resolution budget (the paper resolved links < 10 K hashes
    /// from the unbiased dataset).
    pub resolve_budget: u64,
    /// Sample size per top-10 user for Table 4 (paper: 1000).
    pub per_user_sample: usize,
    /// Backend the ID-space walk runs on (results are identical on
    /// every backend).
    pub backend: Backend,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            model: ModelConfig::default(),
            resolve_budget: 10_000,
            per_user_sample: 1_000,
            backend: Backend::Sequential,
        }
    }
}

/// The study's outputs.
pub struct StudyResult {
    /// The walk's probe counters.
    pub walk: WalkCounts,
    /// Fig 3: links per token, sorted descending.
    pub links_per_token: Vec<u64>,
    /// Fig 3 headline: share of links from the single top user.
    pub top1_share: f64,
    /// Fig 3 headline: users needed for 85 % of links.
    pub users_for_85pct: usize,
    /// Fig 4: histogram of all requirements (biased).
    pub hist_biased: Pow2Histogram,
    /// Fig 4: ECDFs over log2(requirement).
    pub cdf_biased: Ecdf,
    /// Fig 4: unbiased ECDF.
    pub cdf_unbiased: Ecdf,
    /// Fraction of unbiased requirements ≤ 1024.
    pub unbiased_le_1024: f64,
    /// Hashes spent resolving links: [`tail_hashes_spent`] plus the
    /// Table 4 sample, which is resolved at any cost and so adds every
    /// 10^19-hash link it draws (seed 2018 at paper scale:
    /// 4,930,000,052.4 M hashes in all). Saturating.
    ///
    /// [`tail_hashes_spent`]: StudyResult::tail_hashes_spent
    pub hashes_spent: u64,
    /// Hashes spent resolving the unbiased < budget dataset alone: the
    /// figure to compare with the paper's 61.5 M.
    pub tail_hashes_spent: u64,
    /// Table 4: destination-domain frequencies of the top-10 users'
    /// samples.
    pub top10_domains: Vec<(String, f64)>,
    /// Table 5: category counts of the resolved unbiased set.
    pub tail_categories: BTreeMap<Category, u64>,
    /// Table 5: fraction of resolved tail URLs RuleSpace classified.
    pub tail_classified_fraction: f64,
}

/// Dead-run limit of the study's enumeration walk.
const STUDY_DEAD_RUN_LIMIT: u64 = 256;

/// The study's walk: [`EnumCampaign`] with the unbiased-below-budget
/// tail resolved as the fold reaches each first sighting, on
/// `config.backend`. It checkpoints and restores as the campaign does,
/// but finishes with the campaign's sightings, where the campaign's own
/// [`Campaign::finish`] would rebuild a doc for each.
struct StudyWalk<'a>(EnumCampaign<'a, ShortlinkService>);

impl<'a> StudyWalk<'a> {
    fn new(
        service: &'a ShortlinkService,
        policy: &'a ProbePolicy,
        config: &StudyConfig,
    ) -> StudyWalk<'a> {
        StudyWalk(
            EnumCampaign::new(service, policy, STUDY_DEAD_RUN_LIMIT, config.backend)
                .with_tail_resolver(service, config.resolve_budget),
        )
    }
}

impl Checkpointable for StudyWalk<'_> {
    fn progress_key(&self) -> u64 {
        self.0.progress_key()
    }

    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), CkptError> {
        self.0.restore(snapshot)
    }
}

impl Campaign for StudyWalk<'_> {
    type Output = WalkLedger;

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn run_items(&mut self, budget: u64, heartbeat: &AtomicU64) {
        self.0.run_items(budget, heartbeat);
    }

    fn finish(self) -> WalkLedger {
        self.0.into_ledger()
    }
}

/// Runs the full §4.1 study: the enumeration walk, with the
/// unbiased-tail resolve stage riding on it, then the analysis. With
/// `ckpt` the walk runs under its supervisor as snapshot
/// `shortlink-{links}-{seed}`: its resolve ledger is part of every
/// snapshot, so a killed study resumes resolution too, and the outputs
/// are bit-identical to a straight run. The supervisor's accounting
/// comes back with a checkpointed study's result.
pub fn run_study(
    config: &StudyConfig,
    seed: u64,
    ckpt: Option<&Ckpt>,
) -> Result<(StudyResult, Option<SuperviseReport>), SuperviseError> {
    let service = ShortlinkService::new(LinkPopulation::generate(&config.model));
    let policy = ProbePolicy::default();
    let name = format!("shortlink-{}-{seed}", config.model.total_links);
    let (walk, report) = run_campaign(ckpt, &name, || StudyWalk::new(&service, &policy, config))?;
    Ok((finish_study(&service, walk, config, seed), report))
}

/// The analysis after the walk: Fig 3/4 statistics from the sightings,
/// the Table 4 top-10 sampling (resolved here), and the Table 5
/// categorization of the already-resolved tail.
fn finish_study(
    service: &ShortlinkService,
    ledger: WalkLedger,
    config: &StudyConfig,
    seed: u64,
) -> StudyResult {
    let WalkLedger {
        sightings,
        counts: walk,
        resolve_report: tail_report,
    } = ledger;
    let Tally {
        token_counts,
        mut biased,
        unbiased,
    } = tally(&sightings);
    let links_per_token: Vec<u64> = token_counts.iter().map(|&(_, n)| n).collect();
    let top1 = top1_share(&links_per_token);
    let users85 = top_k_for_share(links_per_token.clone(), 0.85);

    // Sorted once, as integers: `log2` keeps their order, so the ECDF
    // finds its input already sorted. The mapping reuses the sorted
    // buffer.
    biased.sort_unstable();
    let mut hist = Pow2Histogram::new(63);
    for &h in &biased {
        hist.add(h);
    }
    let log2 = |h: u64| (h as f64).log2();
    let cdf_biased = Ecdf::new(biased.into_iter().map(log2).collect());
    let le1024 = unbiased.iter().filter(|&&h| h <= 1024).count() as f64 / unbiased.len() as f64;
    let cdf_unbiased = Ecdf::new(unbiased.into_iter().map(log2).collect());

    // Table 4 samples are resolved regardless of cost in the paper's
    // method (they come from the top users, whose links are cheap).
    let top10_codes = table4_sample(&sightings, &token_counts, seed, config.per_user_sample);
    let top10_report = resolve_accounted(service, &top10_codes, u64::MAX);
    let mut domain_counts: BTreeMap<String, u64> = BTreeMap::new();
    for (_code, url) in &top10_report.resolved {
        let domain = url
            .trim_start_matches("https://")
            .split('/')
            .next()
            .unwrap_or("")
            .to_string();
        *domain_counts.entry(domain).or_insert(0) += 1;
    }
    let total_top10 = top10_report.resolved.len().max(1) as f64;
    let mut top10_domains: Vec<(String, f64)> = domain_counts
        .into_iter()
        .map(|(d, c)| (d, c as f64 / total_top10))
        .collect();
    top10_domains.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    // Table 5: categorize the resolved unbiased ("tail") destinations.
    // RuleSpace covers roughly two thirds of destination URLs (§4.1).
    let rulespace_rng = DetRng::seed(seed).derive("shortlink.study.rulespace");
    let mut tail_categories: BTreeMap<Category, u64> = BTreeMap::new();
    let mut classified = 0u64;
    for (code, _url) in &tail_report.resolved {
        let Some(idx) = minedig_shortlink::ids::code_to_index(code) else {
            continue;
        };
        let Some(link) = service.link(idx) else {
            continue;
        };
        let mut r = rulespace_rng.derive(&link.target_domain);
        if r.chance(0.67) {
            classified += 1;
            for c in &link.target_categories {
                *tail_categories.entry(*c).or_insert(0) += 1;
            }
        }
    }
    let tail_classified_fraction = classified as f64 / tail_report.resolved.len().max(1) as f64;

    StudyResult {
        walk,
        links_per_token,
        top1_share: top1,
        users_for_85pct: users85,
        hist_biased: hist,
        cdf_biased,
        cdf_unbiased,
        unbiased_le_1024: le1024,
        hashes_spent: tail_report
            .hashes_spent
            .saturating_add(top10_report.hashes_spent),
        tail_hashes_spent: tail_report.hashes_spent,
        top10_domains,
        tail_categories,
        tail_classified_fraction,
    }
}

/// What the analysis counts in its one pass over the sightings.
struct Tally {
    /// `(token, links)` for every token, most links first and ties by
    /// token id, as [`Enumeration::token_counts`] ranks them: Fig 3's
    /// series and Table 4's top ten.
    ///
    /// [`Enumeration::token_counts`]: minedig_shortlink::enumerate::Enumeration::token_counts
    token_counts: Vec<(u32, u64)>,
    /// Every requirement, in walk order (Fig 4's biased dataset).
    biased: Vec<u64>,
    /// The requirement of the first sighting of each
    /// `(token, requirement)` pair, in walk order (the unbiased dataset).
    unbiased: Vec<u64>,
}

fn tally(sightings: &[Sighting]) -> Tally {
    let mut per_token: IdMap<u32, u64> = IdMap::default();
    let mut pairs = IdSet::default();
    let mut biased = Vec::with_capacity(sightings.len());
    let mut unbiased = Vec::new();
    for s in sightings {
        *per_token.entry(s.token).or_insert(0) += 1;
        biased.push(s.required_hashes);
        if pairs.insert((s.token, s.required_hashes)) {
            unbiased.push(s.required_hashes);
        }
    }
    let mut token_counts: Vec<(u32, u64)> = per_token.into_iter().collect();
    token_counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Tally {
        token_counts,
        biased,
        unbiased,
    }
}

/// Users Table 4 samples: the top ten by link count.
const TABLE4_USERS: usize = 10;

/// Table 4's sample: up to `per_user_sample` random links of each of
/// the top-10 users, the first ten of `token_counts` (ranked as
/// [`Tally::token_counts`]). One pass over the sightings buckets each
/// user's link indices in walk order; each bucket is then shuffled in
/// rank order. The shuffle's draws depend only on the bucket's length,
/// so the sample is the one a shuffle of the codes themselves would
/// give.
fn table4_sample(
    sightings: &[Sighting],
    token_counts: &[(u32, u64)],
    seed: u64,
    per_user_sample: usize,
) -> Vec<String> {
    let top = &token_counts[..token_counts.len().min(TABLE4_USERS)];
    let mut buckets: Vec<Vec<u32>> = top
        .iter()
        .map(|&(_, links)| Vec::with_capacity(links as usize))
        .collect();
    for s in sightings {
        if let Some(rank) = top.iter().position(|&(token, _)| token == s.token) {
            buckets[rank].push(s.index);
        }
    }
    let mut rng = DetRng::seed(seed).derive("shortlink.study.sample");
    let mut codes = Vec::new();
    for mut picks in buckets {
        rng.shuffle(&mut picks);
        picks.truncate(per_user_sample);
        codes.extend(picks.into_iter().map(|i| index_to_code(u64::from(i))));
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use minedig_primitives::ckpt::SnapshotStore;
    use minedig_primitives::supervise::{run_to_end, CrashPolicy, Supervisor};
    use minedig_shortlink::enumerate::{enumerate_links_with, Enumeration};
    use minedig_shortlink::ids::code_to_index;
    use proptest::prelude::*;

    fn config(total_links: u64, users: usize, per_user_sample: usize) -> StudyConfig {
        StudyConfig {
            model: ModelConfig {
                total_links,
                users,
                seed: 9,
            },
            resolve_budget: 10_000,
            per_user_sample,
            backend: Backend::Sequential,
        }
    }

    /// The study run straight through.
    fn straight(config: &StudyConfig) -> StudyResult {
        run_study(config, 9, None)
            .expect("a straight run cannot fail")
            .0
    }

    fn small_study() -> StudyResult {
        straight(&config(30_000, 2_500, 300))
    }

    /// The sightings a walk keeps for `e`'s docs.
    fn sightings_of(e: &Enumeration) -> Vec<Sighting> {
        e.docs
            .iter()
            .map(|d| Sighting::of(code_to_index(&d.code).expect("a walk's code"), d))
            .collect()
    }

    /// The sequential reference walk of `config`'s population.
    fn reference_walk(config: &StudyConfig) -> (ShortlinkService, Enumeration) {
        let service = ShortlinkService::new(LinkPopulation::generate(&config.model));
        let e = enumerate_links_with(&service, STUDY_DEAD_RUN_LIMIT, &ProbePolicy::default());
        (service, e)
    }

    /// The study the campaign must reproduce: the sequential walk, then
    /// the unbiased-below-budget tail resolved as one batch.
    fn batch_study(config: &StudyConfig, seed: u64) -> StudyResult {
        let (service, enumeration) = reference_walk(config);
        let mut seen = std::collections::HashSet::new();
        let tail: Vec<String> = enumeration
            .docs
            .iter()
            .filter(|d| {
                seen.insert((d.token_id, d.required_hashes))
                    && d.required_hashes < config.resolve_budget
            })
            .map(|d| d.code.clone())
            .collect();
        let walk = WalkLedger {
            sightings: sightings_of(&enumeration),
            counts: WalkCounts {
                probed: enumeration.probed,
                failed_probes: enumeration.failed_probes,
                probe_retries: enumeration.probe_retries,
            },
            resolve_report: resolve_accounted(&service, &tail, config.resolve_budget),
        };
        finish_study(&service, walk, config, seed)
    }

    fn assert_study_eq(a: &StudyResult, b: &StudyResult, ctx: &str) {
        assert_eq!(a.walk, b.walk, "{ctx}");
        assert_eq!(a.links_per_token, b.links_per_token, "{ctx}");
        assert_eq!(a.hist_biased.bins(), b.hist_biased.bins(), "{ctx}");
        assert_eq!(a.unbiased_le_1024, b.unbiased_le_1024, "{ctx}");
        assert_eq!(a.cdf_unbiased.len(), b.cdf_unbiased.len(), "{ctx}");
        assert_eq!(a.hashes_spent, b.hashes_spent, "{ctx}");
        assert_eq!(a.tail_hashes_spent, b.tail_hashes_spent, "{ctx}");
        assert_eq!(a.top10_domains, b.top10_domains, "{ctx}");
        assert_eq!(a.tail_categories, b.tail_categories, "{ctx}");
        assert_eq!(
            a.tail_classified_fraction, b.tail_classified_fraction,
            "{ctx}"
        );
    }

    #[test]
    fn every_backend_yields_the_batch_study() {
        let base = config(10_000, 800, 100);
        let batch = batch_study(&base, 9);
        for backend in [Backend::Sequential, Backend::Sharded(8)] {
            let study = straight(&StudyConfig {
                backend,
                ..base.clone()
            });
            assert_study_eq(&study, &batch, &backend.to_string());
        }
    }

    #[test]
    fn supervised_study_with_kills_equals_batch_study() {
        // Kills spread across the walk: early (resolve set still
        // growing), mid, and late (most of the tail already resolved),
        // so resolution resumes from the snapshot too.
        for (backend, kills) in [
            (Backend::Sharded(4), vec![500, 2_000]),
            (Backend::Sequential, vec![200, 1_500, 4_000]),
        ] {
            let config = StudyConfig {
                backend,
                ..config(10_000, 800, 100)
            };
            let batch = batch_study(&config, 9);
            let dir = std::env::temp_dir().join(format!(
                "minedig-study-sup-{}-{}",
                kills.len(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let crashes = kills.len() as u32;
            let ckpt = Ckpt {
                store: SnapshotStore::open(&dir).expect("open store"),
                supervisor: Supervisor::new(CrashPolicy {
                    ckpt_every_items: 64,
                    ..CrashPolicy::default()
                })
                .with_kills(kills),
                resume: false,
            };
            let (study, report) = run_study(&config, 9, Some(&ckpt)).expect("supervised study");
            let report = report.expect("a supervised study reports");
            assert_eq!(report.crashes, crashes, "backend={backend}");
            assert!(report.balanced(), "{report:?}");
            assert_study_eq(&study, &batch, &backend.to_string());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_study_walk_keeps_the_campaigns_ledger() {
        // The wrapper hands over the sightings that `EnumCampaign`
        // would rebuild into docs, with the same counters and tail.
        let config = config(10_000, 800, 100);
        let service = ShortlinkService::new(LinkPopulation::generate(&config.model));
        let policy = ProbePolicy::default();
        let ledger = run_to_end(StudyWalk::new(&service, &policy, &config));
        let out = run_to_end(StudyWalk::new(&service, &policy, &config).0);
        let docs: Vec<_> = ledger.sightings.iter().map(Sighting::doc).collect();
        assert_eq!(docs, out.enumeration.docs);
        assert_eq!(ledger.counts.probed, out.enumeration.probed);
        assert_eq!(ledger.resolve_report.resolved, out.resolve_report.resolved);
        assert_eq!(
            ledger.resolve_report.hashes_spent,
            out.resolve_report.hashes_spent
        );
    }

    #[test]
    fn the_tally_matches_the_enumeration_statistics() {
        // One pass over the sightings gives what `Enumeration`'s
        // per-statistic methods give over the docs.
        for (links, users) in [(10_000, 800), (2_000, 1_500), (0, 100)] {
            let (_, e) = reference_walk(&config(links, users, 100));
            let t = tally(&sightings_of(&e));
            let counts: Vec<(u64, u64)> = t
                .token_counts
                .iter()
                .map(|&(token, n)| (u64::from(token), n))
                .collect();
            assert_eq!(counts, e.token_counts(), "{links} links");
            assert_eq!(t.biased, e.requirements_biased(), "{links} links");
            assert_eq!(t.unbiased, e.requirements_unbiased(), "{links} links");
        }
    }

    /// Reference Table 4 sample: the top ten from a SipHash count map,
    /// then one `filter` pass over the sightings per user, shuffling the
    /// codes themselves.
    fn table4_sample_ten_pass(
        sightings: &[Sighting],
        seed: u64,
        per_user_sample: usize,
    ) -> Vec<String> {
        let mut counts = std::collections::HashMap::new();
        for s in sightings {
            *counts.entry(s.token).or_insert(0u64) += 1;
        }
        let mut ranked: Vec<(u32, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut rng = DetRng::seed(seed).derive("shortlink.study.sample");
        let mut codes = Vec::new();
        for (token, _) in ranked.into_iter().take(10) {
            let mut picks: Vec<String> = sightings
                .iter()
                .filter(|s| s.token == token)
                .map(Sighting::code)
                .collect();
            rng.shuffle(&mut picks);
            picks.truncate(per_user_sample);
            codes.extend(picks);
        }
        codes
    }

    /// Sightings of consecutive links carrying `tokens` in order.
    fn sightings_with(tokens: &[u32]) -> Vec<Sighting> {
        (0u32..)
            .zip(tokens)
            .map(|(index, &token)| Sighting {
                index,
                token,
                required_hashes: 512,
            })
            .collect()
    }

    fn one_pass_sample(s: &[Sighting], seed: u64, per_user_sample: usize) -> Vec<String> {
        table4_sample(s, &tally(s).token_counts, seed, per_user_sample)
    }

    #[test]
    fn table4_sample_matches_the_ten_pass_filter() {
        // Twelve users of five links each: the top ten are a tie,
        // broken by token id, and 8 > 5 takes every link of each.
        let ties: Vec<u32> = (0..60u32).map(|i| 500 - (i * 5 % 12) * 7).collect();
        let few = [4u32, 1, 4, 4, 2, 1, 9];
        for tokens in [&ties[..], &few[..], &[]] {
            let s = sightings_with(tokens);
            for per_user in [0, 1, 3, 8, 1_000] {
                for seed in [0, 9, 2018] {
                    assert_eq!(
                        one_pass_sample(&s, seed, per_user),
                        table4_sample_ten_pass(&s, seed, per_user),
                        "per_user {per_user} seed {seed}"
                    );
                }
            }
        }
        // A generated study's walk, with buckets of every size.
        let (_, e) = reference_walk(&config(10_000, 800, 100));
        let s = sightings_of(&e);
        for per_user in [100, 5_000] {
            assert_eq!(
                one_pass_sample(&s, 9, per_user),
                table4_sample_ten_pass(&s, 9, per_user)
            );
        }
    }

    proptest! {
        #[test]
        fn table4_sample_matches_the_ten_pass_filter_on_generated_sightings(
            users in 1u32..16,
            raw in prop::collection::vec(any::<u32>(), 0..300),
            per_user in 0usize..40,
            seed in any::<u64>(),
        ) {
            let tokens: Vec<u32> = raw.iter().map(|r| r % users * 31).collect();
            let s = sightings_with(&tokens);
            prop_assert_eq!(
                one_pass_sample(&s, seed, per_user),
                table4_sample_ten_pass(&s, seed, per_user)
            );
        }
    }

    #[test]
    fn fig3_headlines() {
        let r = small_study();
        assert!(
            (0.29..0.38).contains(&r.top1_share),
            "top1 {}",
            r.top1_share
        );
        assert!(
            (9..=12).contains(&r.users_for_85pct),
            "users {}",
            r.users_for_85pct
        );
    }

    #[test]
    fn fig4_shapes() {
        let r = small_study();
        // Majority of unbiased requirements resolvable in under a minute.
        assert!((0.60..0.75).contains(&r.unbiased_le_1024));
        // Biased CDF at 512 (log2 = 9) is much higher than unbiased (the
        // heavy-user spike).
        let b = r.cdf_biased.fraction_at_or_below(9.0);
        let u = r.cdf_unbiased.fraction_at_or_below(9.0);
        assert!(b > u + 0.15, "biased {b} vs unbiased {u}");
        // The infeasible tail exists in both.
        assert!(r.cdf_biased.max() > 60.0); // log2(1e19) ≈ 63.1
    }

    #[test]
    fn table4_is_filesharing_heavy() {
        let r = small_study();
        assert!(!r.top10_domains.is_empty());
        let top: Vec<&str> = r
            .top10_domains
            .iter()
            .take(10)
            .map(|(d, _)| d.as_str())
            .collect();
        assert!(top.contains(&"youtu.be"), "top domains: {top:?}");
        // youtu.be leads at ~20 %.
        assert_eq!(r.top10_domains[0].0, "youtu.be");
        assert!((0.12..0.28).contains(&r.top10_domains[0].1));
    }

    #[test]
    fn table5_is_diverse_and_partially_classified() {
        let r = small_study();
        assert!(r.tail_categories.len() >= 10);
        assert!((0.55..0.8).contains(&r.tail_classified_fraction));
        // Tech leads the tail categories (Table 5).
        let max_cat = r
            .tail_categories
            .iter()
            .max_by_key(|(_, &v)| v)
            .map(|(c, _)| *c)
            .unwrap();
        assert_eq!(max_cat, Category::Technology);
    }

    #[test]
    fn hash_cost_is_accounted() {
        let r = small_study();
        assert!(r.hashes_spent > 100_000, "spent {}", r.hashes_spent);
    }

    #[test]
    fn hash_cost_is_the_tail_plus_the_table4_sample() {
        let config = config(30_000, 2_500, 300);
        let service = ShortlinkService::new(LinkPopulation::generate(&config.model));
        let policy = ProbePolicy::default();
        let walk = run_to_end(StudyWalk::new(&service, &policy, &config));
        let tail = walk.resolve_report.hashes_spent;
        let tail_resolved = walk.resolve_report.resolved.len() as u64;
        let counts = tally(&walk.sightings).token_counts;
        let sample = table4_sample(&walk.sightings, &counts, 9, config.per_user_sample);
        let r = finish_study(&service, walk, &config, 9);
        let table4 = resolve_accounted(&service, &sample, u64::MAX).hashes_spent;
        assert_eq!(r.tail_hashes_spent, tail);
        assert_eq!(r.hashes_spent, tail.saturating_add(table4));
        assert!(tail_resolved > 0);
        assert!(
            r.tail_hashes_spent <= config.resolve_budget * tail_resolved,
            "{} hashes over {tail_resolved} links",
            r.tail_hashes_spent
        );
    }
}
