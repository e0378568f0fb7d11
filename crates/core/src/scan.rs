//! The §3 measurement pipelines.

use minedig_browser::loader::{load_page, LoadPolicy};
use minedig_nocoin::list::ServiceLabel;
use minedig_nocoin::NoCoinEngine;
use minedig_primitives::fault::{Fault, FaultPlan};
use minedig_primitives::retry::{retry, ErrorClass, RetryPolicy, Retryable};
use minedig_primitives::rng::DetRng;
use minedig_wasm::cache::FingerprintCache;
use minedig_wasm::corpus::{default_profiles, generate_corpus};
use minedig_wasm::fingerprint::{fingerprint, fingerprint_with};
use minedig_wasm::module::Module;
use minedig_wasm::sigdb::{SignatureDb, WasmClass};
use minedig_web::category::Category;
use minedig_web::deploy::{ArtifactKind, Hosting};
use minedig_web::page::{synthesize_page, zgrab_fetch, CORPUS_SEED};
use minedig_web::universe::{Domain, Population};
use minedig_web::zone::Zone;
use std::collections::BTreeMap;

/// A transport-level fetch failure (the only thing [`FetchModel`]
/// injects). Always transient-capable: a permanent outage is a fault
/// that never clears, surfacing as retry exhaustion.
#[derive(Debug, Clone, Copy)]
struct FetchFailure;

impl Retryable for FetchFailure {
    fn error_class(&self) -> ErrorClass {
        ErrorClass::Transient
    }
}

/// Per-domain transport model for the scan pipelines.
///
/// The paper's Table 1 separates the zone size from the fraction of
/// domains that actually answered the crawl; this model reproduces that
/// distinction. Faults are keyed by domain name, so a schedule is
/// invariant under sharding, and each domain gets a retry budget with
/// deterministic backoff jitter before it is declared unreachable.
#[derive(Clone, Debug, Default)]
pub struct FetchModel {
    /// Optional seeded fault schedule; `None` makes every domain
    /// reachable (the historical behavior).
    pub faults: Option<FaultPlan>,
    /// Retry budget per domain.
    pub retry: RetryPolicy,
}

impl FetchModel {
    /// A model whose retry budget outlasts every transient fault of
    /// `plan`, making the scan provably fault-free-equivalent when the
    /// plan has no permanent faults.
    pub fn outlasting(plan: FaultPlan) -> FetchModel {
        FetchModel {
            retry: RetryPolicy::attempts(plan.attempts_to_clear()),
            faults: Some(plan),
        }
    }

    /// Attempts the transport leg of fetching `name`. Returns whether
    /// the domain was reachable and how many retries that took.
    fn reach(&self, name: &str) -> (bool, u64) {
        let Some(plan) = &self.faults else {
            return (true, 0);
        };
        let jitter = || DetRng::seed(plan.seed()).derive(&format!("fetch.jitter.{name}"));
        let outcome = retry(&self.retry, jitter, |attempt| {
            match plan.decide(&format!("fetch.{name}"), attempt) {
                // Latency alone does not lose the page.
                None | Some(Fault::Delay { .. }) => Ok(()),
                Some(_) => Err(FetchFailure),
            }
        });
        (outcome.result.is_ok(), u64::from(outcome.retries()))
    }
}

/// Table 1-style response-rate accounting for one scan.
///
/// Invariant: `attempted == responded + unreachable + silent` — every
/// fetch lands in exactly one outcome bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Domains the scan tried to fetch (artifacts + clean sample).
    pub attempted: u64,
    /// Fetches that produced a page to analyze.
    pub responded: u64,
    /// Fetches whose transport faults exhausted the retry budget — the
    /// domain is lost to this scan and counted here, never silently.
    pub unreachable: u64,
    /// Domains reached but not answering the probe (e.g. no TLS on the
    /// zgrab path) — a property of the population, not the transport.
    pub silent: u64,
    /// Transport retries spent across all domains.
    pub retries: u64,
}

impl FetchStats {
    /// Fraction of attempted domains that produced a page.
    pub fn response_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.responded as f64 / self.attempted as f64
    }

    /// Every attempted fetch lands in exactly one outcome bucket.
    pub fn balanced(&self) -> bool {
        self.attempted == self.responded + self.unreachable + self.silent
    }
}

/// Builds the reference signature database the way the paper did: a
/// manually-catalogued subset of the wild corpus (`coverage` of each
/// family's builds get exact signatures), with instruction-mix profiles
/// carrying classification for the rest.
pub fn build_reference_db(coverage: f64) -> SignatureDb {
    assert!((0.0..=1.0).contains(&coverage));
    let versions: BTreeMap<WasmClass, f64> = default_profiles()
        .iter()
        .map(|p| (p.class, p.versions as f64))
        .collect();
    let mut db = SignatureDb::new();
    for entry in generate_corpus(CORPUS_SEED) {
        // Deterministic subset: the first `coverage` fraction of each
        // family's versions are "in the catalogue".
        if (entry.version as f64) < coverage * versions[&entry.class] {
            db.insert(&fingerprint(&entry.module), entry.class);
        }
    }
    db
}

/// A domain reference kept for downstream categorization (Table 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainRef {
    /// Domain name.
    pub name: String,
    /// Latent categories (revealed through the RuleSpace oracle only).
    pub categories: Vec<Category>,
    /// Whether the site is "obscure" (self-hosted/injected miners hide on
    /// less-indexed sites; RuleSpace coverage is lower there).
    pub obscure: bool,
}

fn domain_ref(d: &Domain) -> DomainRef {
    let obscure = matches!(
        d.artifact,
        Some(ArtifactKind::ActiveMiner {
            hosting: Hosting::SelfHosted | Hosting::Injected,
            ..
        })
    );
    DomainRef {
        name: d.name.clone(),
        categories: d.latent_categories.clone(),
        obscure,
    }
}

/// Outcome of the zgrab + NoCoin scan of one zone (one scan date).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZgrabScanOutcome {
    /// Zone scanned.
    pub zone: Zone,
    /// Total domains the scan represents (full zone).
    pub total_domains: u64,
    /// Domains with at least one NoCoin hit.
    pub hit_domains: u64,
    /// Domains per service label (a domain can carry several labels).
    pub label_counts: BTreeMap<ServiceLabel, u64>,
    /// NoCoin hits among the clean sample (the pipeline's measured FP
    /// rate on genuinely clean pages — should be zero).
    pub clean_sample_hits: u64,
    /// Size of the scanned clean sample.
    pub clean_sample_size: u64,
    /// Domains that hit, for categorization.
    pub hit_refs: Vec<DomainRef>,
    /// Response-rate accounting for the scan's fetches.
    pub fetch: FetchStats,
}

/// Per-domain verdict of the zgrab probe stage.
///
/// A pure function of `(domain, seed, model)` — never of scan order — so
/// any backend that folds verdicts in population order reproduces the
/// same [`ZgrabScanOutcome`] bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZgrabVerdict {
    /// Transport retries spent reaching the domain.
    pub retries: u64,
    /// What the probe saw.
    pub probe: ZgrabProbe,
}

/// The four ways a zgrab probe of one domain can end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZgrabProbe {
    /// Transport faults exhausted the retry budget.
    Unreachable,
    /// Reachable, but the TLS gate filtered it — no page to analyze.
    Silent,
    /// Page fetched; no NoCoin label matched.
    Clean,
    /// Page fetched and labeled by the NoCoin list.
    Hit {
        /// Matched service labels.
        labels: Vec<ServiceLabel>,
        /// Reference kept for Table 3 categorization.
        dref: DomainRef,
    },
}

/// Shared read-only context for [`zgrab_probe_domain`] calls.
pub struct ZgrabProbeCtx<'a> {
    /// Scan seed (page synthesis derives from `(seed, domain name)`).
    pub seed: u64,
    /// Transport model with fault schedule and retry budget.
    pub model: &'a FetchModel,
    /// NoCoin matcher shared across workers (it is read-only).
    pub engine: &'a NoCoinEngine,
}

/// Probes one domain through the zgrab path: transport reach, TLS-gated
/// fetch, NoCoin labeling. This is the per-item stage kernel every zgrab
/// execution strategy shares.
pub fn zgrab_probe_domain(ctx: &ZgrabProbeCtx<'_>, d: &Domain) -> ZgrabVerdict {
    let (reachable, retries) = ctx.model.reach(&d.name);
    if !reachable {
        return ZgrabVerdict {
            retries,
            probe: ZgrabProbe::Unreachable,
        };
    }
    let Some(html) = zgrab_fetch(d, ctx.seed) else {
        return ZgrabVerdict {
            retries,
            probe: ZgrabProbe::Silent,
        };
    };
    let labels = ctx.engine.page_labels(&d.name, &html);
    let probe = if labels.is_empty() {
        ZgrabProbe::Clean
    } else {
        ZgrabProbe::Hit {
            labels,
            dref: domain_ref(d),
        }
    };
    ZgrabVerdict { retries, probe }
}

/// Folds one domain's verdict into the running outcome. `clean` says the
/// domain came from the clean sample (counts toward the FP-rate figures
/// instead of the hit figures). Folding verdicts in population order is
/// the *only* order-sensitive step of a scan.
pub fn zgrab_fold(outcome: &mut ZgrabScanOutcome, verdict: ZgrabVerdict, clean: bool) {
    if clean {
        outcome.clean_sample_size += 1;
    }
    outcome.fetch.attempted += 1;
    outcome.fetch.retries += verdict.retries;
    match verdict.probe {
        ZgrabProbe::Unreachable => outcome.fetch.unreachable += 1,
        ZgrabProbe::Silent => outcome.fetch.silent += 1,
        ZgrabProbe::Clean => outcome.fetch.responded += 1,
        ZgrabProbe::Hit { labels, dref } => {
            outcome.fetch.responded += 1;
            if clean {
                outcome.clean_sample_hits += 1;
            } else {
                outcome.hit_domains += 1;
                outcome.hit_refs.push(dref);
                for l in labels {
                    *outcome.label_counts.entry(l).or_insert(0) += 1;
                }
            }
        }
    }
}

impl ZgrabScanOutcome {
    /// An all-zero outcome for `zone`, ready to fold verdicts into.
    pub fn empty(zone: Zone) -> ZgrabScanOutcome {
        ZgrabScanOutcome {
            zone,
            total_domains: 0,
            hit_domains: 0,
            label_counts: BTreeMap::new(),
            clean_sample_hits: 0,
            clean_sample_size: 0,
            hit_refs: Vec::new(),
            fetch: FetchStats::default(),
        }
    }
}

/// The `index`-th domain of `population`'s scan order — artifact
/// domains first, then the clean sample — with its clean flag. Every
/// scan folds verdicts in this order.
pub fn scan_item(population: &Population, index: usize) -> (&Domain, bool) {
    let split = population.artifacts.len();
    if index < split {
        (&population.artifacts[index], false)
    } else {
        (&population.clean_sample[index - split], true)
    }
}

/// Number of domains in `population`'s scan order.
pub fn scan_len(population: &Population) -> usize {
    population.artifacts.len() + population.clean_sample.len()
}

/// Runs the TLS-only static scan over a population (§3.1) sequentially.
/// Every domain draws its randomness from `(seed, domain name)` (see
/// `minedig_web::page`), never from scan order, so
/// [`ZgrabCampaign`](crate::campaign::ZgrabCampaign) reproduces this
/// outcome bit for bit on any backend.
pub fn zgrab_scan(population: &Population, seed: u64) -> ZgrabScanOutcome {
    zgrab_scan_with(population, seed, &FetchModel::default())
}

/// [`zgrab_scan`] with an explicit transport [`FetchModel`]: domains
/// whose fetch exhausts the retry budget are counted unreachable and
/// excluded from analysis — degraded, never corrupted.
pub fn zgrab_scan_with(population: &Population, seed: u64, model: &FetchModel) -> ZgrabScanOutcome {
    let engine = NoCoinEngine::new();
    let ctx = ZgrabProbeCtx {
        seed,
        model,
        engine: &engine,
    };
    let mut outcome = ZgrabScanOutcome::empty(population.zone);
    for i in 0..scan_len(population) {
        let (d, clean) = scan_item(population, i);
        zgrab_fold(&mut outcome, zgrab_probe_domain(&ctx, d), clean);
    }
    outcome.total_domains = population.total;
    outcome
}

/// Outcome of the instrumented-browser scan of one zone (§3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeScanOutcome {
    /// Zone scanned.
    pub zone: Zone,
    /// Domains whose *post-execution* HTML hits the NoCoin list.
    pub nocoin_domains: u64,
    /// Domains that compiled any Wasm.
    pub wasm_domains: u64,
    /// Domains whose Wasm the signature DB classifies as a miner.
    pub miner_wasm_domains: u64,
    /// Miner-Wasm domains also caught by NoCoin ("blocked").
    pub blocked_by_nocoin: u64,
    /// Miner-Wasm domains missed by NoCoin.
    pub missed_by_nocoin: u64,
    /// NoCoin-hit domains that do *not* run miner Wasm (FPs + dead refs
    /// + consent-gated).
    pub nocoin_without_wasm: u64,
    /// Per-class domain counts over all classified Wasm (Table 1).
    pub class_counts: BTreeMap<String, u64>,
    /// Wasm dumps the DB could not classify.
    pub unclassified_wasm: u64,
    /// Clean-sample domains flagged as miners (measured FP rate).
    pub clean_sample_miner_hits: u64,
    /// NoCoin-hit domains, for Table 3 categorization.
    pub nocoin_refs: Vec<DomainRef>,
    /// Signature-found miner domains, for Table 3 categorization.
    pub miner_refs: Vec<DomainRef>,
    /// Response-rate accounting for the scan's fetches (the browser
    /// path has no TLS gate, so `silent` stays zero: every reachable
    /// domain loads).
    pub fetch: FetchStats,
}

/// Per-domain verdict of the Chrome probe stage. Like [`ZgrabVerdict`],
/// a pure function of `(domain, seed, model, db)` so every execution
/// strategy folding verdicts in population order agrees bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeVerdict {
    /// Transport retries spent reaching the domain.
    pub retries: u64,
    /// `None` when transport faults exhausted the retry budget.
    pub analysis: Option<ChromeAnalysis>,
}

/// Everything the instrumented-browser load of one domain produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeAnalysis {
    /// Post-execution HTML hit the NoCoin list.
    pub nocoin_hit: bool,
    /// The page compiled at least one Wasm module.
    pub has_wasm: bool,
    /// At least one dump classified as a miner.
    pub miner: bool,
    /// Class labels of all classified dumps, sorted and deduplicated.
    pub classes: Vec<String>,
    /// Dumps the signature DB could not classify (including clean-sample
    /// domains' dumps, matching the sequential kernel's accounting).
    pub unclassified: u64,
    /// Reference for Table 3 categorization; `Some` iff the domain hit
    /// NoCoin or ran miner Wasm.
    pub dref: Option<DomainRef>,
}

/// Shared read-only context for [`chrome_probe_domain`] calls.
pub struct ChromeProbeCtx<'a> {
    /// Scan seed (page synthesis and load behavior derive from
    /// `(seed, domain name)`).
    pub seed: u64,
    /// Transport model with fault schedule and retry budget.
    pub model: &'a FetchModel,
    /// NoCoin matcher shared across workers.
    pub engine: &'a NoCoinEngine,
    /// Reference signature database.
    pub db: &'a SignatureDb,
    /// Browser load policy (seeded with `seed`).
    pub policy: LoadPolicy,
    /// Optional fingerprint memo shared across workers. The memo stores
    /// only the fingerprint — classification stays per-domain because it
    /// depends on the page's WebSocket backend — so enabling it cannot
    /// change any outcome.
    pub cache: Option<&'a FingerprintCache>,
}

impl<'a> ChromeProbeCtx<'a> {
    /// Builds a context with the default load policy for `seed`.
    pub fn new(
        seed: u64,
        model: &'a FetchModel,
        engine: &'a NoCoinEngine,
        db: &'a SignatureDb,
        cache: Option<&'a FingerprintCache>,
    ) -> ChromeProbeCtx<'a> {
        ChromeProbeCtx {
            seed,
            model,
            engine,
            db,
            policy: LoadPolicy { seed },
            cache,
        }
    }
}

/// Loads and classifies one domain through the instrumented-browser
/// path: transport reach, page synthesis, full load with devtools
/// capture, NoCoin labeling of the final HTML and Wasm fingerprinting
/// of the capture's dumps. This is the per-item kernel every Chrome scan
/// shares. `scratch` is a reusable encode buffer (allocated once per
/// thread, not per dump).
pub fn chrome_probe_domain(
    ctx: &ChromeProbeCtx<'_>,
    d: &Domain,
    scratch: &mut Vec<u8>,
) -> ChromeVerdict {
    let (reachable, retries) = ctx.model.reach(&d.name);
    if !reachable {
        return ChromeVerdict {
            retries,
            analysis: None,
        };
    }
    let capture = load_page(&synthesize_page(d, ctx.seed), &ctx.policy);
    let nocoin_hit = !ctx
        .engine
        .page_labels(&d.name, &capture.final_html)
        .is_empty();
    // The page's WebSocket backend, the paper's strongest family
    // signal ("categorized them, e.g., through their Websocket
    // communication backend").
    let ws_family = capture
        .websocket_urls()
        .iter()
        .find_map(|u| minedig_web::page::family_for_ws_url(u));
    let has_ws = !capture.websocket_urls().is_empty();
    let mut miner = false;
    let mut classes: Vec<String> = Vec::new();
    let mut unclassified = 0u64;
    for dump in &capture.wasm_dumps {
        let fp = match ctx.cache {
            Some(cache) => cache.fingerprint(dump, scratch),
            None => Module::parse(dump)
                .ok()
                .map(|m| fingerprint_with(&m, scratch)),
        };
        let Some(fp) = fp else {
            unclassified += 1;
            continue;
        };
        // Priority: exact signature → known backend → instruction-mix
        // similarity (miners with an unknown backend land in the
        // paper's "UnknownWSS" class).
        let class = match ctx.db.classify(&fp) {
            Some(m) if m.kind == minedig_wasm::sigdb::MatchKind::Exact => Some(m.class),
            other => match ws_family {
                Some(f) => Some(WasmClass::Miner(f)),
                None => match other {
                    Some(m) if m.class.is_miner() && has_ws => Some(WasmClass::Miner(
                        minedig_wasm::sigdb::MinerFamily::UnknownWss,
                    )),
                    Some(m) => Some(m.class),
                    None if has_ws && fp.features.has_hash_name_hint() => Some(WasmClass::Miner(
                        minedig_wasm::sigdb::MinerFamily::UnknownWss,
                    )),
                    None => None,
                },
            },
        };
        match class {
            Some(c) => {
                if matches!(c, WasmClass::Miner(_)) {
                    miner = true;
                }
                classes.push(c.label());
            }
            None => unclassified += 1,
        }
    }
    classes.sort();
    classes.dedup();
    let dref = (nocoin_hit || miner).then(|| domain_ref(d));
    ChromeVerdict {
        retries,
        analysis: Some(ChromeAnalysis {
            nocoin_hit,
            has_wasm: !capture.wasm_dumps.is_empty(),
            miner,
            classes,
            unclassified,
            dref,
        }),
    }
}

/// Folds one domain's Chrome verdict into the running outcome; the
/// Chrome counterpart of [`zgrab_fold`].
pub fn chrome_fold(outcome: &mut ChromeScanOutcome, verdict: ChromeVerdict, clean: bool) {
    outcome.fetch.attempted += 1;
    outcome.fetch.retries += verdict.retries;
    let Some(a) = verdict.analysis else {
        outcome.fetch.unreachable += 1;
        return;
    };
    outcome.fetch.responded += 1;
    // Unclassifiable dumps count for clean-sample domains too, exactly
    // as the pre-refactor kernel did.
    outcome.unclassified_wasm += a.unclassified;
    if clean {
        if a.miner {
            outcome.clean_sample_miner_hits += 1;
        }
        return;
    }
    if a.nocoin_hit {
        outcome.nocoin_domains += 1;
        outcome
            .nocoin_refs
            .push(a.dref.clone().expect("dref accompanies every NoCoin hit"));
    }
    if a.has_wasm {
        outcome.wasm_domains += 1;
    }
    for c in a.classes {
        *outcome.class_counts.entry(c).or_insert(0) += 1;
    }
    if a.miner {
        outcome.miner_wasm_domains += 1;
        outcome
            .miner_refs
            .push(a.dref.expect("dref accompanies every miner"));
        if a.nocoin_hit {
            outcome.blocked_by_nocoin += 1;
        } else {
            outcome.missed_by_nocoin += 1;
        }
    } else if a.nocoin_hit {
        outcome.nocoin_without_wasm += 1;
    }
}

impl ChromeScanOutcome {
    /// An all-zero outcome for `zone`, ready to fold verdicts into.
    pub fn empty(zone: Zone) -> ChromeScanOutcome {
        ChromeScanOutcome {
            zone,
            nocoin_domains: 0,
            wasm_domains: 0,
            miner_wasm_domains: 0,
            blocked_by_nocoin: 0,
            missed_by_nocoin: 0,
            nocoin_without_wasm: 0,
            class_counts: BTreeMap::new(),
            unclassified_wasm: 0,
            clean_sample_miner_hits: 0,
            nocoin_refs: Vec::new(),
            miner_refs: Vec::new(),
            fetch: FetchStats::default(),
        }
    }
}

/// Runs the executing scan over a population (§3.2) sequentially. Uses
/// http *and* https (no TLS gate) and applies NoCoin to the final 65 kB
/// HTML. Page synthesis and load behavior derive from
/// `(seed, domain name)`, so
/// [`ChromeCampaign`](crate::campaign::ChromeCampaign) reproduces this
/// outcome bit for bit on any backend.
pub fn chrome_scan(population: &Population, db: &SignatureDb, seed: u64) -> ChromeScanOutcome {
    chrome_scan_with(population, db, seed, &FetchModel::default())
}

/// [`chrome_scan`] with an explicit transport [`FetchModel`]: domains
/// whose load exhausts the retry budget are counted unreachable and
/// never loaded.
pub fn chrome_scan_with(
    population: &Population,
    db: &SignatureDb,
    seed: u64,
    model: &FetchModel,
) -> ChromeScanOutcome {
    let engine = NoCoinEngine::new();
    let ctx = ChromeProbeCtx::new(seed, model, &engine, db, None);
    let mut scratch = Vec::new();
    let mut outcome = ChromeScanOutcome::empty(population.zone);
    for i in 0..scan_len(population) {
        let (d, clean) = scan_item(population, i);
        chrome_fold(
            &mut outcome,
            chrome_probe_domain(&ctx, d, &mut scratch),
            clean,
        );
    }
    outcome
}

/// Categorizes a set of domains through the RuleSpace oracle, returning
/// `(category counts, categorized domains, total domains)` — Table 3's
/// machinery. A domain contributes one count per (revealed) category.
pub fn categorize(
    refs: &[DomainRef],
    zone: Zone,
    rulespace: &minedig_web::category::RuleSpace,
) -> (BTreeMap<Category, u64>, u64, u64) {
    let mut counts: BTreeMap<Category, u64> = BTreeMap::new();
    let mut covered = 0u64;
    for r in refs {
        if let Some(cats) = rulespace.classify(&r.name, zone, r.obscure, &r.categories) {
            covered += 1;
            for c in cats {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
    }
    (counts, covered, refs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_org() -> Population {
        Population::generate(Zone::Org, 42, 50)
    }

    #[test]
    fn reference_db_has_paper_scale() {
        let db = build_reference_db(1.0);
        assert!(db.len() >= 160, "db size {}", db.len());
        let partial = build_reference_db(0.5);
        assert!(partial.len() < db.len());
        assert!(!partial.is_empty());
    }

    #[test]
    fn zgrab_scan_finds_listed_but_not_clean() {
        let pop = small_org();
        let out = zgrab_scan(&pop, 1);
        assert!(out.hit_domains > 0);
        assert_eq!(out.clean_sample_hits, 0, "no FPs on clean pages");
        // Coinhive dominates the label mix (>75 % of mining sites).
        let coinhive = out
            .label_counts
            .get(&ServiceLabel::Coinhive)
            .copied()
            .unwrap_or(0);
        assert!(coinhive as f64 / out.hit_domains as f64 > 0.5);
    }

    #[test]
    fn chrome_scan_beats_the_list() {
        let pop = small_org();
        let db = build_reference_db(0.7);
        let out = chrome_scan(&pop, &db, 1);
        assert!(out.miner_wasm_domains > 0);
        assert!(
            out.missed_by_nocoin > out.blocked_by_nocoin,
            "most miners evade the list (.org: 67% missed)"
        );
        assert_eq!(out.clean_sample_miner_hits, 0);
        assert_eq!(
            out.blocked_by_nocoin + out.missed_by_nocoin,
            out.miner_wasm_domains
        );
        // Wasm miners ≫ NoCoin∩Wasm (the 5.7× Alexa / 3× .org effect).
        assert!(out.miner_wasm_domains as f64 > 1.5 * out.blocked_by_nocoin as f64);
    }

    #[test]
    fn chrome_scan_class_mix_is_coinhive_led() {
        let pop = small_org();
        let db = build_reference_db(0.7);
        let out = chrome_scan(&pop, &db, 1);
        let coinhive = out.class_counts.get("coinhive").copied().unwrap_or(0);
        let max_other = out
            .class_counts
            .iter()
            .filter(|(k, _)| k.as_str() != "coinhive")
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        assert!(coinhive > max_other, "coinhive must lead Table 1");
    }

    #[test]
    fn unclassified_wasm_is_rare_with_full_db() {
        let pop = small_org();
        let db = build_reference_db(1.0);
        let out = chrome_scan(&pop, &db, 1);
        assert_eq!(out.unclassified_wasm, 0);
    }

    #[test]
    fn ground_truth_recall_is_high() {
        let pop = small_org();
        let db = build_reference_db(0.7);
        let out = chrome_scan(&pop, &db, 1);
        let truth = pop.true_active_miners() as f64;
        // jsMiner (no Wasm) and never-loading pages cost a little recall.
        let recall = out.miner_wasm_domains as f64 / truth;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn zgrab_fetch_accounting_balances_when_clean() {
        let pop = small_org();
        let out = zgrab_scan(&pop, 1);
        let f = &out.fetch;
        assert!(f.balanced());
        assert_eq!(f.unreachable, 0);
        assert_eq!(f.retries, 0);
        assert_eq!(
            f.attempted,
            (pop.artifacts.len() + pop.clean_sample.len()) as u64
        );
        assert!(f.silent > 0, "the TLS gate must silence some domains");
        assert!(f.response_rate() < 1.0);
    }

    #[test]
    fn transient_faults_with_retries_match_the_clean_scan() {
        let pop = small_org();
        let clean = zgrab_scan(&pop, 1);
        let plan = FaultPlan::transient_only(31, 0.5);
        let faulty = zgrab_scan_with(&pop, 1, &FetchModel::outlasting(plan));
        assert!(faulty.fetch.retries > 0, "p=0.5 must force retries");
        let mut normalized = faulty.clone();
        normalized.fetch.retries = 0;
        assert_eq!(normalized, clean, "clearing faults must cost nothing");

        let db = build_reference_db(0.7);
        let clean_ch = chrome_scan(&pop, &db, 1);
        let plan = FaultPlan::transient_only(32, 0.5);
        let faulty_ch = chrome_scan_with(&pop, &db, 1, &FetchModel::outlasting(plan));
        assert!(faulty_ch.fetch.retries > 0);
        let mut normalized = faulty_ch.clone();
        normalized.fetch.retries = 0;
        assert_eq!(normalized, clean_ch);
    }

    #[test]
    fn permanent_faults_degrade_into_unreachable_counts() {
        use minedig_primitives::fault::FaultConfig;
        let pop = small_org();
        let clean = zgrab_scan(&pop, 1);
        let plan = FaultPlan::with_config(
            8,
            FaultConfig {
                fault_prob: 0.4,
                permanent_prob: 1.0,
                // Exclude Delay: a permanently-delayed fetch still lands.
                kind_weights: [1.0, 0.0, 1.0, 1.0, 1.0],
                ..FaultConfig::default()
            },
        );
        let faulty = zgrab_scan_with(&pop, 1, &FetchModel::outlasting(plan));
        let f = &faulty.fetch;
        assert!(f.balanced());
        assert!(
            f.unreachable > 0,
            "p=0.4 permanent faults must lose domains"
        );
        assert_eq!(f.attempted, clean.fetch.attempted);
        // Unreachable domains can only shrink the hit set, never corrupt it.
        assert!(faulty.hit_domains <= clean.hit_domains);
        assert!(f.response_rate() < clean.fetch.response_rate());
        let faulty_labels: u64 = faulty.label_counts.values().sum();
        let clean_labels: u64 = clean.label_counts.values().sum();
        assert!(faulty_labels <= clean_labels);
    }

    #[test]
    fn categorization_counts_and_coverage() {
        let pop = small_org();
        let out = zgrab_scan(&pop, 1);
        let rs = minedig_web::category::RuleSpace::new(3);
        let (counts, covered, total) = categorize(&out.hit_refs, Zone::Org, &rs);
        assert_eq!(total, out.hit_domains);
        assert!(covered > 0 && covered <= total);
        let coverage = covered as f64 / total as f64;
        assert!((0.35..0.65).contains(&coverage), "coverage {coverage}");
        assert!(!counts.is_empty());
    }
}
