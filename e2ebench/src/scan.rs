//! §3 as `minedig scan` runs it: zgrab + NoCoin on every zone, Chrome +
//! Wasm on Alexa and .org — composed here from the crates' leaf
//! functions so each layer can be timed on its own.

use crate::trace::span;
use crate::Layers;
use minedig::browser::loader::{load_page, LoadPolicy};
use minedig::core::report::{comparison_table, fetch_stats, Comparison};
use minedig::core::scan::{
    build_reference_db, chrome_fold, zgrab_fold, ChromeAnalysis, ChromeScanOutcome, ChromeVerdict,
    DomainRef, ZgrabProbe, ZgrabScanOutcome, ZgrabVerdict,
};
use minedig::nocoin::NoCoinEngine;
use minedig::wasm::sigdb::{MatchKind, MinerFamily, SignatureDb, WasmClass};
use minedig::wasm::FingerprintCache;
use minedig::web::deploy::{ArtifactKind, Hosting};
use minedig::web::page::{family_for_ws_url, synthesize_page, zgrab_fetch};
use minedig::web::universe::{Domain, Population};
use minedig::web::zone::Zone;

/// Zones in the order the workload scans them.
pub const ZONES: [Zone; 4] = [Zone::Alexa, Zone::Com, Zone::Net, Zone::Org];

/// Clean-sample size the CLI scans per zone.
const CLEAN_SAMPLE: usize = 500;

/// Signature coverage of the reference DB the CLI builds.
const DB_COVERAGE: f64 = 0.7;

/// The CLI's name for a zone.
pub fn zone_arg(zone: Zone) -> &'static str {
    match zone {
        Zone::Alexa => "alexa",
        Zone::Com => "com",
        Zone::Net => "net",
        Zone::Org => "org",
    }
}

/// The workload's inputs: every zone's population and the reference
/// signature DB.
pub fn setup(seed: u64) -> (Vec<Population>, SignatureDb) {
    let pops = ZONES
        .iter()
        .map(|&z| Population::generate(z, seed, CLEAN_SAMPLE))
        .collect();
    (pops, build_reference_db(DB_COVERAGE))
}

/// Scans `zones` at `seed` through the leaf functions, with spans, and
/// returns the CLI's result lines for the same invocations.
pub fn traced(zones: &[Zone], seed: u64, layers: &mut Layers) -> Vec<String> {
    let mut lines = Vec::new();
    let engine = span("nocoin.match", NoCoinEngine::new);
    for &zone in zones {
        let pop = span("web.population", || {
            Population::generate(zone, seed, CLEAN_SAMPLE)
        });
        lines.push(format!(
            "ground truth: {} active miners",
            pop.true_active_miners()
        ));
        let zg = zgrab_zone(&pop, seed, &engine, layers);
        lines.extend(zgrab_lines(&zg));
        if zone.chrome_scanned() {
            let db = span("web.population", || build_reference_db(DB_COVERAGE));
            let ch = chrome_zone(&pop, &db, seed, &engine, layers);
            lines.extend(chrome_lines(&ch));
        } else {
            lines.push(NOT_CHROME.to_string());
        }
    }
    lines
}

const NOT_CHROME: &str =
    "(zone not part of the paper's Chrome measurement — §3.2 covers Alexa and .org)";

/// Every domain the scan visits, artifacts first, with its clean-sample flag.
fn domains(pop: &Population) -> impl Iterator<Item = (&Domain, bool)> {
    let artifacts = pop.artifacts.iter().map(|d| (d, false));
    artifacts.chain(pop.clean_sample.iter().map(|d| (d, true)))
}

fn zgrab_zone(
    pop: &Population,
    seed: u64,
    engine: &NoCoinEngine,
    layers: &mut Layers,
) -> ZgrabScanOutcome {
    let mut outcome = ZgrabScanOutcome::empty(pop.zone);
    for (d, clean) in domains(pop) {
        let html = span("web.synth", || zgrab_fetch(d, seed));
        layers.count("web.pages", 1.0);
        let probe = match html {
            None => ZgrabProbe::Silent,
            Some(html) => {
                let labels = span("nocoin.match", || engine.page_labels(&d.name, &html));
                layers.count("nocoin.pages", 1.0);
                if labels.is_empty() {
                    ZgrabProbe::Clean
                } else {
                    ZgrabProbe::Hit {
                        labels,
                        dref: domain_ref(d),
                    }
                }
            }
        };
        // The fault-free transport reaches every domain on the first try.
        let verdict = ZgrabVerdict { retries: 0, probe };
        span("core.fold", || zgrab_fold(&mut outcome, verdict, clean));
    }
    outcome.total_domains = pop.total;
    outcome
}

fn chrome_zone(
    pop: &Population,
    db: &SignatureDb,
    seed: u64,
    engine: &NoCoinEngine,
    layers: &mut Layers,
) -> ChromeScanOutcome {
    let policy = LoadPolicy {
        seed,
        ..LoadPolicy::default()
    };
    let cache = FingerprintCache::new();
    let mut scratch = Vec::new();
    let mut outcome = ChromeScanOutcome::empty(pop.zone);
    for (d, clean) in domains(pop) {
        let page = span("web.synth", || synthesize_page(d, seed));
        layers.count("web.pages", 1.0);
        let capture = span("browser.load", || load_page(&page, &policy));
        layers.count("browser.loads", 1.0);
        layers.count("browser.wasm_dumps", capture.wasm_dumps.len() as f64);
        let nocoin_hit = span("nocoin.match", || {
            !engine.page_labels(&d.name, &capture.final_html).is_empty()
        });
        layers.count("nocoin.pages", 1.0);
        let ws = capture.websocket_urls();
        let ws_family = ws.iter().find_map(|u| family_for_ws_url(u));
        let has_ws = !ws.is_empty();
        let mut miner = false;
        let mut classes = Vec::new();
        let mut unclassified = 0u64;
        for dump in &capture.wasm_dumps {
            let fp = span("wasm.fingerprint", || cache.fingerprint(dump, &mut scratch));
            let Some(fp) = fp else {
                unclassified += 1;
                continue;
            };
            let matched = span("wasm.classify", || db.classify(&fp));
            // The CLI's priority: exact signature, then the page's
            // WebSocket backend, then instruction-mix similarity.
            let class = match matched {
                Some(m) if m.kind == MatchKind::Exact => Some(m.class),
                other => match ws_family {
                    Some(f) => Some(WasmClass::Miner(f)),
                    None => match other {
                        Some(m) if m.class.is_miner() && has_ws => {
                            Some(WasmClass::Miner(MinerFamily::UnknownWss))
                        }
                        Some(m) => Some(m.class),
                        None if has_ws && fp.features.has_hash_name_hint() => {
                            Some(WasmClass::Miner(MinerFamily::UnknownWss))
                        }
                        None => None,
                    },
                },
            };
            match class {
                Some(c) => {
                    miner |= matches!(c, WasmClass::Miner(_));
                    classes.push(c.label());
                }
                None => unclassified += 1,
            }
        }
        classes.sort();
        classes.dedup();
        let verdict = ChromeVerdict {
            retries: 0,
            analysis: Some(ChromeAnalysis {
                nocoin_hit,
                has_wasm: !capture.wasm_dumps.is_empty(),
                miner,
                classes,
                unclassified,
                dref: (nocoin_hit || miner).then(|| domain_ref(d)),
            }),
        };
        span("core.fold", || chrome_fold(&mut outcome, verdict, clean));
    }
    layers.count("wasm.hits", cache.hits() as f64);
    layers.count("wasm.lookups", (cache.hits() + cache.misses()) as f64);
    outcome
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

/// The CLI's result lines for a zgrab outcome.
pub fn zgrab_lines(zg: &ZgrabScanOutcome) -> Vec<String> {
    let mut lines = vec![format!(
        "zgrab + NoCoin (TLS-only, 256 kB): {} domains flagged, 0 FPs on {} clean samples",
        zg.hit_domains, zg.clean_sample_size
    )];
    lines.extend(
        fetch_stats("zgrab fetches", &zg.fetch)
            .lines()
            .map(String::from),
    );
    lines
}

/// The CLI's result lines for a Chrome outcome: fetch accounting, the
/// findings table and the top classes.
pub fn chrome_lines(ch: &ChromeScanOutcome) -> Vec<String> {
    let mut lines: Vec<String> = fetch_stats("chrome fetches", &ch.fetch)
        .lines()
        .map(String::from)
        .collect();
    let rows = vec![
        Comparison::new(
            "NoCoin hits (post-exec HTML)",
            0.0,
            ch.nocoin_domains as f64,
        ),
        Comparison::new("sites with Wasm", 0.0, ch.wasm_domains as f64),
        Comparison::new("miner-Wasm sites", 0.0, ch.miner_wasm_domains as f64),
        Comparison::new("  blocked by NoCoin", 0.0, ch.blocked_by_nocoin as f64),
        Comparison::new("  missed by NoCoin", 0.0, ch.missed_by_nocoin as f64),
    ];
    lines.extend(crate::oracle::result_lines(&comparison_table(
        "Chrome scan",
        &rows,
    )));
    lines.push(format!(
        "top classes: {:?}",
        ch.class_counts.iter().take(5).collect::<Vec<_>>()
    ));
    lines
}
