//! Page synthesis: one consistent site per domain, viewed two ways.
//!
//! The same domain must look consistent to the zgrab pipeline (static
//! HTML, TLS-only, first 256 kB) and to the Chrome pipeline (full page
//! execution). [`synthesize_page`] builds the executable page;
//! [`zgrab_fetch`] is the static view derived from the same HTML.

use crate::deploy::{ArtifactKind, Hosting};
use crate::universe::Domain;
use minedig_browser::page::{Page, ScriptBehavior, ScriptEffect, ScriptRef};
use minedig_primitives::{DetRng, Hash32};
use minedig_wasm::corpus::{default_profiles, generate_module};
use minedig_wasm::sigdb::{MinerFamily, WasmClass};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::OnceLock;

/// zgrab's page-size cutoff: "we download the first 256 kB".
pub const ZGRAB_CUT: usize = 256 * 1024;

/// Seed namespace for the Wasm corpus embedded in pages; fixed so that
/// the signature database built from the corpus matches what pages serve.
pub const CORPUS_SEED: u64 = 0x1660;

/// Cache of generated Wasm binaries, keyed by `(class, version)`.
type WasmCache = Mutex<HashMap<(WasmClass, u32), Vec<u8>>>;

fn wasm_cache() -> &'static WasmCache {
    static CACHE: OnceLock<WasmCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns (and caches) the Wasm binary for a corpus class/version.
pub fn wasm_bytes(class: WasmClass, version: u32) -> Vec<u8> {
    if let Some(bytes) = wasm_cache().lock().get(&(class, version)) {
        return bytes.clone();
    }
    let profiles = default_profiles();
    let profile = profiles
        .iter()
        .find(|p| p.class == class)
        .expect("class has a profile");
    let bytes = generate_module(profile, version % profile.versions, CORPUS_SEED).encode();
    wasm_cache().lock().insert((class, version), bytes.clone());
    bytes
}

/// Service-hosted script URL (if the family offers one) and the WebSocket
/// backend host pattern for a miner family.
pub fn family_assets(family: MinerFamily, token_id: u64) -> (Option<String>, String) {
    match family {
        MinerFamily::Coinhive => (
            Some("https://coinhive.com/lib/coinhive.min.js".to_string()),
            format!("wss://ws{:03}.coinhive.com/proxy", 1 + token_id % 32),
        ),
        MinerFamily::Cryptoloot => (
            Some("https://crypto-loot.com/lib/miner.min.js".to_string()),
            "wss://wss.crypto-loot.com/proxy".to_string(),
        ),
        MinerFamily::Skencituer => (None, "wss://skencituer.com/sock".to_string()),
        MinerFamily::UnknownWss => (
            None,
            format!(
                "wss://{}.xyz/ws",
                &Hash32::keccak(&token_id.to_le_bytes()).to_hex()[..10]
            ),
        ),
        MinerFamily::Notgiven688 => (None, "wss://webminepool.com/ws".to_string()),
        MinerFamily::WebStatiBid => (None, "wss://web.stati.bid/ws".to_string()),
        MinerFamily::FreecontentDate => (None, "wss://freecontent.date/ws".to_string()),
        MinerFamily::JsMinerLegacy => (
            Some("https://bitp.it/lib/jsminer.js".to_string()),
            "wss://bitp.it/ws".to_string(),
        ),
        MinerFamily::OtherMiner => (None, "wss://pool-backend.pw/ws".to_string()),
    }
}

/// Reverse mapping: which miner family operates a WebSocket backend host.
/// This is the paper's classification aid ("categorized them, e.g.,
/// through their Websocket communication backend"). Unknown hosts return
/// `None` — those miners end up in the paper's "UnknownWSS" class.
pub fn family_for_ws_url(url: &str) -> Option<MinerFamily> {
    const KNOWN: [(&str, MinerFamily); 8] = [
        ("coinhive.com", MinerFamily::Coinhive),
        ("crypto-loot.com", MinerFamily::Cryptoloot),
        ("skencituer.com", MinerFamily::Skencituer),
        ("webminepool.com", MinerFamily::Notgiven688),
        ("web.stati.bid", MinerFamily::WebStatiBid),
        ("freecontent.date", MinerFamily::FreecontentDate),
        ("bitp.it", MinerFamily::JsMinerLegacy),
        ("pool-backend.pw", MinerFamily::OtherMiner),
    ];
    KNOWN
        .iter()
        .find(|(host, _)| url.contains(host))
        .map(|(_, f)| *f)
}

/// 32-char site key string for a token id.
pub fn site_key(token_id: u64) -> String {
    Hash32::keccak(&token_id.to_le_bytes()).to_hex()[..32].to_string()
}

/// The filler vocabulary.
const WORDS: &[&str] = &[
    "community",
    "service",
    "update",
    "release",
    "support",
    "project",
    "archive",
    "news",
    "contact",
    "download",
    "stream",
    "media",
    "forum",
    "article",
    "gallery",
    "events",
];

/// Words per filler paragraph.
const PARAGRAPH_WORDS: usize = 12;

/// Draws `N` filler words in order, twelve per paragraph.
fn filler_words<const N: usize>(rng: &mut DetRng) -> [&'static str; N] {
    std::array::from_fn(|_| *rng.choose(WORDS))
}

/// Appends `words` as `<p>` paragraphs of twelve words each.
fn push_paragraphs(out: &mut String, words: &[&str]) {
    for paragraph in words.chunks(PARAGRAPH_WORDS) {
        out.push_str("<p>");
        for word in paragraph {
            out.push_str(word);
            out.push(' ');
        }
        out.push_str("</p>\n");
    }
}

/// The number of bytes [`push_paragraphs`] appends for `words`.
fn paragraphs_len(words: &[&str]) -> usize {
    let paragraphs = words.len().div_ceil(PARAGRAPH_WORDS);
    paragraphs * "<p></p>\n".len() + words.iter().map(|w| w.len() + 1).sum::<usize>()
}

/// Where synthesis puts a page's script behaviours: the executable
/// page's table, or nowhere for the zgrab view, which makes the same
/// draws but builds no behaviour (and so copies no Wasm module).
struct Scripts<'a>(Option<&'a mut HashMap<ScriptRef, ScriptBehavior>>);

impl Scripts<'_> {
    /// Adds the behaviour `script` builds, when this view keeps them.
    /// `script` draws nothing: its draws are made before the call, so
    /// both views draw alike.
    fn add(&mut self, script: impl FnOnce() -> (ScriptRef, ScriptBehavior)) {
        if let Some(table) = &mut self.0 {
            let (r, b) = script();
            table.insert(r, b);
        }
    }
}

/// The stream every draw of `domain`'s page comes from.
fn page_rng(domain: &Domain, seed: u64) -> DetRng {
    DetRng::seed(seed).derive(format_args!("web.page.{}", domain.name))
}

/// Synthesizes the executable page for a domain.
pub fn synthesize_page(domain: &Domain, seed: u64) -> Page {
    let mut rng = page_rng(domain, seed);
    let mut page = Page::new(&domain.name, String::new());
    page.html = write_html(domain, &mut rng, Scripts(Some(&mut page.behaviors)));
    // A small fraction of the web never fires a load event.
    page.fires_load_event = !rng.chance(0.02);
    page
}

/// Writes a domain's HTML, handing its script behaviours to `scripts`.
///
/// The HTML is written front to back into one buffer sized up front.
/// The draws keep their own order (opening paragraphs, behaviours,
/// beyond-cut padding, closing paragraphs), so the filler's words are
/// drawn into arrays and written where the page puts them.
fn write_html(domain: &Domain, rng: &mut DetRng, mut scripts: Scripts<'_>) -> String {
    let inline_count = 0usize;

    // Generic site furniture. The opening paragraphs are drawn before
    // the head's other scripts but written after them.
    let opening: [&str; 4 * PARAGRAPH_WORDS] = filler_words(rng);

    // Occasional benign dynamic behaviour so DOM-quiet logic is exercised
    // on clean pages too.
    let app_js = rng.chance(0.3);
    if app_js {
        let times = 1 + rng.gen_range(3) as u32;
        scripts.add(|| {
            (
                ScriptRef::Src("/js/app.js".into()),
                ScriptBehavior {
                    delay_ms: 40,
                    effects: vec![ScriptEffect::MutateDom {
                        times,
                        interval_ms: 300,
                    }],
                },
            )
        });
    }

    let mut artifact_markup = String::new();
    if let Some(kind) = domain.artifact {
        match kind {
            ArtifactKind::ActiveMiner { family, hosting } => {
                let (hosted_url, ws_url) = family_assets(family, domain.token_id);
                // jsMiner predates Wasm: it mines in plain JS, so it opens
                // the pool socket but never compiles a module.
                let compiles = family != MinerFamily::JsMinerLegacy;
                if compiles {
                    // This draw set the interval of the miner's submit
                    // frames, which no result reads. It stays so that every
                    // later draw, and so every page, is unchanged.
                    rng.gen_range(600);
                }
                let start = move || {
                    let mut effects = Vec::with_capacity(2);
                    if compiles {
                        effects.push(ScriptEffect::InstantiateWasm {
                            wasm: wasm_bytes(WasmClass::Miner(family), domain.wasm_version),
                        });
                    }
                    effects.push(ScriptEffect::OpenWebSocket { url: ws_url });
                    effects
                };
                match hosting {
                    Hosting::Hosted => {
                        let url = hosted_url
                            .unwrap_or_else(|| format!("https://{}/js/miner.js", domain.name));
                        artifact_markup.push_str(&format!(
                            "<script src=\"{url}\"></script>\n<script>var miner=new Miner.Anonymous('{}');miner.start();</script>\n",
                            site_key(domain.token_id)
                        ));
                        let delay_ms = 30 + rng.gen_range(120);
                        scripts.add(|| {
                            let behavior = ScriptBehavior {
                                delay_ms,
                                effects: start(),
                            };
                            (ScriptRef::Src(url), behavior)
                        });
                    }
                    Hosting::SelfHosted => {
                        let url = format!(
                            "https://{}/assets/{}.js",
                            domain.name,
                            &Hash32::keccak(domain.name.as_bytes()).to_hex()[..12]
                        );
                        artifact_markup.push_str(&format!("<script src=\"{url}\"></script>\n"));
                        let delay_ms = 30 + rng.gen_range(120);
                        scripts.add(|| {
                            let behavior = ScriptBehavior {
                                delay_ms,
                                effects: start(),
                            };
                            (ScriptRef::Src(url), behavior)
                        });
                    }
                    Hosting::Injected => {
                        let cdn = rng.gen_range(1000);
                        let url = || {
                            format!(
                                "https://cdn-{cdn}.net/pkg/{}.js",
                                &Hash32::keccak(domain.name.as_bytes()).to_hex()[..10]
                            )
                        };
                        artifact_markup
                            .push_str("<script>(function(){/* perf bootstrap */})();</script>\n");
                        let delay_ms = 20 + rng.gen_range(100);
                        scripts.add(|| {
                            (
                                ScriptRef::Inline(inline_count),
                                ScriptBehavior {
                                    delay_ms,
                                    effects: vec![ScriptEffect::InjectScript { src: url() }],
                                },
                            )
                        });
                        scripts.add(|| {
                            let behavior = ScriptBehavior {
                                delay_ms: 10,
                                effects: start(),
                            };
                            (ScriptRef::Src(url()), behavior)
                        });
                    }
                }
            }
            ArtifactKind::ConsentMiner => {
                // Authedmine: listed script, but mining starts only after
                // an opt-in dialog a crawler never clicks, so the page
                // shows the dialog and never loads the miner.
                let url = "https://authedmine.com/lib/authedmine.min.js";
                artifact_markup.push_str(&format!("<script src=\"{url}\"></script>\n"));
                let delay_ms = 30 + rng.gen_range(120);
                scripts.add(|| {
                    let behavior = ScriptBehavior {
                        delay_ms,
                        effects: vec![ScriptEffect::ConsentGated],
                    };
                    (ScriptRef::Src(url.to_string()), behavior)
                });
            }
            ArtifactKind::DeadReference { label } => {
                let url = match label {
                    minedig_nocoin::list::ServiceLabel::Coinhive => {
                        "https://coinhive.com/lib/coinhive.min.js"
                    }
                    minedig_nocoin::list::ServiceLabel::Cryptoloot => {
                        "https://crypto-loot.com/lib/miner.min.js"
                    }
                    minedig_nocoin::list::ServiceLabel::WpMonero => {
                        "/wp-content/plugins/wp-monero-miner-pro/js/worker.js"
                    }
                    _ => "https://coin-have.com/c.js",
                };
                artifact_markup.push_str(&format!("<script src=\"{url}\"></script>\n"));
                // No behaviour: the reference is dead.
            }
            ArtifactKind::AdNetworkFp => {
                let url = "https://server.cpmstar.com/cached/view.js";
                artifact_markup.push_str(&format!("<script src=\"{url}\"></script>\n"));
                scripts.add(|| {
                    let behavior = ScriptBehavior {
                        delay_ms: 60,
                        effects: vec![ScriptEffect::MutateDom {
                            times: 2,
                            interval_ms: 400,
                        }],
                    };
                    (ScriptRef::Src(url.to_string()), behavior)
                });
            }
            ArtifactKind::BenignWasm { kind } => {
                let url = format!("https://{}/wasm-loader.js", domain.name);
                artifact_markup.push_str(&format!("<script src=\"{url}\"></script>\n"));
                scripts.add(|| {
                    let behavior = ScriptBehavior {
                        delay_ms: 50,
                        effects: vec![ScriptEffect::InstantiateWasm {
                            wasm: wasm_bytes(WasmClass::Benign(kind), domain.wasm_version),
                        }],
                    };
                    (ScriptRef::Src(url), behavior)
                });
            }
        }
    }

    // Optionally hide the artifact markup beyond the 256 kB zgrab cut,
    // behind a block of 40 paragraphs repeated until it passes the cut.
    let hidden = domain.beyond_cut && !artifact_markup.is_empty();
    let (padding, repeats) = if hidden {
        let words: [&str; 40 * PARAGRAPH_WORDS] = filler_words(rng);
        let mut padding = String::with_capacity(paragraphs_len(&words));
        push_paragraphs(&mut padding, &words);
        let repeats = ZGRAB_CUT / padding.len() + 1;
        (padding, repeats)
    } else {
        (String::new(), 0)
    };
    let (head_markup, body_markup) = if hidden {
        ("", artifact_markup.as_str())
    } else {
        (artifact_markup.as_str(), "")
    };
    let closing: [&str; 3 * PARAGRAPH_WORDS] = filler_words(rng);

    let head = [
        "<html><head>\n<title>",
        &domain.name,
        "</title>\n<script src=\"/js/jquery.min.js\"></script>\n",
        if app_js {
            "<script src=\"/js/app.js\"></script>\n"
        } else {
            ""
        },
        head_markup,
        "</head><body>\n",
    ];
    const END: &str = "</body></html>";
    let len = head.iter().map(|s| s.len()).sum::<usize>()
        + paragraphs_len(&opening)
        + repeats * padding.len()
        + body_markup.len()
        + paragraphs_len(&closing)
        + END.len();
    let mut html = String::with_capacity(len);
    html.extend(head);
    push_paragraphs(&mut html, &opening);
    for _ in 0..repeats {
        html.push_str(&padding);
    }
    html.push_str(body_markup);
    push_paragraphs(&mut html, &closing);
    html.push_str(END);
    html
}

/// The zgrab view: TLS-only, first 256 kB of the same HTML.
pub fn zgrab_fetch(domain: &Domain, seed: u64) -> Option<String> {
    if !domain.tls {
        return None;
    }
    let mut html = write_html(domain, &mut page_rng(domain, seed), Scripts(None));
    if html.len() > ZGRAB_CUT {
        let mut cut = ZGRAB_CUT;
        while cut > 0 && !html.is_char_boundary(cut) {
            cut -= 1;
        }
        html.truncate(cut);
    }
    Some(html)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Population;
    use crate::zone::Zone;
    use minedig_browser::loader::{load_page, LoadPolicy};
    use minedig_nocoin::NoCoinEngine;
    use minedig_wasm::sigdb::BenignKind;

    fn domain_with(kind: ArtifactKind, tls: bool, beyond_cut: bool) -> Domain {
        Domain {
            name: "testsite.org".to_string(),
            zone: Zone::Org,
            tls,
            artifact: Some(kind),
            beyond_cut,
            wasm_version: 0,
            token_id: 7,
            latent_categories: vec![],
        }
    }

    #[test]
    fn hosted_miner_is_visible_both_ways() {
        let d = domain_with(
            ArtifactKind::ActiveMiner {
                family: MinerFamily::Coinhive,
                hosting: Hosting::Hosted,
            },
            true,
            false,
        );
        let html = zgrab_fetch(&d, 1).unwrap();
        assert!(html.contains("coinhive.com/lib/coinhive.min.js"));
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(cap.has_wasm());
        assert!(cap.websocket_urls()[0].contains("coinhive.com"));
    }

    #[test]
    fn selfhosted_miner_runs_but_evades_list() {
        let d = domain_with(
            ArtifactKind::ActiveMiner {
                family: MinerFamily::Coinhive,
                hosting: Hosting::SelfHosted,
            },
            true,
            false,
        );
        let html = zgrab_fetch(&d, 1).unwrap();
        assert!(!html.contains("coinhive.com/lib"));
        assert!(NoCoinEngine::new().scan_page(&d.name, &html).is_empty());
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(cap.has_wasm(), "self-hosted miner must still mine");
    }

    #[test]
    fn injected_miner_invisible_statically() {
        let d = domain_with(
            ArtifactKind::ActiveMiner {
                family: MinerFamily::Cryptoloot,
                hosting: Hosting::Injected,
            },
            true,
            false,
        );
        let html = zgrab_fetch(&d, 1).unwrap();
        assert!(!html.contains(".js\"></script>\n<script>var miner"));
        assert!(NoCoinEngine::new().scan_page(&d.name, &html).is_empty());
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(cap.has_wasm(), "injected miner must run in the browser");
    }

    #[test]
    fn consent_miner_listed_but_no_wasm() {
        let d = domain_with(ArtifactKind::ConsentMiner, true, false);
        let html = zgrab_fetch(&d, 1).unwrap();
        assert!(!NoCoinEngine::new().scan_page(&d.name, &html).is_empty());
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(!cap.has_wasm(), "authedmine must not mine without consent");
    }

    #[test]
    fn non_tls_site_invisible_to_zgrab() {
        let d = domain_with(
            ArtifactKind::ActiveMiner {
                family: MinerFamily::Coinhive,
                hosting: Hosting::Hosted,
            },
            false,
            false,
        );
        assert!(zgrab_fetch(&d, 1).is_none());
        // Chrome still sees it (http fallback).
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(cap.has_wasm());
    }

    #[test]
    fn beyond_cut_script_hidden_from_zgrab_only() {
        let d = domain_with(ArtifactKind::ConsentMiner, true, true);
        let html = zgrab_fetch(&d, 1).unwrap();
        assert_eq!(html.len(), ZGRAB_CUT);
        assert!(NoCoinEngine::new().scan_page(&d.name, &html).is_empty());
        // The full page still contains it.
        let page = synthesize_page(&d, 1);
        assert!(page.html.contains("authedmine"));
    }

    #[test]
    fn benign_wasm_compiles_but_no_websocket() {
        let d = domain_with(
            ArtifactKind::BenignWasm {
                kind: BenignKind::Codec,
            },
            true,
            false,
        );
        let cap = load_page(&synthesize_page(&d, 1), &LoadPolicy::default());
        assert!(cap.has_wasm());
        assert!(cap.websocket_urls().is_empty());
    }

    #[test]
    fn clean_pages_trigger_nothing() {
        let pop = Population::generate(Zone::Org, 42, 30);
        let engine = NoCoinEngine::new();
        for d in &pop.clean_sample {
            if let Some(html) = zgrab_fetch(d, 1) {
                assert!(engine.scan_page(&d.name, &html).is_empty(), "{}", d.name);
            }
            let cap = load_page(&synthesize_page(d, 1), &LoadPolicy::default());
            assert!(!cap.has_wasm(), "{}", d.name);
        }
    }

    #[test]
    fn wasm_bytes_are_cached_and_stable() {
        let a = wasm_bytes(WasmClass::Miner(MinerFamily::Coinhive), 3);
        let b = wasm_bytes(WasmClass::Miner(MinerFamily::Coinhive), 3);
        assert_eq!(a, b);
        let c = wasm_bytes(WasmClass::Miner(MinerFamily::Coinhive), 4);
        assert_ne!(a, c);
    }

    #[test]
    fn page_synthesis_is_deterministic() {
        let d = domain_with(ArtifactKind::AdNetworkFp, true, false);
        let a = synthesize_page(&d, 1);
        let b = synthesize_page(&d, 1);
        assert_eq!(a.html, b.html);
        assert_eq!(a.behaviors.len(), b.behaviors.len());
    }

    /// The buffer is sized exactly up front: writing the page neither
    /// grows it nor leaves slack, with or without beyond-cut padding.
    #[test]
    fn pages_fill_their_buffer_exactly() {
        let pop = Population::generate(Zone::Org, 2018, 50);
        let mut beyond_cut = 0;
        for d in pop.artifacts.iter().chain(&pop.clean_sample) {
            let html = synthesize_page(d, 2018).html;
            beyond_cut += usize::from(html.len() > ZGRAB_CUT);
            assert_eq!(html.capacity(), html.len(), "{}", d.name);
        }
        assert!(beyond_cut > 0, "no page passes the cut");
    }

    /// Every page the seed-2018 scans synthesize for Alexa and .org, and
    /// the first 3,000 .com domains (beyond-cut pages among them),
    /// hashed: the HTML, the load event and the behaviours of each
    /// executable page, and each zgrab view. Any change to the markup,
    /// the RNG draw order or the cut fails here.
    #[test]
    fn synthesis_matches_the_golden_digest() {
        let digest = |bytes: &[u8]| Hash32::keccak(bytes).to_hex();
        let mut rows = String::new();
        let mut beyond_cut = 0;
        for (zone, take) in [
            (Zone::Alexa, usize::MAX),
            (Zone::Org, usize::MAX),
            (Zone::Com, 3_000),
        ] {
            let pop = Population::generate(zone, 2018, 500);
            for d in pop.artifacts.iter().chain(&pop.clean_sample).take(take) {
                let page = synthesize_page(d, 2018);
                let mut behaviors: Vec<String> =
                    page.behaviors.iter().map(|b| format!("{b:?}")).collect();
                behaviors.sort_unstable();
                let zgrab = zgrab_fetch(d, 2018).map_or("-".to_string(), |h| digest(h.as_bytes()));
                beyond_cut += usize::from(page.html.len() > ZGRAB_CUT);
                rows.push_str(&format!(
                    "{} {} {} {} {zgrab}\n",
                    d.name,
                    digest(page.html.as_bytes()),
                    page.fires_load_event,
                    digest(behaviors.join("\n").as_bytes()),
                ));
            }
        }
        assert!(beyond_cut > 0, "no page passes the cut");
        assert_eq!(
            digest(rows.as_bytes()),
            "9e03883a8651eeee1f36bf6c2ff06ec2020bcbaf8c32427209865383472d2051"
        );
    }
}
