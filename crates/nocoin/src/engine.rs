//! The scan engine: extract script URLs from a page, resolve them against
//! the page's origin, and match the rule list — §3.1's pipeline.
//!
//! Rules are indexed by keyword, as Adblock Plus's matcher does: each
//! rule's keyword is a token that every URL it matches must contain
//! (see `Rule::keyword`), so a URL is tested only against the rules keyed
//! by one of its tokens plus the few rules without a keyword. A page's
//! URLs are resolved into one reused buffer and lowercased once, so a
//! page allocates only that buffer, the candidate bitset and its hits.

use crate::extract::script_tags;
use crate::filter::is_keyword_byte;
use crate::list::{nocoin_rules, LabeledRule, ServiceLabel};
use std::collections::HashMap;

/// One filter hit on a page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterHit {
    /// The (absolute) script URL that matched.
    pub url: String,
    /// The rule text.
    pub rule: String,
    /// The targeted service.
    pub label: ServiceLabel,
}

/// The NoCoin engine: a rule list ready to apply to pages.
pub struct NoCoinEngine {
    rules: Vec<LabeledRule>,
    /// Keyword → indices of the rules keyed by it, ascending.
    by_keyword: HashMap<Box<[u8]>, Vec<usize>>,
    /// Bitset of the rules without a keyword, which every URL is tested
    /// against; one bit per rule, in list order.
    unkeyed: Vec<u64>,
}

impl Default for NoCoinEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl NoCoinEngine {
    /// Engine with the bundled NoCoin snapshot.
    pub fn new() -> NoCoinEngine {
        Self::with_rules(nocoin_rules())
    }

    /// Engine with a custom rule list (ablations, updated lists).
    pub fn with_rules(rules: Vec<LabeledRule>) -> NoCoinEngine {
        let mut by_keyword: HashMap<Box<[u8]>, Vec<usize>> = HashMap::new();
        let mut unkeyed = vec![0u64; rules.len().div_ceil(64)];
        for (i, lr) in rules.iter().enumerate() {
            match lr.rule.keyword() {
                Some(k) => by_keyword.entry(k.as_bytes().into()).or_default().push(i),
                None => unkeyed[i / 64] |= 1 << (i % 64),
            }
        }
        NoCoinEngine {
            rules,
            by_keyword,
            unkeyed,
        }
    }

    /// Resolves a possibly-relative script URL against a page origin.
    pub fn resolve_url(origin_domain: &str, src: &str) -> String {
        let mut url = String::new();
        resolve_into(&mut url, origin_domain, src);
        url
    }

    /// Scans one page: extracts script tags, matches external script URLs
    /// and also inline bodies (some list entries are plain substrings that
    /// match loader snippets — matching both is what an "apply the list to
    /// the HTML body" pipeline sees). Hits come in page order, and per URL
    /// in rule order.
    pub fn scan_page(&self, domain: &str, html: &str) -> Vec<FilterHit> {
        let mut hits = Vec::new();
        // Reused across the page's URLs: the lowercased absolute URL and
        // the candidate-rule bitset.
        let mut lower = String::new();
        let mut candidates = vec![0u64; self.unkeyed.len()];
        for url in page_urls(html) {
            lower.clear();
            match url {
                PageUrl::Src(src) => resolve_into(&mut lower, domain, src),
                PageUrl::Inline(url) => lower.push_str(url),
            }
            lower.make_ascii_lowercase();
            candidates.copy_from_slice(&self.unkeyed);
            let tokens = lower.as_bytes().split(|&b| !is_keyword_byte(b));
            for token in tokens.filter(|t| !t.is_empty()) {
                if let Some(keyed) = self.by_keyword.get(token) {
                    for &i in keyed {
                        candidates[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            for (word, &bits) in candidates.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let lr = &self.rules[word * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    if lr.rule.matches_lowercase(&lower) {
                        hits.push(FilterHit {
                            url: url.absolute(domain),
                            rule: lr.rule.raw.clone(),
                            label: lr.label,
                        });
                    }
                }
            }
        }
        hits.dedup_by(|a, b| a.url == b.url && a.rule == b.rule);
        hits
    }

    /// Distinct labels that hit on a page (Figure 2 counts a page once
    /// per script class).
    pub fn page_labels(&self, domain: &str, html: &str) -> Vec<ServiceLabel> {
        let mut labels: Vec<ServiceLabel> = self
            .scan_page(domain, html)
            .iter()
            .map(|h| h.label)
            .collect();
        labels.sort();
        labels.dedup();
        labels
    }
}

/// A script URL as the page holds it.
#[derive(Clone, Copy)]
enum PageUrl<'a> {
    /// A tag's `src`, possibly relative to the page's origin.
    Src(&'a str),
    /// An `http(s)://` string in an inline script body.
    Inline(&'a str),
}

impl PageUrl<'_> {
    /// The absolute URL, in its original case.
    fn absolute(self, domain: &str) -> String {
        match self {
            PageUrl::Src(src) => NoCoinEngine::resolve_url(domain, src),
            PageUrl::Inline(url) => url.to_owned(),
        }
    }
}

/// Every script URL of a page, in page order: each tag's `src`, then the
/// URL-like strings of its inline body.
fn page_urls(html: &str) -> impl Iterator<Item = PageUrl<'_>> {
    script_tags(html).flat_map(|tag| {
        let inline = tag.inline.into_iter().flat_map(extract_url_like);
        tag.src
            .map(PageUrl::Src)
            .into_iter()
            .chain(inline.map(PageUrl::Inline))
    })
}

/// Appends `src` resolved against `origin_domain` to `out`.
fn resolve_into(out: &mut String, origin_domain: &str, src: &str) {
    if src.starts_with("http://") || src.starts_with("https://") {
        out.push_str(src);
    } else if let Some(rest) = src.strip_prefix("//") {
        out.push_str("https://");
        out.push_str(rest);
    } else {
        out.push_str("https://");
        out.push_str(origin_domain);
        out.push('/');
        out.push_str(src.strip_prefix('/').unwrap_or(src));
    }
}

/// Pulls `http(s)://...` substrings out of inline script text: every
/// `https://` one, then every `http://` one.
fn extract_url_like(text: &str) -> impl Iterator<Item = &str> {
    ["https://", "http://"].into_iter().flat_map(move |scheme| {
        let mut from = 0;
        std::iter::from_fn(move || {
            let start = from + text[from..].find(scheme)?;
            let end = text[start..]
                .find(|c: char| c == '"' || c == '\'' || c == ')' || c.is_whitespace())
                .map_or(text.len(), |i| start + i);
            from = end;
            Some(&text[start..end])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> NoCoinEngine {
        NoCoinEngine::new()
    }

    #[test]
    fn detects_hosted_miner_script_tag() {
        let html = r#"<html><head>
            <script src="https://coinhive.com/lib/coinhive.min.js"></script>
            <script>var miner = new CoinHive.Anonymous('SITE_KEY');miner.start();</script>
        </head></html>"#;
        let hits = engine().scan_page("example.com", html);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.label == ServiceLabel::Coinhive));
    }

    #[test]
    fn detects_protocol_relative_and_relative_srcs() {
        let e = engine();
        let html = r#"<script src="//coinhive.com/lib/coinhive.min.js"></script>"#;
        assert!(!e.scan_page("x.org", html).is_empty());
        // Relative path that matches a path-pattern rule.
        let html2 = r#"<script src="/wp-content/plugins/wp-monero-miner-pro/js/w.js"></script>"#;
        let hits = e.scan_page("blog.org", html2);
        assert_eq!(hits[0].label, ServiceLabel::WpMonero);
    }

    #[test]
    fn detects_loader_url_inside_inline_script() {
        let html = r#"<script>
            var s = document.createElement('script');
            s.src = "https://crypto-loot.com/lib/miner.min.js";
            document.head.appendChild(s);
        </script>"#;
        let hits = engine().scan_page("x.org", html);
        assert_eq!(hits[0].label, ServiceLabel::Cryptoloot);
    }

    #[test]
    fn clean_page_has_no_hits() {
        let html = r#"<html><script src="/js/jquery.min.js"></script>
            <script>console.log("hello");</script></html>"#;
        assert!(engine().scan_page("clean.org", html).is_empty());
    }

    #[test]
    fn selfhosted_obfuscated_miner_evades() {
        // The false-negative mechanism behind Table 2.
        let html = r#"<script src="https://static.example-cdn.net/vendor-bundle.js"></script>"#;
        assert!(engine().scan_page("sneaky.org", html).is_empty());
    }

    #[test]
    fn cpmstar_page_is_a_false_positive() {
        let html = r#"<script src="https://server.cpmstar.com/cached/view.js"></script>"#;
        let labels = engine().page_labels("gamesite.org", html);
        assert_eq!(labels, vec![ServiceLabel::Cpmstar]);
    }

    #[test]
    fn page_labels_dedupe() {
        let html = r#"
            <script src="https://coinhive.com/lib/coinhive.min.js"></script>
            <script src="https://coinhive.com/lib/worker.js"></script>
        "#;
        let labels = engine().page_labels("x.org", html);
        assert_eq!(labels, vec![ServiceLabel::Coinhive]);
    }

    #[test]
    fn five_bundled_rules_have_no_keyword() {
        let unkeyed: Vec<String> = nocoin_rules()
            .into_iter()
            .filter(|lr| lr.rule.keyword().is_none())
            .map(|lr| lr.rule.raw)
            .collect();
        assert_eq!(
            unkeyed,
            [
                "crypta.js",
                "jsminer.js",
                "deepminer.js",
                "deepMiner.js",
                "perfekt.js"
            ]
        );
        let engine = engine();
        let always: u32 = engine.unkeyed.iter().map(|w| w.count_ones()).sum();
        assert_eq!(always, 5);
    }

    #[test]
    fn labels_follow_the_deduplicated_hits() {
        // Two rules with one text but different labels: `scan_page` keeps
        // only the first hit of a URL per rule text, and the labels follow.
        let rules = [ServiceLabel::Coinhive, ServiceLabel::Cpmstar]
            .map(|label| LabeledRule {
                rule: crate::Rule::parse("coin").unwrap(),
                label,
            })
            .to_vec();
        let engine = NoCoinEngine::with_rules(rules);
        let html = r#"<script src="https://x.org/coin.js"></script>"#;
        assert_eq!(engine.scan_page("x.org", html).len(), 1);
        assert_eq!(
            engine.page_labels("x.org", html),
            vec![ServiceLabel::Coinhive]
        );
    }

    #[test]
    fn resolve_url_cases() {
        assert_eq!(
            NoCoinEngine::resolve_url("a.com", "https://b.com/x.js"),
            "https://b.com/x.js"
        );
        assert_eq!(
            NoCoinEngine::resolve_url("a.com", "//b.com/x.js"),
            "https://b.com/x.js"
        );
        assert_eq!(
            NoCoinEngine::resolve_url("a.com", "/x.js"),
            "https://a.com/x.js"
        );
        assert_eq!(
            NoCoinEngine::resolve_url("a.com", "x.js"),
            "https://a.com/x.js"
        );
    }

    #[test]
    fn url_extraction_from_inline_text() {
        let urls: Vec<&str> = extract_url_like(
            "load('https://a.com/m.js'); fetch(\"http://b.org/x\") // https://c.io/end",
        )
        .collect();
        assert_eq!(
            urls,
            vec!["https://a.com/m.js", "https://c.io/end", "http://b.org/x"]
        );
    }
}
