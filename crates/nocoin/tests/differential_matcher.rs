//! Differential testing of the filter engine against independently
//! written naive references.
//!
//! * Single rules: the production matcher against an NFA that simulates
//!   the token list over URL positions (`reference_matches`).
//! * Whole pages: the keyword-indexed [`NoCoinEngine`] against a linear
//!   engine that runs every extracted URL through every rule, in list
//!   order, via the same NFA — on generated rule lists and pages.
//! * Extraction: the `memchr`-driven tag scanner against the original
//!   windowed extractor, kept here as `reference_extract`.

use minedig_nocoin::extract::{extract_script_tags, ScriptTag};
use minedig_nocoin::list::{LabeledRule, ServiceLabel};
use minedig_nocoin::{FilterHit, NoCoinEngine, Rule};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::time::{Duration, Instant};

/// Reference matcher: simulate the token list as an NFA over URL
/// positions (no recursion, no early exits — deliberately different code
/// shape from the production matcher).
fn reference_matches(pattern: &str, url: &str) -> Option<bool> {
    // Re-parse the raw pattern the same way Rule::parse does, but into a
    // local token list.
    #[derive(Clone, PartialEq)]
    enum Tok {
        Lit(Vec<u8>),
        Star,
        Sep,
    }
    let mut pat = pattern;
    let mut host_anchor = false;
    let mut start_anchor = false;
    let mut end_anchor = false;
    if let Some(rest) = pat.strip_prefix("||") {
        host_anchor = true;
        pat = rest;
    } else if let Some(rest) = pat.strip_prefix('|') {
        start_anchor = true;
        pat = rest;
    }
    if let Some(rest) = pat.strip_suffix('|') {
        end_anchor = true;
        pat = rest;
    }
    let mut toks: Vec<Tok> = Vec::new();
    let mut lit = Vec::new();
    for c in pat.to_ascii_lowercase().bytes() {
        match c {
            b'*' => {
                if !lit.is_empty() {
                    toks.push(Tok::Lit(std::mem::take(&mut lit)));
                }
                if toks.last() != Some(&Tok::Star) {
                    toks.push(Tok::Star);
                }
            }
            b'^' => {
                if !lit.is_empty() {
                    toks.push(Tok::Lit(std::mem::take(&mut lit)));
                }
                toks.push(Tok::Sep);
            }
            c => lit.push(c),
        }
    }
    if !lit.is_empty() {
        toks.push(Tok::Lit(lit));
    }
    if toks.is_empty() {
        return None; // Rule::parse also rejects empty patterns
    }

    let url = url.to_ascii_lowercase();
    let bytes = url.as_bytes();
    let is_sep = |c: u8| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'%'));

    // Match from a fixed start position via breadth-first state sets.
    let match_from = |start: usize| -> bool {
        // State: (token index, url position). Seed with (0, start).
        let mut states = vec![(0usize, start)];
        let mut seen = std::collections::HashSet::new();
        while let Some((ti, pos)) = states.pop() {
            if !seen.insert((ti, pos)) {
                continue;
            }
            if ti == toks.len() {
                if !end_anchor || pos == bytes.len() {
                    return true;
                }
                continue;
            }
            match &toks[ti] {
                Tok::Lit(l) => {
                    if bytes.len() >= pos + l.len() && bytes[pos..pos + l.len()] == l[..] {
                        states.push((ti + 1, pos + l.len()));
                    }
                }
                Tok::Sep => {
                    if pos == bytes.len() {
                        if ti + 1 == toks.len() {
                            return true;
                        }
                    } else if is_sep(bytes[pos]) {
                        states.push((ti + 1, pos + 1));
                    }
                }
                Tok::Star => {
                    for next in pos..=bytes.len() {
                        states.push((ti + 1, next));
                    }
                }
            }
        }
        false
    };

    let result = if host_anchor {
        let host_start = url.find("://").map(|i| i + 3).unwrap_or(0);
        let host_end = url[host_start..]
            .find(['/', '?', ':'])
            .map(|i| host_start + i)
            .unwrap_or(url.len());
        let mut starts = vec![host_start];
        for (i, &b) in bytes[host_start..host_end].iter().enumerate() {
            if b == b'.' {
                starts.push(host_start + i + 1);
            }
        }
        starts.into_iter().any(match_from)
    } else if start_anchor {
        match_from(0)
    } else {
        (0..=bytes.len()).any(match_from)
    };
    Some(result)
}

/// A uniform pick from `items`.
fn pick(items: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..items.len()).prop_map(move |i| items[i].to_string())
}

/// NoCoin-like pattern fragments: hosts, paths, digits, `%`, upper case,
/// `*`-heavy runs (which once cost exponential time), and non-ASCII
/// letters whose Unicode lower case differs from their ASCII one (`É`,
/// and the Kelvin sign `\u{212a}`, which lowers to an ASCII `k`).
const PATTERN_FRAGMENTS: &[&str] = &[
    "coinhive", "coin", "hive", "miner", "Miner", ".com", ".js", "/lib/", "-", "a", "aa", "xy",
    "9", "%2f", "*", "*", "*a*", "a*a", "*a*a*", "^", "^*", "*^", "CAFÉ", "café", "\u{212a}",
    "oin", "koin", "\u{65e5}",
];

fn arb_pattern() -> impl Strategy<Value = String> {
    (
        pick(&["", "|", "||"]),
        prop::collection::vec(pick(PATTERN_FRAGMENTS), 1..6),
        pick(&["", "|"]),
    )
        .prop_map(|(prefix, frags, suffix)| format!("{prefix}{}{suffix}", frags.concat()))
}

/// Hosts and paths the URL and page generators share, so generated rules
/// hit, near-miss and miss them.
const HOSTS: &[&str] = &[
    "coinhive.com",
    "www.coinhive.com",
    "notcoinhive.com",
    "coin-hive.com",
    "example.org",
    "miner.example.org",
    "COINHIVE.COM",
    "x9.io:8080",
    "aaaaaaaa.aa",
    "caf\u{e9}.example",
    "CAF\u{c9}.example",
];
const PATHS: &[&str] = &[
    "/lib/coinhive.min.js",
    "/a/xy.js",
    "/",
    "",
    "/coinminer/a",
    "/lib/miner.js?v=2",
    "/%2fcoin%2f9",
    "/Miner.JS",
    "/aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "/a.a.a.a.a.a.a.a.a.a",
    "/\u{65e5}\u{672c}/coin",
    "/\u{212a}oin.js",
    "/koin.js",
];

fn arb_url() -> impl Strategy<Value = String> {
    (pick(&["https", "http"]), pick(HOSTS), pick(PATHS))
        .prop_map(|(scheme, host, path)| format!("{scheme}://{host}{path}"))
}

/// URLs made of one repeated character, where a backtracking matcher
/// would try every split point.
fn arb_repeated_url() -> impl Strategy<Value = String> {
    (pick(&["a", "b", ".", "/"]), 0usize..48)
        .prop_map(|(c, n)| format!("https://x/{}", c.repeat(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn production_matcher_agrees_with_reference(pattern in arb_pattern(), url in arb_url()) {
        agrees_with_reference(&pattern, &url)?;
    }

    #[test]
    fn matcher_agrees_with_reference_on_repeated_characters(
        pattern in arb_pattern(),
        url in arb_repeated_url(),
    ) {
        agrees_with_reference(&pattern, &url)?;
    }
}

fn agrees_with_reference(pattern: &str, url: &str) -> Result<(), TestCaseError> {
    let production = Rule::parse(pattern).map(|r| r.matches(url));
    let reference = reference_matches(pattern, url);
    match (production, reference) {
        (Some(p), Some(r)) => prop_assert_eq!(p, r, "pattern {:?} url {:?}", pattern, url),
        (None, None) => {}
        // Rule::parse may reject inputs the reference accepts (e.g.
        // option suffixes); only flag disagreement when both parse.
        (None, Some(_)) => {}
        (Some(_), None) => prop_assert!(false, "reference rejected {:?}", pattern),
    }
    Ok(())
}

#[test]
fn many_wildcards_on_a_near_miss_return_promptly() {
    // Each `*` once tried every end position, so k wildcards cost O(n^k):
    // this pair would not finish.
    let rule = Rule::parse("*a*a*a*a*a*a*ab").unwrap();
    let url = "a".repeat(4096);
    let started = Instant::now();
    assert!(!rule.matches(&url));
    assert!(rule.matches(&format!("{url}b")));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{:?}",
        started.elapsed()
    );
}

// ---------------------------------------------------------------------
// Whole-engine differential.
// ---------------------------------------------------------------------

/// A generated rule: the list line, and its pattern without options
/// (what the reference matcher reads).
#[derive(Clone, Debug)]
struct GenRule {
    line: String,
    pattern: String,
    label: ServiceLabel,
}

/// Fragments for engine rules. Keyword runs touch `*`, `^`, anchors and
/// open pattern ends, so a keyword that ignores any of them is caught;
/// the non-ASCII ones catch a rule lowered other than its URLs.
const RULE_FRAGMENTS: &[&str] = &[
    "coinhive", "coin", "hive", "miner", "deep", ".com", ".js", ".min", "/lib/", "-", "COIN",
    "Hive", "9", "x9", "%2f", "a", "aa", "*", "*", "^", "*a*", "*coin", "miner*", "CAFÉ",
    "\u{212a}", "oin", "koin",
];

const LABELS: [ServiceLabel; 7] = [
    ServiceLabel::Coinhive,
    ServiceLabel::Authedmine,
    ServiceLabel::WpMonero,
    ServiceLabel::Cryptoloot,
    ServiceLabel::Cpmstar,
    ServiceLabel::JsMiner,
    ServiceLabel::Other,
];

fn arb_rule() -> impl Strategy<Value = GenRule> {
    (
        pick(&["", "", "|", "||", "||"]),
        prop::collection::vec(pick(RULE_FRAGMENTS), 1..5),
        pick(&["", "", "^", "|"]),
        pick(&["", "", "$script", "$script,third-party"]),
        0..LABELS.len(),
    )
        .prop_map(|(prefix, frags, suffix, options, label)| {
            let pattern = format!("{prefix}{}{suffix}", frags.concat());
            GenRule {
                line: format!("{pattern}{options}"),
                pattern,
                label: LABELS[label],
            }
        })
}

fn arb_rules() -> impl Strategy<Value = Vec<GenRule>> {
    prop::collection::vec(arb_rule(), 1..12)
}

/// A script tag with a `src` in each form a page uses: absolute, `//`,
/// `/`-relative and bare.
fn arb_src_tag() -> impl Strategy<Value = String> {
    let src = (
        pick(&["https://", "http://", "//", "/", ""]),
        pick(HOSTS),
        pick(PATHS),
    )
        .prop_map(|(form, host, path)| match form.as_str() {
            "/" | "" => format!("{form}{}", path.trim_start_matches('/')),
            _ => format!("{form}{host}{path}"),
        });
    (
        pick(&["script", "SCRIPT", "Script"]),
        pick(&["src=\"", "SRC='", "src=", "data-src=\"no.js\" src=\""]),
        src,
        pick(&["\"", "'", " ", "\" async"]),
        pick(&[
            "",
            "",
            "var x = 1;",
            "load('https://coinhive.com/lib/x.js')",
        ]),
        pick(&["</script>", "</SCRIPT >", "</Script>"]),
    )
        .prop_map(|(name, attr, src, close_attr, body, close)| {
            format!("<{name} {attr}{src}{close_attr}>{body}{close}")
        })
}

/// One piece of a generated page.
fn arb_part() -> impl Strategy<Value = String> {
    let inline = (pick(&["https://", "http://", "HTTPS://"]), pick(HOSTS), pick(PATHS))
        .prop_map(|(scheme, host, path)| {
            format!("<script>\n var s = \"{scheme}{host}{path}\"; f('https://{host}'); g(http://{host}{path})\t</script>")
        });
    let noise = pick(&[
        "<p>community news caf\u{e9} \u{65e5}\u{672c}\u{8a9e} \u{1f642}</p>",
        "<scripture>",
        "<scriptx src=\"https://coinhive.com/\">",
        "< script>",
        "<",
        ">",
        "<script/>",
        "<script src=\"/lib/coinhive.min.js\"/>",
        "\n",
    ]);
    prop_oneof![arb_src_tag(), arb_src_tag(), inline, noise]
}

/// A page, possibly cut short inside a tag or a body (the crawler's
/// truncation).
fn arb_page() -> impl Strategy<Value = String> {
    (prop::collection::vec(arb_part(), 0..8), 0.0f64..=1.5).prop_map(|(parts, cut)| {
        let mut html = format!("<html><head>{}</head></html>", parts.concat());
        if cut < 1.0 {
            let mut at = (html.len() as f64 * cut) as usize;
            while !html.is_char_boundary(at) {
                at -= 1;
            }
            html.truncate(at);
        }
        html
    })
}

/// The rules that parse, paired with the engine input they become.
fn parsed(rules: &[GenRule]) -> (Vec<GenRule>, Vec<LabeledRule>) {
    rules
        .iter()
        .filter_map(|g| {
            let rule = Rule::parse(&g.line)?;
            Some((
                g.clone(),
                LabeledRule {
                    rule,
                    label: g.label,
                },
            ))
        })
        .unzip()
}

/// The linear engine: every URL the reference extractor finds, through
/// every rule in list order, via the NFA.
fn linear_scan(rules: &[GenRule], domain: &str, html: &str) -> Vec<FilterHit> {
    let mut hits = Vec::new();
    let test = |url: &str, hits: &mut Vec<FilterHit>| {
        for r in rules {
            if reference_matches(&r.pattern, url) == Some(true) {
                hits.push(FilterHit {
                    url: url.to_string(),
                    rule: r.line.clone(),
                    label: r.label,
                });
            }
        }
    };
    for tag in reference_extract(html) {
        if let Some(src) = &tag.src {
            test(&reference_resolve(domain, src), &mut hits);
        }
        if let Some(inline) = &tag.inline {
            for url in reference_url_like(inline) {
                test(&url, &mut hits);
            }
        }
    }
    hits.dedup_by(|a, b| a.url == b.url && a.rule == b.rule);
    hits
}

fn linear_labels(hits: &[FilterHit]) -> Vec<ServiceLabel> {
    let mut labels: Vec<ServiceLabel> = hits.iter().map(|h| h.label).collect();
    labels.sort();
    labels.dedup();
    labels
}

fn reference_resolve(origin_domain: &str, src: &str) -> String {
    if src.starts_with("http://") || src.starts_with("https://") {
        src.to_string()
    } else if let Some(rest) = src.strip_prefix("//") {
        format!("https://{rest}")
    } else if let Some(rest) = src.strip_prefix('/') {
        format!("https://{origin_domain}/{rest}")
    } else {
        format!("https://{origin_domain}/{src}")
    }
}

/// Every `https://` substring, then every `http://` one, each up to a
/// quote, `)` or whitespace.
fn reference_url_like(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for scheme in ["https://", "http://"] {
        let mut from = 0;
        while let Some(idx) = text[from..].find(scheme) {
            let start = from + idx;
            let end = text[start..]
                .find(|c: char| c == '"' || c == '\'' || c == ')' || c.is_whitespace())
                .map(|i| start + i)
                .unwrap_or(text.len());
            out.push(text[start..end].to_string());
            from = end;
        }
    }
    out
}

fn engine_agrees_with_linear(
    rules: &[GenRule],
    domain: &str,
    html: &str,
) -> Result<Vec<FilterHit>, TestCaseError> {
    let (rules, labeled) = parsed(rules);
    let engine = NoCoinEngine::with_rules(labeled);
    let expected = linear_scan(&rules, domain, html);
    let hits = engine.scan_page(domain, html);
    prop_assert_eq!(&hits, &expected, "rules {:?}", rules);
    prop_assert_eq!(engine.page_labels(domain, html), linear_labels(&expected));
    Ok(expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn indexed_engine_equals_linear_engine(
        rules in arb_rules(),
        domain in pick(&["coinhive.com", "example.org", "Miner.Example.org"]),
        html in arb_page(),
    ) {
        engine_agrees_with_linear(&rules, &domain, &html)?;
    }

    #[test]
    fn extractor_equals_windowed_reference(html in arb_page()) {
        prop_assert_eq!(extract_script_tags(&html), reference_extract(&html));
    }

    #[test]
    fn extractor_equals_windowed_reference_on_tag_soup(
        parts in prop::collection::vec(pick(&[
            "<script", "<SCRIPT", "<ScRiPt", "<scriptx", " ", "\n", "src", " src=", "SRC = ",
            "data-src=", "\"", "'", ">", "/>", "/", "</script>", "</SCRIPT >", "</scrip", "<",
            "<<script>", "https://a.com/x.js", "x", "caf\u{e9}", "\u{65e5}\u{672c}", "<p>",
        ]), 0..24),
    ) {
        let html = parts.concat();
        prop_assert_eq!(extract_script_tags(&html), reference_extract(&html));
    }
}

#[test]
fn the_bundled_list_equals_the_linear_engine() {
    let mut rng = TestRng::for_test("the_bundled_list_equals_the_linear_engine");
    let bundled: Vec<GenRule> = minedig_nocoin::list::nocoin_rules()
        .into_iter()
        .map(|lr| GenRule {
            pattern: lr.rule.raw.split('$').next().unwrap().to_string(),
            line: lr.rule.raw,
            label: lr.label,
        })
        .collect();
    let mut hits = 0;
    for _ in 0..500 {
        let html = arb_page().generate(&mut rng);
        hits += engine_agrees_with_linear(&bundled, "example.org", &html)
            .unwrap()
            .len();
    }
    assert!(hits > 100, "only {hits} hits");
}

#[test]
fn generated_cases_exercise_the_index() {
    // The differential only means something if generated rules hit, so
    // at least a fifth of the generated pages must.
    let mut rng = TestRng::for_test("generated_cases_exercise_the_index");
    let (mut pages_with_hits, mut cases) = (0, 0);
    for _ in 0..500 {
        let rules = arb_rules().generate(&mut rng);
        let html = arb_page().generate(&mut rng);
        cases += 1;
        if !engine_agrees_with_linear(&rules, "coinhive.com", &html)
            .unwrap()
            .is_empty()
        {
            pages_with_hits += 1;
        }
    }
    assert!(
        pages_with_hits * 5 > cases,
        "{pages_with_hits} of {cases} pages hit"
    );
}

// ---------------------------------------------------------------------
// The original extractor: a case-insensitive 7-byte window compared at
// every offset.
// ---------------------------------------------------------------------

fn reference_extract(html: &str) -> Vec<ScriptTag> {
    let bytes = html.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(open) = find_ci(bytes, pos, b"<script") {
        let after = open + 7;
        match bytes.get(after) {
            Some(b) if b.is_ascii_whitespace() || *b == b'>' || *b == b'/' => {}
            None => break,
            Some(_) => {
                pos = after;
                continue;
            }
        }
        let tag_end = match bytes[after..].iter().position(|&b| b == b'>') {
            Some(i) => after + i,
            None => break,
        };
        let attr_text = &html[after..tag_end];
        let src = parse_attr(attr_text, "src");
        if attr_text.trim_end().ends_with('/') {
            out.push(ScriptTag { src, inline: None });
            pos = tag_end + 1;
            continue;
        }
        let body_start = tag_end + 1;
        let (body_end, next_pos) = match find_ci(bytes, body_start, b"</script") {
            Some(close) => {
                let close_end = bytes[close..]
                    .iter()
                    .position(|&b| b == b'>')
                    .map(|i| close + i + 1)
                    .unwrap_or(bytes.len());
                (close, close_end)
            }
            None => (bytes.len(), bytes.len()),
        };
        let body = html[body_start..body_end].trim();
        out.push(ScriptTag {
            src,
            inline: if body.is_empty() {
                None
            } else {
                Some(body.to_string())
            },
        });
        pos = next_pos;
    }
    out
}

fn find_ci(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
        .map(|i| from + i)
}

fn parse_attr(attrs: &str, name: &str) -> Option<String> {
    let lower = attrs.to_ascii_lowercase();
    let mut search = 0;
    loop {
        let idx = lower[search..].find(name)? + search;
        let before_ok = idx == 0
            || lower.as_bytes()[idx - 1].is_ascii_whitespace()
            || lower.as_bytes()[idx - 1] == b'\''
            || lower.as_bytes()[idx - 1] == b'"';
        let after = idx + name.len();
        let rest = lower[after..].trim_start();
        if before_ok && rest.starts_with('=') {
            let eq_offset = after + (lower[after..].len() - rest.len());
            let value_text = attrs[eq_offset + 1..].trim_start();
            return Some(match value_text.chars().next() {
                Some(q @ ('"' | '\'')) => value_text[1..].split(q).next().unwrap_or("").to_string(),
                _ => value_text
                    .split(|c: char| c.is_ascii_whitespace() || c == '>')
                    .next()
                    .unwrap_or("")
                    .to_string(),
            });
        }
        search = after;
    }
}
