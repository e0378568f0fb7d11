//! Adblock-Plus blocking-rule syntax and URL matching.
//!
//! Supports the subset the NoCoin list actually uses: host anchors
//! (`||example.com^`), start/end anchors (`|`), wildcards (`*`),
//! separator placeholders (`^`), comments (`!`), and `$` option suffixes
//! (recognised and stripped: the `script` / `third-party` options don't
//! change matching for our script-URL workload, where every matched URL
//! *is* a third-party script request).
//!
//! Matching allocates nothing on a lowercased URL and runs in
//! O(URL length × pattern length): the `*`s cut a pattern into
//! fixed-width segments, and each is placed greedily at its leftmost
//! fit. A rule's keyword, the token the engine indexes it by, comes
//! from the same tokens.

/// A parsed blocking rule.
///
/// ```
/// use minedig_nocoin::Rule;
///
/// let rule = Rule::parse("||coinhive.com^").unwrap();
/// assert!(rule.matches("https://coinhive.com/lib/coinhive.min.js"));
/// assert!(!rule.matches("https://example.org/assets/app.js"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Original rule text.
    pub raw: String,
    /// Pattern tokens.
    tokens: Vec<Token>,
    /// Anchored at URL start (`|...`)?
    start_anchor: bool,
    /// Host-anchored (`||...`)?
    host_anchor: bool,
    /// Anchored at URL end (`...|`)?
    end_anchor: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    /// Literal text (ASCII-lowercased, like the URLs it is matched
    /// against; URL matching is ASCII case-insensitive).
    Literal(String),
    /// `*` — any run of characters.
    Wildcard,
    /// `^` — a separator character or the URL end.
    Separator,
}

fn is_separator(c: u8) -> bool {
    !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'%'))
}

impl Rule {
    /// Parses one list line. Returns `None` for comments, element-hiding
    /// rules, exception rules and blank lines (none of which the NoCoin
    /// scan pipeline needs).
    pub fn parse(line: &str) -> Option<Rule> {
        let line = line.trim();
        if line.is_empty()
            || line.starts_with('!')
            || line.starts_with("[Adblock")
            || line.contains("##")
            || line.contains("#@#")
            || line.starts_with("@@")
        {
            return None;
        }
        // A `$` in the middle of a regex-ish pattern is unlikely in
        // NoCoin; strip the suffix after the last `$` as options when it
        // looks like an option list.
        let mut pattern = match line.rfind('$') {
            Some(idx) if looks_like_options(&line[idx + 1..]) => &line[..idx],
            _ => line,
        };
        let mut host_anchor = false;
        let mut start_anchor = false;
        let mut end_anchor = false;
        if let Some(rest) = pattern.strip_prefix("||") {
            host_anchor = true;
            pattern = rest;
        } else if let Some(rest) = pattern.strip_prefix('|') {
            start_anchor = true;
            pattern = rest;
        }
        if let Some(rest) = pattern.strip_suffix('|') {
            end_anchor = true;
            pattern = rest;
        }

        let mut tokens = Vec::new();
        let mut literal = String::new();
        for c in pattern.chars() {
            match c {
                '*' => {
                    if !literal.is_empty() {
                        tokens.push(Token::Literal(std::mem::take(&mut literal)));
                    }
                    if tokens.last() != Some(&Token::Wildcard) {
                        tokens.push(Token::Wildcard);
                    }
                }
                '^' => {
                    if !literal.is_empty() {
                        tokens.push(Token::Literal(std::mem::take(&mut literal)));
                    }
                    tokens.push(Token::Separator);
                }
                // ASCII only, as URLs are: Unicode lowering maps `É`
                // to `é` and the Kelvin sign `K` to `k`.
                c => literal.push(c.to_ascii_lowercase()),
            }
        }
        if !literal.is_empty() {
            tokens.push(Token::Literal(literal));
        }
        if tokens.is_empty() {
            return None;
        }
        Some(Rule {
            raw: line.to_string(),
            tokens,
            start_anchor,
            host_anchor,
            end_anchor,
        })
    }

    /// Whether the rule matches `url` (case-insensitive).
    pub fn matches(&self, url: &str) -> bool {
        self.matches_lowercase(&url.to_ascii_lowercase())
    }

    /// [`Rule::matches`] on a URL already in ASCII lower case. Allocates
    /// nothing, and costs O(URL length × pattern length) however many
    /// `*`s the rule holds.
    pub(crate) fn matches_lowercase(&self, url: &str) -> bool {
        if self.host_anchor {
            // The match starts at the host's start or just after a dot in it.
            let host_start = url.find("://").map_or(0, |i| i + 3);
            let host_end = url[host_start..]
                .find(['/', '?', ':'])
                .map_or(url.len(), |i| host_start + i);
            let after_dots = url.as_bytes()[host_start..host_end]
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == b'.')
                .map(|(i, _)| host_start + i + 1);
            std::iter::once(host_start)
                .chain(after_dots)
                .any(|start| self.matches_from(url, Some(start)))
        } else if self.start_anchor {
            self.matches_from(url, Some(0))
        } else {
            self.matches_from(url, None)
        }
    }

    /// Matches the tokens starting at `start`, or anywhere when `start`
    /// is `None`.
    ///
    /// The `*`s cut the tokens into fixed-width segments. The leftmost
    /// placement of a segment that a `*` follows leaves the most room
    /// for the rest, so it is the only one worth trying: one greedy pass
    /// decides the match, with no backtracking.
    fn matches_from(&self, url: &str, start: Option<usize>) -> bool {
        let mut segments = self.tokens.split(|t| *t == Token::Wildcard);
        let first = segments
            .next()
            .expect("`split` yields at least one segment");
        let Some(last) = segments.next_back() else {
            return match start {
                Some(at) => segment_at(url.as_bytes(), first, at, true)
                    .is_some_and(|end| !self.end_anchor || end == url.len()),
                None => self.last_segment_from(url, first, 0),
            };
        };
        let mut pos = match start {
            Some(at) => segment_at(url.as_bytes(), first, at, false),
            None => find_segment(url, first, 0, false),
        };
        for middle in segments {
            pos = pos.and_then(|from| find_segment(url, middle, from, false));
        }
        pos.is_some_and(|from| self.last_segment_from(url, last, from))
    }

    /// Whether the rule's last segment matches at or after `from`, ending
    /// at the URL's end when the rule is end-anchored.
    fn last_segment_from(&self, url: &str, segment: &[Token], from: usize) -> bool {
        if !self.end_anchor {
            return find_segment(url, segment, from, true).is_some();
        }
        let end = url.len();
        let width: usize = segment.iter().map(Token::width).sum();
        (end.saturating_sub(width).max(from)..=end)
            .any(|at| segment_at(url.as_bytes(), segment, at, true) == Some(end))
    }

    /// The Adblock Plus keyword: the longest run of `[a-z0-9%]` that
    /// every URL this rule matches holds as a whole token (a maximal run
    /// of such bytes). A run qualifies when a literal non-keyword byte,
    /// a `^`, a `||` or `|` start, or a `|` end bounds it on each side;
    /// a `*` or an open pattern end never does. Ties go to the first run.
    pub(crate) fn keyword(&self) -> Option<&str> {
        let mut best: Option<&str> = None;
        for (t, token) in self.tokens.iter().enumerate() {
            let Token::Literal(lit) = token else { continue };
            let left_bounded = match t.checked_sub(1) {
                Some(prev) => self.tokens[prev] == Token::Separator,
                None => self.host_anchor || self.start_anchor,
            };
            let right_bounded = match self.tokens.get(t + 1) {
                Some(next) => *next == Token::Separator,
                None => self.end_anchor,
            };
            let bytes = lit.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                if !is_keyword_byte(bytes[i]) {
                    i += 1;
                    continue;
                }
                let run = i;
                while i < bytes.len() && is_keyword_byte(bytes[i]) {
                    i += 1;
                }
                let bounded = (run > 0 || left_bounded) && (i < bytes.len() || right_bounded);
                if bounded && best.is_none_or(|k| i - run > k.len()) {
                    best = Some(&lit[run..i]);
                }
            }
        }
        best
    }
}

impl Token {
    /// Bytes the token consumes (a final `^` may also match the URL's end).
    fn width(&self) -> usize {
        match self {
            Token::Literal(lit) => lit.len(),
            Token::Wildcard => 0,
            Token::Separator => 1,
        }
    }
}

/// Whether `b` can be part of an Adblock Plus keyword.
pub(crate) fn is_keyword_byte(b: u8) -> bool {
    matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'%')
}

/// Matches a `*`-free token run at `at`, returning where it ends. `last`
/// says the run ends the rule, so a final `^` may match the URL's end.
fn segment_at(url: &[u8], segment: &[Token], at: usize, last: bool) -> Option<usize> {
    let mut pos = at;
    for (i, token) in segment.iter().enumerate() {
        match token {
            Token::Literal(lit) => {
                if !url[pos..].starts_with(lit.as_bytes()) {
                    return None;
                }
                pos += lit.len();
            }
            Token::Separator => match url.get(pos) {
                Some(&b) if is_separator(b) => pos += 1,
                Some(_) => return None,
                None => return (last && i + 1 == segment.len()).then_some(pos),
            },
            Token::Wildcard => unreachable!("segments hold no `*`"),
        }
    }
    Some(pos)
}

/// The end of the leftmost match of `segment` at or after `from`. A
/// leading literal is found with `str::find`, which jumps straight to
/// its candidates.
fn find_segment(url: &str, segment: &[Token], from: usize, last: bool) -> Option<usize> {
    let Some(Token::Literal(lit)) = segment.first() else {
        return (from..=url.len()).find_map(|at| segment_at(url.as_bytes(), segment, at, last));
    };
    // A literal starts on a char boundary (a `^` can stop inside a
    // multi-byte char), so skipping to the next boundary loses nothing.
    let next_boundary = |mut at: usize| {
        while !url.is_char_boundary(at) {
            at += 1;
        }
        at
    };
    let mut at = next_boundary(from);
    loop {
        let found = at + url[at..].find(lit.as_str())?;
        if let Some(end) = segment_at(url.as_bytes(), segment, found, last) {
            return Some(end);
        }
        at = next_boundary(found + 1);
    }
}

fn looks_like_options(s: &str) -> bool {
    !s.is_empty()
        && s.split(',').all(|opt| {
            let opt = opt.trim().trim_start_matches('~');
            matches!(
                opt,
                "script"
                    | "image"
                    | "stylesheet"
                    | "object"
                    | "xmlhttprequest"
                    | "subdocument"
                    | "document"
                    | "websocket"
                    | "third-party"
                    | "first-party"
                    | "important"
                    | "popup"
                    | "other"
            ) || opt.starts_with("domain=")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(s: &str) -> Rule {
        Rule::parse(s).expect("rule should parse")
    }

    #[test]
    fn host_anchor_matches_domain_and_subdomain() {
        let r = rule("||coinhive.com^");
        assert!(r.matches("https://coinhive.com/lib/coinhive.min.js"));
        assert!(r.matches("https://www.coinhive.com/lib/x.js"));
        assert!(r.matches("http://cdn.coinhive.com/"));
        assert!(!r.matches("https://notcoinhive.com/lib.js"));
        assert!(!r.matches("https://coinhive.com.evil.org/x.js"));
    }

    #[test]
    fn separator_semantics() {
        let r = rule("||coinhive.com^");
        assert!(r.matches("https://coinhive.com")); // ^ matches end
        assert!(r.matches("https://coinhive.com:8080/x")); // ':' is a separator
        assert!(!r.matches("https://coinhive.community/x")); // 'm' is not
    }

    #[test]
    fn non_ascii_letters_keep_their_case_in_rules_as_in_urls() {
        let host = rule("||CAF\u{c9}.example^");
        assert!(host.matches("https://CAF\u{c9}.example/x.js"));
        assert!(host.matches("https://caf\u{c9}.example/x.js"));
        assert!(!host.matches("https://caf\u{e9}.example/x.js"));
        // The Kelvin sign lowers to an ASCII `k` under Unicode rules.
        let kelvin = rule("/\u{212A}oin.js");
        assert!(kelvin.matches("https://x/\u{212A}oin.js"));
        assert!(!kelvin.matches("https://x/koin.js"));
    }

    #[test]
    fn plain_substring_rule() {
        let r = rule("coinhive.min.js");
        assert!(r.matches("https://example.org/static/coinhive.min.js"));
        assert!(!r.matches("https://example.org/static/other.js"));
    }

    #[test]
    fn wildcard_rule() {
        let r = rule("/wp-monero-miner*/js/");
        assert!(
            r.matches("https://blog.example/wp-content/plugins/wp-monero-miner-pro/js/worker.js")
        );
        assert!(!r.matches("https://blog.example/wp-content/plugins/other/js/worker.js"));
    }

    #[test]
    fn start_and_end_anchors() {
        let r = rule("|https://pool.");
        assert!(r.matches("https://pool.minexmr.com/"));
        assert!(!r.matches("http://mirror.example/?u=https://pool.minexmr.com/"));
        let r = rule("miner.js|");
        assert!(r.matches("https://x.example/miner.js"));
        assert!(!r.matches("https://x.example/miner.js?v=2"));
    }

    #[test]
    fn options_are_stripped_not_matched_on() {
        let r = rule("||cpmstar.com^$script,third-party");
        let bare = rule("||cpmstar.com^");
        for url in [
            "https://server.cpmstar.com/cached/view.js",
            "https://cpmstar.com$script,third-party",
            "https://example.org/view.js",
        ] {
            assert_eq!(r.matches(url), bare.matches(url), "{url}");
        }
        assert!(r.matches("https://server.cpmstar.com/cached/view.js"));
    }

    #[test]
    fn comments_and_cosmetic_rules_skipped() {
        assert!(Rule::parse("! NoCoin adblock list").is_none());
        assert!(Rule::parse("").is_none());
        assert!(Rule::parse("example.com##.ad-banner").is_none());
        assert!(Rule::parse("@@||goodsite.com^").is_none());
        assert!(Rule::parse("[Adblock Plus 2.0]").is_none());
    }

    #[test]
    fn matching_is_case_insensitive() {
        let r = rule("||CoinHive.com^");
        assert!(r.matches("HTTPS://COINHIVE.COM/LIB/COINHIVE.MIN.JS"));
    }

    #[test]
    fn dollar_in_path_does_not_eat_pattern() {
        // "$" followed by a non-option suffix stays part of the pattern.
        let r = rule("/jquery$custom.js");
        assert!(r.matches("https://x.example/jquery$custom.js"));
    }

    #[test]
    fn repeated_wildcards_collapse() {
        let r = rule("a**b");
        assert!(r.matches("https://x/aXXb"));
        assert!(r.matches("https://x/ab"));
    }

    #[test]
    fn keyword_is_the_longest_run_bounded_on_both_sides() {
        let keyword = |s: &str| rule(s).keyword().map(str::to_string);
        assert_eq!(keyword("||coinhive.com^").as_deref(), Some("coinhive"));
        assert_eq!(keyword("coinhive.min.js").as_deref(), Some("min"));
        assert_eq!(keyword("|https://pool.").as_deref(), Some("https"));
        assert_eq!(keyword("miner.js|").as_deref(), Some("js"));
        assert_eq!(keyword("^x%41y^").as_deref(), Some("x%41y"));
        // `*` and an open pattern end bound nothing.
        assert_eq!(keyword("/wp-monero-miner*").as_deref(), Some("monero"));
        assert_eq!(keyword("||minero-proxy*.sh^").as_deref(), Some("minero"));
        assert_eq!(keyword("crypta.js"), None);
        assert_eq!(keyword("*coinhive*"), None);
        assert_eq!(keyword("a*b"), None);
    }

    #[test]
    fn deep_wildcards_terminate() {
        // Pathological patterns must not blow the stack or run forever.
        let r = rule("*a*a*a*a*a*a*");
        let url = format!("https://x/{}", "b".repeat(200));
        assert!(!r.matches(&url));
        let url2 = format!("https://x/{}", "a".repeat(50));
        assert!(r.matches(&url2));
    }
}
