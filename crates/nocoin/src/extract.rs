//! Tolerant HTML script-tag extraction (the paper's lxml step).
//!
//! Landing pages arrive truncated (the crawler cuts at 256 kB) and are
//! frequently malformed, so the tokenizer is deliberately forgiving: it
//! scans for tags, parses attributes with single/double/no quotes, and
//! treats an unterminated final tag or script body as ending at EOF.
//!
//! [`script_tags`] borrows: it yields `&str` slices of the page and
//! allocates nothing. It finds `<script` and `</script` eight bytes per
//! step, word-at-a-time: a step masks the `<` bytes followed by the
//! needle's second byte (`s` in either case, or `/`), and only those
//! pairs are compared with the whole needle. Text and other tags, such
//! as the `<p>` and `</p>` of filler paragraphs, cost a few word
//! operations per eight bytes and no stop. [`extract_script_tags`] is
//! its owned form.

/// A `<script>` tag found in a page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptTag {
    /// `src` attribute, if present (external script).
    pub src: Option<String>,
    /// Inline body, if no `src` (or both, for malformed pages).
    pub inline: Option<String>,
}

/// A `<script>` tag found in a page, borrowing from the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptTagRef<'a> {
    /// `src` attribute, if present (external script).
    pub src: Option<&'a str>,
    /// Inline body, trimmed, if not empty.
    pub inline: Option<&'a str>,
}

/// Extracts all script tags from `html`, owned.
pub fn extract_script_tags(html: &str) -> Vec<ScriptTag> {
    script_tags(html)
        .map(|tag| ScriptTag {
            src: tag.src.map(str::to_owned),
            inline: tag.inline.map(str::to_owned),
        })
        .collect()
}

/// The script tags of `html`, in page order.
pub fn script_tags(html: &str) -> ScriptTags<'_> {
    ScriptTags { html, pos: 0 }
}

/// Iterator over a page's script tags; see [`script_tags`].
#[derive(Clone, Debug)]
pub struct ScriptTags<'a> {
    html: &'a str,
    /// Where the search for the next tag resumes (a char boundary).
    pos: usize,
}

impl<'a> Iterator for ScriptTags<'a> {
    type Item = ScriptTagRef<'a>;

    fn next(&mut self) -> Option<ScriptTagRef<'a>> {
        let html = self.html;
        loop {
            let open = find_tag(html, self.pos, b"<script")?;
            // Make sure it's `<script` followed by whitespace, '>' or '/'.
            let after = open + 7;
            match html.as_bytes().get(after) {
                Some(b) if b.is_ascii_whitespace() || *b == b'>' || *b == b'/' => {}
                Some(_) => {
                    self.pos = after;
                    continue;
                }
                None => return None,
            }
            // Parse attributes up to the closing '>'.
            let Some(tag_end) = html[after..].find('>').map(|i| after + i) else {
                return None; // truncated inside the tag
            };
            let attrs = &html[after..tag_end];
            let src = attr_value(attrs, "src");
            if attrs.trim_end().ends_with('/') {
                self.pos = tag_end + 1;
                return Some(ScriptTagRef { src, inline: None });
            }
            // Body runs until </script> (case-insensitive) or EOF.
            let body_start = tag_end + 1;
            let (body_end, next_pos) = match find_tag(html, body_start, b"</script") {
                Some(close) => {
                    let close_end = html[close..]
                        .find('>')
                        .map_or(html.len(), |i| close + i + 1);
                    (close, close_end)
                }
                None => (html.len(), html.len()),
            };
            self.pos = next_pos;
            let body = html[body_start..body_end].trim();
            return Some(ScriptTagRef {
                src,
                inline: (!body.is_empty()).then_some(body),
            });
        }
    }
}

/// Offset of the first case-insensitive `needle` at or after `from` (a
/// char boundary). `needle` is a lowercase tag opener: `<` and then a
/// byte with its ASCII case bit set (`s` or `/`), so a match starts at a
/// `<` whose next byte, with that bit set, equals `needle[1]`.
///
/// The scan tests eight such pairs per step, word-at-a-time: it loads
/// the eight bytes at the current offset and the eight one byte on, and
/// masks the `<` bytes in the first word and the matching second bytes
/// in the other. Only a pair in both masks is compared with the whole
/// needle, so text and other tags cost a few word operations per eight
/// bytes.
fn find_tag(html: &str, from: usize, needle: &[u8]) -> Option<usize> {
    debug_assert!(needle[0] == b'<' && needle[1] & 0x20 != 0);
    let bytes = html.get(from..)?.as_bytes();
    let is_match = |at: usize| {
        bytes
            .get(at..at + needle.len())
            .is_some_and(|window| window.eq_ignore_ascii_case(needle))
    };
    let mut at = 0;
    while let Some(nine) = bytes.get(at..at + 9) {
        let here = load_word(&nine[..8]);
        let next = load_word(&nine[1..]);
        let mut pairs = bytes_equal(here, b'<') & bytes_equal(next | CASE_BITS, needle[1]);
        while pairs != 0 {
            let open = at + (pairs.trailing_zeros() / 8) as usize;
            if is_match(open) {
                return Some(from + open);
            }
            pairs &= pairs - 1;
        }
        at += 8;
    }
    (at..bytes.len())
        .find(|&open| is_match(open))
        .map(|open| from + open)
}

/// Every byte's ASCII case bit (`0x20`).
const CASE_BITS: u64 = 0x2020_2020_2020_2020;

/// Eight bytes as a little-endian word: byte `i` is bits `8i..8i+8`.
fn load_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The high bit of each byte of `word` that equals `byte`, and no other
/// bit. Exact per byte: `(w & 0x7f) + 0x7f` cannot carry out of a byte.
fn bytes_equal(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// Parses an attribute value out of a tag's attribute text. `name` is
/// lowercase ASCII and matches in any case.
fn attr_value<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    let bytes = attrs.as_bytes();
    let mut search = 0;
    loop {
        let idx = search
            + bytes[search..]
                .windows(name.len())
                .position(|w| w.eq_ignore_ascii_case(name.as_bytes()))?;
        // Must be a word boundary before the attr name.
        let before_ok = idx == 0
            || bytes[idx - 1].is_ascii_whitespace()
            || bytes[idx - 1] == b'\'' // pathological but seen
            || bytes[idx - 1] == b'"';
        let after = idx + name.len();
        let rest = attrs[after..].trim_start();
        if before_ok && rest.starts_with('=') {
            let value = rest[1..].trim_start();
            return Some(match value.chars().next() {
                Some(q @ ('"' | '\'')) => value[1..].split(q).next().unwrap_or(""),
                _ => value
                    .split(|c: char| c.is_ascii_whitespace() || c == '>')
                    .next()
                    .unwrap_or(""),
            });
        }
        search = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extracts_external_script() {
        let tags = extract_script_tags(
            r#"<html><head><script src="https://coinhive.com/lib/coinhive.min.js"></script></head></html>"#,
        );
        assert_eq!(tags.len(), 1);
        assert_eq!(
            tags[0].src.as_deref(),
            Some("https://coinhive.com/lib/coinhive.min.js")
        );
        assert_eq!(tags[0].inline, None);
    }

    #[test]
    fn extracts_inline_script() {
        let tags =
            extract_script_tags("<script>var miner = new CoinHive.Anonymous('KEY');</script>");
        assert_eq!(tags.len(), 1);
        assert!(tags[0].inline.as_deref().unwrap().contains("CoinHive"));
    }

    #[test]
    fn mixed_quotes_and_case() {
        let tags = extract_script_tags(
            "<SCRIPT SRC='/js/app.js'></SCRIPT><script src=plain.js async></script>",
        );
        assert_eq!(tags.len(), 2);
        assert_eq!(tags[0].src.as_deref(), Some("/js/app.js"));
        assert_eq!(tags[1].src.as_deref(), Some("plain.js"));
    }

    #[test]
    fn self_closing_script() {
        let tags = extract_script_tags(r#"<script src="a.js"/><p>hi</p>"#);
        assert_eq!(tags.len(), 1);
        assert_eq!(tags[0].src.as_deref(), Some("a.js"));
    }

    #[test]
    fn truncated_page_keeps_open_script() {
        // The 256 kB cut can land inside a script body.
        let tags = extract_script_tags("<script>var x = 'cut off he");
        assert_eq!(tags.len(), 1);
        assert!(tags[0].inline.as_deref().unwrap().starts_with("var x"));
    }

    #[test]
    fn truncated_inside_tag_is_dropped() {
        let tags = extract_script_tags("<p>hello</p><script src=\"a.js");
        assert!(tags.is_empty());
    }

    #[test]
    fn ignores_script_like_words() {
        let tags = extract_script_tags("<p>my scripture <scripty></scripty></p>");
        assert!(tags.is_empty());
    }

    #[test]
    fn multiple_scripts_in_order() {
        let tags = extract_script_tags(
            "<script src=1.js></script><script>inline()</script><script src=2.js></script>",
        );
        assert_eq!(tags.len(), 3);
        assert_eq!(tags[0].src.as_deref(), Some("1.js"));
        assert_eq!(tags[1].inline.as_deref(), Some("inline()"));
        assert_eq!(tags[2].src.as_deref(), Some("2.js"));
    }

    #[test]
    fn attr_parser_ignores_lookalike_attrs() {
        let tags = extract_script_tags(r#"<script data-src="no.js" src="yes.js"></script>"#);
        assert_eq!(tags[0].src.as_deref(), Some("yes.js"));
    }

    #[test]
    fn empty_and_markup_free_inputs() {
        assert!(extract_script_tags("").is_empty());
        assert!(extract_script_tags("plain text only").is_empty());
    }

    /// The reference scanner: jump between `<` bytes with `str::find`
    /// and compare the needle at each. `find_tag` must return exactly
    /// its offsets.
    fn find_loop(html: &str, from: usize, needle: &[u8]) -> Option<usize> {
        let mut at = from;
        loop {
            let open = at + html.get(at..)?.find('<')?;
            match html.as_bytes()[open..].get(..needle.len()) {
                Some(window) if window.eq_ignore_ascii_case(needle) => return Some(open),
                Some(_) => at = open + 1,
                None => return None,
            }
        }
    }

    /// Both needles from every offset of `html`, one past its end
    /// included (a mid-character offset finds nothing in either).
    fn assert_scanners_agree(html: &str) {
        for needle in [&b"<script"[..], b"</script"] {
            for from in 0..=html.len() + 1 {
                assert_eq!(
                    find_tag(html, from, needle),
                    find_loop(html, from, needle),
                    "{html:?} from {from}, needle {:?}",
                    std::str::from_utf8(needle).unwrap()
                );
            }
        }
    }

    /// Tag openers, near misses and multi-byte text.
    const FRAGMENTS: &[&str] = &[
        "<script",
        "<SCRIPT",
        "<Script",
        "</script",
        "</SCRIPT",
        "<p>",
        "</p>",
        "<s",
        "<",
        "</",
        "<scrip",
        "é",
        "日本",
        "🦀",
        "<\u{f}",
        "<script>",
        "</script>",
    ];

    #[test]
    fn find_tag_equals_the_find_loop_at_every_offset_and_near_the_end() {
        // Each fragment after 0..16 bytes (every offset mod 8) and before
        // 0..=9 (inside and past the last word), alone and doubled.
        for fragment in FRAGMENTS {
            for lead in 0..16 {
                for trail in 0..=9 {
                    let pad = |n| "x".repeat(n);
                    assert_scanners_agree(&format!("{}{fragment}{}", pad(lead), pad(trail)));
                    assert_scanners_agree(&format!(
                        "{}{fragment}{fragment}{}",
                        pad(lead),
                        pad(trail)
                    ));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn find_tag_equals_the_find_loop(
            lead in 0usize..8,
            parts in prop::collection::vec((0usize..FRAGMENTS.len(), 0usize..12), 0..24),
            trail in 0usize..=9,
        ) {
            let mut html = "t".repeat(lead);
            for (fragment, gap) in parts {
                html.push_str(FRAGMENTS[fragment]);
                html.push_str(&"text ".repeat(3)[..gap]);
            }
            html.push_str(&"z".repeat(trail));
            assert_scanners_agree(&html);
        }

        #[test]
        fn tokenizer_never_panics(s in "\\PC{0,400}") {
            let _ = extract_script_tags(&s);
        }

        #[test]
        fn tokenizer_never_panics_with_script_fragments(
            pre in "\\PC{0,40}", src in "[a-z./]{0,20}", post in "\\PC{0,40}"
        ) {
            let html = format!("{pre}<script src=\"{src}\">{post}");
            let _ = extract_script_tags(&html);
        }

        #[test]
        fn finds_planted_script(src in "[a-z0-9./:-]{1,40}") {
            let html = format!("<html><script src=\"{src}\"></script></html>");
            let tags = extract_script_tags(&html);
            prop_assert_eq!(tags.len(), 1);
            prop_assert_eq!(tags[0].src.as_deref(), Some(src.as_str()));
        }
    }
}
