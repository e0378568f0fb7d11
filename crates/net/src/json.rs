//! A minimal, total JSON implementation.
//!
//! Implemented in-repo (rather than adding `serde_json`) to keep the
//! workspace within its approved dependency set; see DESIGN.md. Numbers
//! preserve 64-bit integer precision — the short-link service configures
//! hash requirements up to 10^19 (Figure 4), which would be mangled by an
//! `f64`-only representation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON number, preserving integer precision where possible.
///
/// Equality is *numeric*: `F64(3.0)`, `U64(3)` and `I64(3)` compare equal,
/// so values round-trip through their textual encoding regardless of which
/// variant the parser picked.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Everything else.
    F64(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        use Number::*;
        match (*self, *other) {
            (U64(a), U64(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a == b,
            (U64(a), I64(b)) | (I64(b), U64(a)) => b >= 0 && a == b as u64,
            (U64(a), F64(b)) | (F64(b), U64(a)) => b >= 0.0 && b.fract() == 0.0 && a as f64 == b,
            (I64(a), F64(b)) | (F64(b), I64(a)) => b.fract() == 0.0 && a as f64 == b,
        }
    }
}

/// A JSON value.
///
/// ```
/// use minedig_net::Value;
///
/// let v = Value::parse(r#"{"type":"job","difficulty":16}"#).unwrap();
/// assert_eq!(v.get("type").unwrap().as_str(), Some("job"));
/// assert_eq!(v.get("difficulty").unwrap().as_u64(), Some(16));
/// assert_eq!(Value::parse(&v.encode()).unwrap(), v);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Number (see [`Number`]).
    Num(Number),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; key order is normalized (sorted) which keeps encodings
    /// deterministic across runs.
    Obj(BTreeMap<String, Value>),
}

/// JSON parse errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Unsigned integer value.
    pub fn u64(v: u64) -> Value {
        Value::Num(Number::U64(v))
    }

    /// Signed integer value.
    pub fn i64(v: i64) -> Value {
        if v >= 0 {
            Value::Num(Number::U64(v as u64))
        } else {
            Value::Num(Number::I64(v))
        }
    }

    /// Floating-point value.
    pub fn f64(v: f64) -> Value {
        Value::Num(Number::F64(v))
    }

    /// String value.
    pub fn str(v: &str) -> Value {
        Value::Str(v.to_string())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer (or an exact
    /// float).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(Number::U64(v)) => Some(*v),
            Value::Num(Number::I64(v)) if *v >= 0 => Some(*v as u64),
            Value::Num(Number::F64(v)) if *v >= 0.0 && v.fract() == 0.0 && *v < 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(Number::U64(v)) => Some(*v as f64),
            Value::Num(Number::I64(v)) => Some(*v as f64),
            Value::Num(Number::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(Number::U64(v)) => {
                let _ = write!(out, "{v}");
            }
            Value::Num(Number::I64(v)) => {
                let _ = write!(out, "{v}");
            }
            Value::Num(Number::F64(v)) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document; the whole input must be consumed (modulo
    /// trailing whitespace). Inputs larger than [`MAX_INPUT`] are
    /// rejected up front — a hostile peer cannot make the parser
    /// allocate proportionally to an unbounded document.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        if input.len() > MAX_INPUT {
            return Err(ParseError {
                offset: MAX_INPUT,
                message: "input exceeds size cap",
            });
        }
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 64;

/// Hard ceiling on the size of a parseable document (1 MiB).
///
/// The protocol's largest legitimate messages are block templates a few
/// kilobytes long; anything near this cap is hostile or corrupt, and
/// rejecting it before the first byte is examined keeps peak memory
/// bounded by what the transport already buffered.
pub const MAX_INPUT: usize = 1 << 20;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':', "expected ':'")?;
                    let value = self.parse_value(depth + 1)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_keyword(&mut self, word: &'static str, value: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.parse_hex4()?;
                            // Surrogate pairs.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let low = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    char::from_u32(c).ok_or(self.err("invalid codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&code) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(code).ok_or(self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run of plain characters at once. It ends
                    // at a quote, a backslash or a control byte, all
                    // ASCII, so both ends fall on char boundaries.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::Num(Number::I64(v)));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Num(Number::U64(v)));
            }
        }
        // A literal past f64's range would parse to an infinity, which
        // has no JSON form: it would re-encode as `null`.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Num(Number::F64(v))),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::u64(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Num(Number::I64(-7)));
        assert_eq!(Value::parse("1.5").unwrap(), Value::f64(1.5));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::str("hi"));
    }

    #[test]
    fn numbers_past_f64_range_are_refused() {
        // An infinity has no JSON form: it would re-encode as `null`.
        for text in ["1e999", "-1e999", "[1,2e400]"] {
            assert!(Value::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn preserves_u64_precision() {
        // 10^19: the Fig-4 hash-count tail. f64 would round this.
        let v = Value::parse("10000000000000000019").unwrap();
        assert_eq!(v.as_u64(), Some(10_000_000_000_000_000_019));
        assert_eq!(v.encode(), "10000000000000000019");
    }

    #[test]
    fn parses_nested_structure() {
        let v = Value::parse(r#"{"type":"job","blob":"abc","target":255,"ids":[1,2,3]}"#).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("job"));
        assert_eq!(v.get("target").unwrap().as_u64(), Some(255));
        assert_eq!(v.get("ids").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let v = Value::Str(s.to_string());
        let parsed = Value::parse(&v.encode()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Value::parse(r#""é€""#).unwrap().as_str(), Some("é€"));
        // Surrogate pair: U+1F600.
        assert_eq!(Value::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "01a",
            "\"unterminated",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "--1",
            "-",
            "{\"a\":1} extra",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerance() {
        let v = Value::parse(" \n\t{ \"a\" : [ 1 , 2 ] } \r\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn size_cap_rejects_oversized_input_exactly_at_the_boundary() {
        // A document of exactly MAX_INPUT bytes parses; one byte more
        // is refused before any value is examined.
        let at_cap = format!("{}1", " ".repeat(MAX_INPUT - 1));
        assert_eq!(at_cap.len(), MAX_INPUT);
        assert_eq!(Value::parse(&at_cap).unwrap(), Value::u64(1));

        let over_cap = format!("{}1", " ".repeat(MAX_INPUT));
        let err = Value::parse(&over_cap).unwrap_err();
        assert_eq!(err.message, "input exceeds size cap");
        assert_eq!(err.offset, MAX_INPUT);
        assert!(err.to_string().contains("exceeds size cap"));
    }

    #[test]
    fn a_string_near_the_cap_parses_in_linear_time() {
        // Plain runs mixed with escapes and multi-byte characters, filling
        // the input cap: the parse must stay linear in the literal.
        let unit = "plain ASCII text, é€😀 and an escape\\n; ";
        let body = unit.repeat((MAX_INPUT - 2) / unit.len());
        let text = format!("\"{body}\"");
        assert!(text.len() > MAX_INPUT - unit.len() && text.len() <= MAX_INPUT);
        let started = std::time::Instant::now();
        let value = Value::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(value.encode(), text);
        assert!(elapsed.as_secs_f64() < 5.0, "parsed in {elapsed:?}");
    }

    #[test]
    fn depth_limit_guards_stack() {
        let mut deep = String::new();
        for _ in 0..1000 {
            deep.push('[');
        }
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn object_helper_and_get() {
        let v = Value::object(vec![("x", Value::u64(1)), ("y", Value::str("z"))]);
        assert_eq!(v.get("x").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::u64(5).get("x"), None);
    }

    #[test]
    fn number_accessor_edge_cases() {
        assert_eq!(Value::f64(3.0).as_u64(), Some(3));
        assert_eq!(Value::f64(3.5).as_u64(), None);
        assert_eq!(Value::i64(-1).as_u64(), None);
        assert_eq!(Value::i64(-1).as_f64(), Some(-1.0));
        assert_eq!(Value::str("1").as_u64(), None);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Value::f64(f64::NAN).encode(), "null");
        assert_eq!(Value::f64(f64::INFINITY).encode(), "null");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::u64),
            any::<i64>().prop_map(Value::i64),
            // Restrict to floats that roundtrip through decimal text.
            (-1_000_000i32..1_000_000).prop_map(|v| Value::f64(v as f64 / 64.0)),
            "[a-zA-Z0-9 \\\\\"\n\t\u{e9}]{0,20}".prop_map(Value::Str),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Arr),
                prop::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Value::Obj),
            ]
        })
    }

    proptest! {
        #[test]
        fn encode_parse_roundtrip(v in arb_value()) {
            let encoded = v.encode();
            let parsed = Value::parse(&encoded).unwrap();
            prop_assert_eq!(parsed, v);
        }

        #[test]
        fn parser_never_panics(s in "\\PC{0,64}") {
            let _ = Value::parse(&s);
        }

        #[test]
        fn size_cap_boundary_is_exact(pad in 0usize..4, under in any::<bool>()) {
            // Whitespace-padded documents straddling the cap: accepted
            // iff the total byte length fits, independent of content.
            let len = if under { MAX_INPUT - pad } else { MAX_INPUT + 1 + pad };
            let doc = format!("{}1", " ".repeat(len - 1));
            prop_assert_eq!(doc.len(), len);
            let result = Value::parse(&doc);
            if under {
                prop_assert_eq!(result.unwrap(), Value::u64(1));
            } else {
                prop_assert_eq!(result.unwrap_err().message, "input exceeds size cap");
            }
        }
    }
}
