//! A minimal JSON value type: build, render, parse.
//!
//! The run-summary artifact and the Chrome trace-event file are JSON, and
//! the workspace is hermetic (no `serde`), so this module provides the
//! small subset needed: a value enum with a renderer that escapes
//! correctly, and a strict recursive-descent parser used by tests and by
//! `perf_report --check` to prove the artifacts stay machine-readable.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered as an integer when exactly integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Number constructor (also use for integers; u64 counters up to 2^53
    /// render exactly).
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders compact JSON (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders with two-space indentation (the artifact form: humans read
    /// these files too).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one renderer: compact when `depth` is `None`, else each item of
    /// a non-empty array or object on its own line, indented two spaces
    /// per level below `depth`.
    fn render_into(&self, out: &mut String, depth: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => return render_num(*x, out),
            Json::Str(s) => return render_str(s, out),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => ('{', '}', pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect()),
        };
        let line_break = |out: &mut String, depth: Option<usize>| {
            if let Some(d) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
        };
        let inner = depth.map(|d| d + 1);
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            line_break(out, inner);
            if let Some(k) = key {
                render_str(k, out);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            v.render_into(out, inner);
        }
        if !items.is_empty() {
            line_break(out, depth);
        }
        out.push(close);
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error). Returns a human-readable error with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn render_str(s: &str, out: &mut String) {
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

/// A key that occurs twice in `pairs`; [`Json::get`] would answer for the
/// first occurrence only. The pairwise scan is for the handful of keys a
/// wire request carries; longer objects sort a list of references, so a
/// hostile line cannot make the check quadratic.
fn duplicate_key(pairs: &[(String, Json)]) -> Option<&str> {
    if pairs.len() <= 16 {
        return pairs
            .iter()
            .enumerate()
            .find(|(i, (k, _))| pairs[..*i].iter().any(|(seen, _)| seen == k))
            .map(|(_, (k, _))| k.as_str());
    }
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    if let Some(key) = duplicate_key(&pairs) {
                        return Err(format!(
                            "duplicate key \"{key}\" in the object ending at byte {}",
                            self.pos
                        ));
                    }
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // consume a run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| format!("short \\u escape at byte {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // surrogate pairs are not needed by our own
                            // artifacts; map lone surrogates to U+FFFD
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::str("flux")),
            ("seconds", Json::num(1.25)),
            ("calls", Json::num(42.0)),
            ("tags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("k", Json::num(-3.5e-7))])),
        ]);
        for text in [v.render(), v.render_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, v, "failed roundtrip of {text}");
        }
    }

    #[test]
    fn pretty_layout_is_pinned() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::num(1.0), Json::obj(vec![])])),
            ("b", Json::obj(vec![("c", Json::Arr(vec![]))])),
            ("d", Json::str("x")),
        ]);
        let want = "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": {\n    \"c\": []\n  },\n  \"d\": \"x\"\n}\n";
        assert_eq!(v.render_pretty(), want);
        assert_eq!(v.render(), r#"{"a":[1,{}],"b":{"c":[]},"d":"x"}"#);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(42.0).render(), "42");
        assert_eq!(Json::num(-7.0).render(), "-7");
        assert_eq!(Json::num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn string_escapes() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.render();
        assert_eq!(text, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn parse_rejects_duplicate_keys_by_name() {
        let err = Json::parse(r#"{"tenant":"a","mesh":"tiny","tenant":"b"}"#).unwrap_err();
        assert!(err.contains("duplicate key \"tenant\""), "{err}");
        // Nested objects are checked too; equal keys in *different*
        // objects are not duplicates.
        let err = Json::parse(r#"{"a":{"k":1,"k":2}}"#).unwrap_err();
        assert!(err.contains("\"k\""), "{err}");
        assert!(Json::parse(r#"[{"k":1},{"k":2}]"#).is_ok());
        // Past the pairwise-scan size the sorted check takes over.
        let wide = |last: usize| {
            let keys: Vec<String> = (0..40)
                .chain([last])
                .map(|i| format!("\"k{i}\":{i}"))
                .collect();
            format!("{{{}}}", keys.join(","))
        };
        assert!(Json::parse(&wide(40)).is_ok());
        let err = Json::parse(&wide(7)).unwrap_err();
        assert!(err.contains("duplicate key \"k7\""), "{err}");
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"π≈3\" ] } \n").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[1].as_str(), Some("π≈3"));
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::obj(vec![("x", Json::num(2.0))]);
        assert_eq!(v.get("x").unwrap().as_f64(), Some(2.0));
        assert!(v.get("y").is_none());
        assert!(v.as_arr().is_none());
    }

    #[test]
    fn u64_counters_roundtrip_exactly() {
        // counters up to 2^53 survive the f64 path bit-exactly
        let n = (1u64 << 53) - 1;
        let text = Json::num(n as f64).render();
        assert_eq!(text, format!("{n}"));
        assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(n as f64));
    }
}
