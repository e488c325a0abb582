//! The workspace's one JSON module: a value type with a parser for
//! untrusted documents (HTTP request bodies, SARIF and Chrome-trace
//! imports, benchmark reports) and the string quoting every emitter
//! shares.
//!
//! Emitters write their documents with `format!` around [`quote`], so
//! each surface keeps its exact byte layout and only escaping is shared.
//! The parser accepts any RFC 8259 document nested at most
//! [`MAX_DEPTH`] containers deep, in time linear in its input; anything
//! else is an `Err` naming the byte offset, never a panic. Handlers read
//! the fields they know and reject the rest by name, so typos in request
//! bodies fail loudly instead of being silently ignored.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many arrays and objects may nest inside one another (serde_json's
/// limit). The parser recurses once per level, so this bound is what
/// keeps a body of ten thousand `[` from overflowing the thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, the JSON number model).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys (a repeated key keeps its last value).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value under `key`, if this is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64).then_some(n as usize)
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Quotes `s` as a JSON string literal (escaping quotes, backslashes and
/// control characters). Schema-derived text — type names, messages, file
/// paths — is user-controlled, so every emitter routes strings through
/// here.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders `["a", "b", …]` from string-ish items.
pub fn str_array<I: IntoIterator<Item = S>, S: AsRef<str>>(items: I) -> String {
    let inner = items
        .into_iter()
        .map(|s| quote(s.as_ref()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both are ASCII, so the run ends on a char boundary of the
            // already-validated `&str` and needs no UTF-8 re-check.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.pos += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => out.push(self.unicode_escape()?),
                other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
            }
        }
    }

    /// Decodes the code unit after `\u` into a char. A high surrogate
    /// must be followed by a `\u` low surrogate, and the pair decodes to
    /// one supplementary-plane char; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit) {
            if !self.bytes()[self.pos..].starts_with(b"\\u") {
                return Err(format!("unpaired surrogate \\u{unit:04x}"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate \\u{unit:04x}"));
            }
            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
        } else {
            unit
        };
        char::from_u32(code).ok_or_else(|| format!("invalid \\u escape \\u{code:04x}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let unit = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        // Only ASCII bytes were consumed, so the slice is on char boundaries.
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, "two", {"b": true}], "c": null}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[0].as_usize(), Some(1));
        assert_eq!(arr[1].as_str(), Some("two"));
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(arr[0].get("a"), None, "get on a non-object");
    }

    #[test]
    fn whitespace_and_number_forms() {
        let src = "\n\t { \"x\" : -1.5e2 ,\r\n \"y\": [ 0 , 3 ] } \n";
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(-150.0));
        assert_eq!(v.get("y").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage_and_fractional_usize() {
        for bad in [
            "",
            "{,}",
            "[1,]",
            "{} x",
            "not json",
            "{\"a\" 1}",
            "[1 2]",
            "tru",
            "-",
            "\"open",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(Json::parse("1.5").unwrap().as_usize(), None);
        assert_eq!(Json::parse("-3").unwrap().as_usize(), None);
    }

    #[test]
    fn every_rfc_8259_escape_decodes() {
        let v = Json::parse(r#""\" \\ \/ \b \f \n \r \t \u00e9 \u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\" \\ / \u{8} \u{c} \n \r \t é A"));
        // A surrogate pair is one supplementary-plane char.
        let v = Json::parse(r#""a\uD83D\uDE00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a😀b"));
        // Multi-byte UTF-8 passes through between escapes.
        let v = Json::parse("\"päth→\\n😀\"").unwrap();
        assert_eq!(v.as_str(), Some("päth→\n😀"));
    }

    #[test]
    fn lone_surrogates_and_bad_escapes_are_errors() {
        for bad in [
            r#""\uD83D""#,
            r#""\uD83Dx""#,
            r#""\uD83DA""#,
            r#""\uDE00""#,
            r#""\u12""#,
            r#""\uzzzz""#,
            r#""\x""#,
            "\"\\",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the bound, the parser stops at the bound instead of
        // recursing until the stack overflows.
        assert!(Json::parse(&"[".repeat(1 << 16)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Depth is nesting, not count: many sibling containers are fine.
        let siblings = format!("[{}[]]", "[], ".repeat(10 * MAX_DEPTH));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn parses_a_body_cap_sized_string() {
        // 4 MiB, the server's default body cap, with escapes sprinkled in
        // so both the plain-run and the escape paths are exercised.
        let chunk = "abcdefghijklmnopqrstuvwxyzé0123456789\\n";
        let n = (4 << 20) / chunk.len();
        let doc = format!("\"{}\"", chunk.repeat(n));
        let v = Json::parse(&doc).unwrap();
        let s = v.as_str().unwrap();
        assert_eq!(s.len(), n * (chunk.len() - 1));
        assert!(s.ends_with("789\n"));
    }

    #[test]
    fn quote_escapes_hostile_text() {
        assert_eq!(quote(r#"a"b"#), r#""a\"b""#);
        assert_eq!(quote(r"a\b"), r#""a\\b""#);
        assert_eq!(quote("a\nb\tc\r"), r#""a\nb\tc\r""#);
        assert_eq!(quote("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(quote("éπ"), "\"éπ\"");
        assert_eq!(str_array(["x", "y\t"]), r#"["x", "y\t"]"#);
        assert_eq!(str_array(Vec::<&str>::new()), "[]");
    }

    #[test]
    fn quoted_text_round_trips_through_the_parser() {
        for text in [
            "päth\\with \"stuff\"\u{1}",
            "quote\"backslash\\newline\n",
            "tab\tret\r\u{8}\u{c}",
            "ctrl\u{1}\u{1f}",
            "unicode éπ→😀",
            "",
        ] {
            let v = Json::parse(&quote(text)).unwrap();
            assert_eq!(v.as_str(), Some(text));
        }
    }
}
