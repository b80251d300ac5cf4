//! Minimal JSON tree, writer, and parser — hand-rolled so the telemetry
//! crate stays dependency-free and builds offline. Objects preserve
//! insertion order; integers are kept exact (no f64 round-trip for counters).

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (counters, cycles, bytes — the common case here).
    Int(u64),
    /// Floating-point number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, padc) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    // Keep a decimal point so the value parses back as Num.
                    if f.fract() == 0.0 {
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    it.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&padc);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document in time linear in its length. Supports the
    /// full value grammar emitted by the writer (and standard escapes);
    /// returns a readable error message with a byte offset on malformed
    /// input, and on arrays and objects nested more than 128 deep.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string_compact())
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deeply [`Json::parse`] lets arrays and objects nest: far above any
/// report, far below what would overflow the parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`] (each level is a parser stack frame).
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {} at byte {}",
                MAX_DEPTH, self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            // Exactly four hex digits (`from_str_radix`
                            // alone would take a sign).
                            let code = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape. Both are
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.src[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
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
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("stream \"triad\"\n")),
            ("count".into(), Json::Int(u64::MAX)),
            ("frac".into(), Json::Num(0.25)),
            ("whole".into(), Json::Num(2.0)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Arr(vec![])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc, "failed on: {text}");
        }
    }

    #[test]
    fn u64_max_survives_exactly() {
        let t = Json::Int(u64::MAX).to_string_compact();
        assert_eq!(t, u64::MAX.to_string());
        assert_eq!(Json::parse(&t).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"abc"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let s = r#"path\to\"file" with 'quotes'"#;
        let text = Json::str(s).to_string_compact();
        assert_eq!(text, r#""path\\to\\\"file\" with 'quotes'""#);
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn escapes_every_control_char() {
        // Named escapes for the common three, \uXXXX for the rest of C0.
        let named = Json::str("a\nb\rc\td").to_string_compact();
        assert_eq!(named, "\"a\\nb\\rc\\td\"");
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let text = Json::str(c.to_string()).to_string_compact();
            assert!(
                !text.chars().any(|x| (x as u32) < 0x20),
                "raw control char {code:#x} leaked into {text:?}"
            );
            let back = Json::parse(&text).unwrap();
            assert_eq!(
                back.as_str(),
                Some(c.to_string().as_str()),
                "code {code:#x}"
            );
        }
        // The generic form uses four lowercase hex digits.
        assert_eq!(Json::str("\u{0}").to_string_compact(), "\"\\u0000\"");
        assert_eq!(Json::str("\u{1f}").to_string_compact(), "\"\\u001f\"");
    }

    #[test]
    fn non_ascii_passes_through_raw_and_round_trips() {
        // Guard-site labels and span names may carry any UTF-8; the writer
        // emits it raw (JSON strings are Unicode) and the parser consumes
        // multi-byte scalars intact.
        let s = "été 中文 тест 🔥;semi\\colon\"quote";
        let text = Json::str(s).to_string_compact();
        assert!(text.contains("été") && text.contains("🔥"));
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn parser_decodes_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9\u4e2d""#).unwrap().as_str(),
            Some("Aé中")
        );
        // A lone surrogate cannot be a char; it degrades to U+FFFD rather
        // than corrupting the document.
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        assert!(Json::parse(r#""\u00g1""#).is_err());
        assert!(Json::parse(r#""\u00""#).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `from_str_radix` accepts a leading sign; the grammar does not.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u041""#] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
        // A multi-byte char where a digit belongs is an error, not a panic.
        assert!(Json::parse("\"\\u00é\"").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each string used to re-validate the rest of the document once per
        // character: 200 000 characters took minutes. Now it is a copy.
        let long = "ab\u{e9}\u{4e2d}".repeat(50_000);
        let many = Json::Arr((0..20_000).map(|i| Json::str(format!("s{i}"))).collect());
        let start = std::time::Instant::now();
        assert_eq!(
            Json::parse(&Json::str(long.as_str()).to_string_compact())
                .unwrap()
                .as_str(),
            Some(long.as_str())
        );
        assert_eq!(Json::parse(&many.to_string_pretty()).unwrap(), many);
        let took = start.elapsed();
        assert!(took.as_secs() < 5, "parsing took {took:?}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&deep(n)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn keys_are_escaped_like_values() {
        let doc = Json::Obj(vec![("we\"ird\nkey".into(), Json::Int(1))]);
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn get_and_accessors() {
        let doc = Json::parse(r#"{"a": 3, "b": [1, "x"], "c": -1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("b").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap()[1].as_str(),
            Some("x")
        );
        assert_eq!(doc.get("c"), Some(&Json::Num(-1.5)));
        assert_eq!(doc.get("missing"), None);
    }
}
