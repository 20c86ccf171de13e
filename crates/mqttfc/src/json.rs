//! Minimal JSON value model, serializer, and recursive-descent parser.
//!
//! The paper encodes session stats and cluster topologies as JSON; the
//! sanctioned offline crate set has no JSON implementation, so this module
//! provides one. It supports the complete JSON grammar (RFC 8259) with the
//! usual Rust-side simplifications: numbers are `f64`, object keys are kept
//! in sorted order (`BTreeMap`) so serialization is deterministic — which
//! matters for byte-identical experiment reproduction.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Number(f64),
    /// A JSON string.
    String(String),
    /// An array of values.
    Array(Vec<Json>),
    /// An object with deterministically ordered keys.
    Object(BTreeMap<String, Json>),
}

/// JSON parse errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience: builds an object from an iterator of pairs.
    pub fn object<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience: string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Convenience: numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// Returns the value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Returns the string content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Strictly below 2^64: `u64::MAX as f64` rounds *up* to 2^64,
            // so a `<=` guard would let 2^64 saturate to u64::MAX.
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Returns the bool if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::with_capacity(64);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) => write_number(*n, out),
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The entire input must be consumed (modulo
    /// trailing whitespace). Arrays and objects nested deeper than
    /// [`MAX_DEPTH`] are refused, so a hostile document cannot exhaust
    /// the stack.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON cannot represent NaN/Inf; emit null like most encoders.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        fmt::Write::write_fmt(out, format_args!("{}", n as i64)).unwrap();
    } else {
        fmt::Write::write_fmt(out, format_args!("{n}")).unwrap();
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32)).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(msg))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_lit(&mut self, lit: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle surrogate pairs.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            self.expect(b'\\', "expected low surrogate")?;
                            self.expect(b'u', "expected low surrogate")?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-read the full UTF-8 sequence starting at b.
                    let width = utf8_width(b);
                    let start = self.pos - 1;
                    let end = start + width;
                    if width == 0 || end > self.bytes.len() {
                        return Err(self.err("invalid UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) {
        let text = j.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(&parsed, j, "roundtrip of {text}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::num(0));
        roundtrip(&Json::num(-17));
        roundtrip(&Json::num(3.5));
        roundtrip(&Json::num(1e-7));
        roundtrip(&Json::str("hello"));
        roundtrip(&Json::str("esc \" \\ \n \t"));
        roundtrip(&Json::str("unicode: ü 中 🦀"));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&Json::Array(vec![
            Json::num(1),
            Json::str("two"),
            Json::Null,
        ]));
        roundtrip(&Json::object([
            ("id", Json::str("client_5")),
            ("mem", Json::num(4096)),
            (
                "roles",
                Json::Array(vec![Json::str("trainer"), Json::str("aggregator")]),
            ),
            ("nested", Json::object([("x", Json::Bool(false))])),
        ]));
        roundtrip(&Json::Array(vec![]));
        roundtrip(&Json::Object(BTreeMap::new()));
    }

    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        // 20,000 open brackets used to recurse once each and abort the
        // process with a stack overflow.
        for open in ["[", "{\"k\":"] {
            let doc = open.repeat(20_000);
            let err = Json::parse(&doc).unwrap_err();
            assert_eq!(err.message, "nesting too deep");
            assert_eq!(err.offset, MAX_DEPTH * open.len());
        }
        // The limit itself still parses, one more level does not.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let text = r#"
            { "session" : "s1" ,
              "clients" : [ { "id": "c1", "role": "trainer" },
                            { "id": "c2", "role": "aggregator" } ],
              "round" : 3 }
        "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("session").unwrap().as_str(), Some("s1"));
        assert_eq!(v.get("round").unwrap().as_u64(), Some(3));
        let clients = v.get("clients").unwrap().as_array().unwrap();
        assert_eq!(clients.len(), 2);
        assert_eq!(clients[1].get("role").unwrap().as_str(), Some("aggregator"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "nul",
            "\"unterminated",
            "{\"a\":1,}",
            "1 2",
            "[1]]",
            "\"bad \\x escape\"",
            "\u{0001}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn deterministic_key_order() {
        let a = Json::object([("b", Json::num(1)), ("a", Json::num(2))]);
        assert_eq!(a.to_string_compact(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Json::num(42).to_string_compact(), "42");
        assert_eq!(Json::num(-1).to_string_compact(), "-1");
        assert_eq!(Json::num(2.5).to_string_compact(), "2.5");
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Json::Number(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn as_u64_rejects_out_of_range_and_fractional() {
        assert_eq!(Json::num(5).as_u64(), Some(5));
        assert_eq!(Json::num(-1).as_u64(), None);
        assert_eq!(Json::num(2.5).as_u64(), None);
        // 2^64 itself must not saturate to u64::MAX.
        assert_eq!(Json::Number(18446744073709551616.0).as_u64(), None);
        // The largest double below 2^64 is a valid u64.
        let below = f64::from_bits(18446744073709551616.0f64.to_bits() - 1);
        assert_eq!(Json::Number(below).as_u64(), Some(below as u64));
    }
}
