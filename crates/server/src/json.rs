//! Minimal JSON support for the server's request/response bodies.
//!
//! The server is std-only by design (DESIGN.md §10), so it carries its
//! own ~200-line JSON value parser instead of depending on a serde
//! stack. The parser is strict (no trailing garbage, no comments, no
//! trailing commas), depth-limited so a hostile body cannot overflow the
//! stack, and handles the full string escape set including surrogate
//! pairs. Output JSON is assembled by hand with [`escape`] — the
//! response shapes are few and flat enough that a serialisation
//! framework would be pure overhead.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by the parser. Request bodies are
/// flat objects; 32 leaves generous room without risking deep recursion.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// A parse failure with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(message)
        }
    }

    fn eat_literal(&mut self, lit: &str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(message)
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => {
                self.eat_literal("true", "invalid literal")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.eat_literal("false", "invalid literal")?;
                Ok(Json::Bool(false))
            }
            Some(b'n') => {
                self.eat_literal("null", "invalid literal")?;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
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
            self.eat(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError {
                offset: self.pos,
                message: "invalid \\u escape",
            })
            .and_then(|s| {
                u32::from_str_radix(s, 16).map_err(|_| JsonError {
                    offset: self.pos,
                    message: "invalid \\u escape",
                })
            })?;
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                self.eat_literal("\\u", "lone high surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return self.err("lone low surrogate");
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid code point"),
                            }
                            continue; // hex4 advanced past the escape
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is validated UTF-8).
                    let s =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            offset: start,
                            message: "invalid utf-8",
                        })?;
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A trailing '-' inside an exponent is also valid; simplest to let
        // f64::from_str be the arbiter of the digit shape.
        while matches!(self.peek(), Some(b'-' | b'0'..=b'9' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => {
                self.pos = start;
                self.err("invalid number")
            }
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Escapes a string for embedding in a JSON string literal — the one
/// escaper the workspace has, re-exported from the telemetry crate (whose
/// exporters need it too) under the path this crate's callers use.
pub use xclean_telemetry::json_escape as escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"query": "helth insurance", "k": 5}"#).unwrap();
        assert_eq!(v.get("query").unwrap().as_str(), Some("helth insurance"));
        assert_eq!(v.get("k").unwrap().as_u64(), Some(5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_arrays_and_nesting() {
        let v = parse(r#"{"queries": ["a b", "c"], "deep": {"x": [1, 2.5, -3]}}"#).unwrap();
        let qs = v.get("queries").unwrap().as_array().unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].as_str(), Some("a b"));
        let nums = v.get("deep").unwrap().get("x").unwrap().as_array().unwrap();
        assert_eq!(nums[1], Json::Num(2.5));
        assert_eq!(nums[2], Json::Num(-3.0));
    }

    #[test]
    fn parses_literals_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(
            parse(r#""a\"b\\c\nd\u0041""#).unwrap(),
            Json::Str("a\"b\\c\ndA".to_string())
        );
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(
            parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "[1 2]",
            r#""unterminated"#,
            "tru",
            "01x",
            "nan",
            r#"{"a":1} extra"#,
            "\"\\ud834\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        // At the allowed depth it still parses.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f𝄞";
        let parsed = parse(&format!("\"{}\"", escape(nasty))).unwrap();
        assert_eq!(parsed, Json::Str(nasty.to_string()));
    }
}
