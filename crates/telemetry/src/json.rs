//! The workspace's one JSON codec: the [`Json`] value, the strict
//! [`parse`]r, the string [`escape`]r and the printer
//! ([`Json::render`] / [`Json::render_pretty`]).
//!
//! It lives in the telemetry crate because every consumer already links
//! it and it has no dependencies of its own (DESIGN.md §10). The parser
//! is strict (RFC 8259 grammar: no trailing garbage, comments, trailing
//! commas, leading zeros or bare fraction/exponent markers),
//! depth-limited so a hostile body cannot overflow the stack, linear in
//! the input length, and handles the full string escape set including
//! surrogate pairs.
//!
//! Every JSON text the workspace writes is a [`Json`] value printed
//! here: response bodies and error replies, `/debug/*` and `/healthz`,
//! slow-log lines, `--metrics-json`, both Chrome traces, CLI `--json`,
//! experiment dumps and the load generator's report. The one exception is
//! the server's batch envelope, which concatenates result objects the
//! response cache stores already printed. The printer writes escapes and
//! numbers straight into its output buffer, and literal object keys are
//! borrowed, so building and printing the per-request result body costs
//! a few microseconds (DESIGN.md §10).

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser: a value enclosed by more
/// than this many arrays/objects is rejected. Request bodies are flat
/// objects; 32 leaves generous room without risking deep recursion.
pub const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A float, and every number [`parse`] reads (stored as `f64`, like
    /// JavaScript).
    Num(f64),
    /// A built unsigned integer, printed exactly — an `f64` keeps only 53
    /// bits. [`parse`] never yields one; [`Json::as_u64`] and
    /// [`Json::as_f64`] answer for both number variants.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion (document) order; a duplicate key
    /// stays in the list and [`Json::get`] answers with the last one.
    /// Literal keys are borrowed; parsed and computed keys are owned.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An object from `(key, value)` pairs, kept in the order given.
    /// Keys are `&'static str` literals or owned `String`s.
    pub fn object<K: Into<Cow<'static, str>>>(
        members: impl IntoIterator<Item = (K, Json)>,
    ) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects (the last of duplicate keys); `None`
    /// elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer: any [`Json::Int`], or a
    /// [`Json::Num`] that is a whole number below 2^64 (which
    /// `u64::MAX as f64` rounds up to, hence `<`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Compact JSON: no whitespace between tokens.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(None, 0, &mut out);
        out
    }

    /// Human-readable JSON: one member or item per line, two-space
    /// indent, `": "` after keys, `{}` / `[]` for empty containers.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(Some(2), 0, &mut out);
        out
    }

    fn write(&self, indent: Option<usize>, depth: usize, out: &mut String) {
        let newline = |depth: usize, out: &mut String| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', depth * width));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest decimal that round-trips: whole numbers print
            // without a fraction and `-0.0` as `-0`. NaN and the
            // infinities, which JSON cannot express, print as `null`
            // (γ-eviction estimates can legitimately be `-inf`).
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("String write"),
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => write!(out, "{n}").expect("String write"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(depth + 1, out);
                    item.write(indent, depth + 1, out);
                }
                newline(depth, out);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(depth + 1, out);
                    write_string(key, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(indent, depth + 1, out);
                }
                newline(depth, out);
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    write_escaped(s, out);
    out.push('"');
}

/// Appends `s` escaped for a JSON string literal, copying the runs
/// between escapes in one piece. Every escaped character is ASCII, so a
/// run never ends inside a multi-byte scalar.
fn write_escaped(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{:04x}", b).expect("String write"),
        }
    }
    out.push_str(&s[run..]);
}

/// Escapes a string for embedding in a JSON string literal — what the
/// printer writes between the quotes of every string and key.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(s, &mut out);
    out
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

macro_rules! json_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as u64)
            }
        }
    )*};
}

json_from_unsigned!(u16, u32, u64, usize);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

/// Collects items into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// `value["key"]`: the member, or `null` when absent or not an object.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`: the item, or `null` when out of range or not an array.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
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
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Steps over the next byte if it is one of `set`.
    fn skip(&mut self, set: &[u8]) -> bool {
        let found = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while self.skip(b" \t\n\r") {}
    }

    fn eat_literal(&mut self, lit: &str, message: &'static str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
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
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', "expected ',' or '}'", |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat_literal(":", "expected ':'")?;
                    members.push((key.into(), p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', "expected ',' or ']'", |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        self.eat_literal(text, "invalid literal")?;
        Ok(value)
    }

    /// The inside of an array or object: `close`, or comma-separated
    /// `item`s and then `close`. `pos` is on the opening bracket.
    fn sequence(
        &mut self,
        close: u8,
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.skip(&[close]) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.skip(&[close]) {
                return Ok(());
            }
            if !self.skip(b",") {
                return self.err(expected);
            }
        }
    }

    /// Exactly four hex digits (`from_str_radix` alone would take a sign).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return self.err("invalid \\u escape");
        }
        let hex = &self.text[self.pos..self.pos + 4];
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat_literal("\"", "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. All three are ASCII, so they never fall
            // inside a multi-byte scalar and the slice ends on a char
            // boundary; each input byte is visited once.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape_sequence()?);
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }

    /// The character a backslash escape stands for; `pos` is just past
    /// the backslash on entry and past the whole escape on return.
    fn escape_sequence(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
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
                } else {
                    hi
                };
                // `from_u32` refuses exactly the lone low surrogates.
                return match char::from_u32(cp) {
                    Some(c) => Ok(c),
                    None => self.err("lone low surrogate"),
                };
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.skip(b"0123456789") {}
        self.pos - start
    }

    /// RFC 8259 `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// The grammar is checked here because `f64::from_str` is laxer
    /// (`1.`, `1.e3`, `.5`, `+1`, `inf`); it only converts.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.skip(b"-");
        let mut grammatical = if self.skip(b"0") {
            // A leading zero is the whole integer part.
            !matches!(self.peek(), Some(b'0'..=b'9'))
        } else {
            self.digits() > 0
        };
        if self.skip(b".") {
            grammatical &= self.digits() > 0;
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            grammatical &= self.digits() > 0;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if grammatical && n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: "invalid number",
            }),
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

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
        let v = parse(r#"{"queries": ["a b", "c"], "deep": {"x": [1, 2.5e2, -3, 0]}}"#).unwrap();
        let qs = v.get("queries").unwrap().as_array().unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].as_str(), Some("a b"));
        let nums = v.get("deep").unwrap().get("x").unwrap().as_array().unwrap();
        assert_eq!(nums[1], Json::Num(250.0));
        assert_eq!(nums[2], Json::Num(-3.0));
        assert_eq!(nums[2].as_u64(), None);
        assert_eq!(nums[3].as_u64(), Some(0));
    }

    #[test]
    fn parses_literals_and_escapes() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(
            parse(r#""a\"b\\c\nd\u0041\/\b\f\r\t""#).unwrap(),
            Json::Str("a\"b\\c\ndA/\u{8}\u{c}\r\t".to_string())
        );
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(
            parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
        // Raw multi-byte text passes through untouched.
        assert_eq!(parse(r#"{"s": "a\nbé😀"}"#).unwrap()["s"], "a\nbé😀");
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
            "\"\\udd1e\"",
            "\"\\ud834\\u0041\"",
            "\"\\q\"",
            "\"a\u{1}b\"",
            // A sign is not a hex digit.
            "\"\\u+041\"",
            "\"\\u00\"",
            // RFC 8259's number grammar, not `f64::from_str`'s.
            "01",
            "-01",
            "1.",
            "1.e3",
            ".5",
            "-",
            "+1",
            "1e",
            "1e+",
            "-inf",
            "1e999",
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

    #[test]
    fn as_u64_takes_whole_numbers_that_fit() {
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18446744073709549568)
        );
        // 2^64 is one past `u64::MAX`; a saturating cast would hide that.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"1\"").unwrap().as_u64(), None);
    }

    #[test]
    fn objects_keep_document_order_and_get_answers_the_last_duplicate() {
        let v = parse(r#"{"b": 1, "a": 2, "b": 3}"#).unwrap();
        let Json::Obj(members) = &v else {
            panic!("{v:?}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b"), Some(&Json::Num(3.0)));
        assert_eq!(v.render(), r#"{"b":1,"a":2,"b":3}"#);
    }

    #[test]
    fn index_and_eq_sugar() {
        let v = Json::object([
            ("name", "xclean".into()),
            ("k", 10u32.into()),
            ("scores", [1.5, 2.0].into_iter().collect()),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(v["name"], "xclean");
        assert_eq!(v["k"].as_u64(), Some(10));
        assert_eq!(v["scores"][1].as_f64(), Some(2.0));
        assert_eq!(v["ok"], Json::Bool(true));
        // Misses of every kind read as null rather than panicking.
        assert_eq!(v["missing"], Json::Null);
        assert_eq!(v["scores"][9], Json::Null);
        assert_eq!(v["name"]["x"][0], Json::Null);
    }

    fn sample() -> Json {
        Json::object([
            ("query", "health \"insurance\"\n".into()),
            ("k", 10u64.into()),
            ("scores", [1.5, -3.0].into_iter().collect()),
            ("nested", Json::object([("empty", Json::Arr(Vec::new()))])),
            ("none", Json::Null),
            ("no_members", Json::Obj(Vec::new())),
        ])
    }

    #[test]
    fn compact_output_has_no_spaces() {
        assert_eq!(
            sample().render(),
            r#"{"query":"health \"insurance\"\n","k":10,"scores":[1.5,-3],"nested":{"empty":[]},"none":null,"no_members":{}}"#
        );
    }

    #[test]
    fn pretty_output_is_two_space_indented_with_bare_empties() {
        let expected = r#"{
  "query": "health \"insurance\"\n",
  "k": 10,
  "scores": [
    1.5,
    -3
  ],
  "nested": {
    "empty": []
  },
  "none": null,
  "no_members": {}
}"#;
        assert_eq!(sample().render_pretty(), expected);
        assert_eq!(Json::Arr(Vec::new()).render_pretty(), "[]");
        assert_eq!(Json::Obj(Vec::new()).render_pretty(), "{}");
    }

    #[test]
    fn both_renderings_round_trip_through_parse() {
        let v = sample();
        for text in [v.render(), v.render_pretty()] {
            let parsed = parse(&text).unwrap();
            // The built `Int` reads back as a `Num`; the text is the same.
            assert_eq!(parsed["k"], Json::Num(10.0));
            assert_eq!(parsed.render(), v.render());
        }
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(n).render(), "null");
            assert_eq!(Json::from(Some(n)).render(), "null");
        }
        assert_eq!(Json::from(None::<f64>), Json::Null);
    }

    /// Built integers used to go through `f64`: `u64::MAX` printed as
    /// `18446744073709552000` and 2^53 + 1 as `9007199254740992`.
    #[test]
    fn built_integers_print_exactly() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = Json::from(n).render();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::from(n).as_u64(), Some(n));
            // The parser reads every number as `Num`; the text converts
            // to the nearest `f64` as the integer itself does.
            assert_eq!(parse(&text), Ok(Json::Num(n as f64)));
        }
        assert_eq!(Json::from(7u16), Json::Int(7));
        assert_eq!(Json::from(7usize).as_f64(), Some(7.0));
        assert_eq!(
            Json::object([("n", u64::MAX.into())]).render(),
            r#"{"n":18446744073709551615}"#
        );
    }

    #[test]
    fn escape_writes_every_class_in_place() {
        assert_eq!(escape("a\"b\\c\nd\re\tf"), r#"a\"b\\c\nd\re\tf"#);
        assert_eq!(escape("\u{1}\u{1f}"), r"\u0001\u001f");
        assert_eq!(escape("plain é😀"), "plain é😀");
        assert_eq!(escape(""), "");
        assert_eq!(Json::from("\"é\u{1}").render(), r#""\"é\u0001""#);
    }

    #[test]
    fn whole_numbers_print_without_a_fraction() {
        for (n, text) in [
            (0.0, "0"),
            (-3.0, "-3"),
            (16.0, "16"),
            (9_007_199_254_740_991.0, "9007199254740991"),
            (1e21, "1000000000000000000000"),
            (-9.678139209830789, "-9.678139209830789"),
            (0.1, "0.1"),
            (1e-7, "0.0000001"),
            // The sign of zero survives (the response writer's behaviour;
            // the integer fast path of the old off-path printer lost it).
            (-0.0, "-0"),
        ] {
            assert_eq!(Json::Num(n).render(), text);
            assert_eq!(parse(text).unwrap(), Json::Num(n), "{text}");
        }
    }

    /// `Parser::string` used to re-validate the whole remaining input per
    /// character: a 1 MiB string took 18 s in a release build.
    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let payload = "aé.".repeat((1 << 20) / 4);
        let doc = format!("{{\"query\": \"{payload}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(v["query"].as_str().map(str::len), Some(payload.len()));
        assert!(elapsed.as_secs() < 2, "took {elapsed:?}");
    }
}
