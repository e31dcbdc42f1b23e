//! Hand-rolled, zero-dependency JSON: an ordered value tree, a strict
//! parser and a compact single-line writer.
//!
//! The serve protocol is newline-delimited JSON over TCP, so every
//! encoded value must fit one line — [`Json::to_line`] never emits a
//! raw newline (control characters are escaped). Object members keep
//! their insertion order, which is what makes the machine-readable CLI
//! output (`--format json`) byte-stable and golden-testable.
//!
//! The same module backs both sides of the wire: the daemon encodes
//! events with it, the bundled client and the test suites decode them
//! with it, and the CLI satellite reuses the result-object builders in
//! [`crate::ops`] on top of it.

use std::fmt;

/// A JSON value. Objects preserve member insertion order (a `Vec` of
/// pairs, not a map) so encodings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is a mathematical integer in `i64` range.
    Int(i64),
    /// Any other finite number. Non-finite floats encode as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(members: I) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Builds a number from any integer (values beyond `i64`
    /// saturate).
    #[must_use]
    pub fn int(n: impl TryInto<i64>) -> Json {
        Json::Int(n.try_into().unwrap_or(i64::MAX))
    }

    /// Builds a number from a `u128`: an [`Json::Int`] when it fits
    /// `i64`, otherwise the decimal digits as a string (schedule
    /// counts reach far past any JSON number).
    #[must_use]
    pub fn u128(n: u128) -> Json {
        match i64::try_from(n) {
            Ok(v) => Json::Int(v),
            Err(_) => Json::Str(n.to_string()),
        }
    }

    /// Member `key` of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a float: floats directly, integers
    /// widened (statistical knobs like `epsilon` accept both `0.05`
    /// and a bare `1`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encodes the value compactly on a single line (no raw newlines:
    /// control characters are escaped).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) if v.is_finite() => out.push_str(&format_float(*v)),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

    /// Parses one JSON value from `input`, requiring nothing but
    /// whitespace after it.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first
    /// offending character.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

/// Formats a finite float so that it round-trips as a JSON number
/// (always with a fractional part or exponent, never `NaN`).
fn format_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Writes `s` as a JSON string literal, quotes included.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest: the parser recurses once
/// per level, and protocol requests nest two levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected `[`")?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected `{`")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected `\"`")?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            // combine a UTF-16 surrogate pair when the
                            // next escape supplies the low half
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // copy the run up to the next `"`, `\` or control
                    // byte straight from the input: the delimiters are
                    // ASCII, so the run ends on a char boundary
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            fractional = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_compact_single_line() {
        let value = Json::obj([
            ("id", Json::str("r1")),
            ("n", Json::Int(42)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("f", Json::Float(1.5)),
        ]);
        assert_eq!(
            value.to_line(),
            r#"{"id":"r1","n":42,"ok":true,"xs":[1,null],"f":1.5}"#
        );
        assert!(!value.to_line().contains('\n'));
    }

    #[test]
    fn escapes_keep_everything_on_one_line() {
        let value = Json::obj([("s", Json::str("a\nb\t\"c\"\\d\u{1}"))]);
        let line = value.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("round-trips"), value);
    }

    #[test]
    fn parse_round_trips_nested_values() {
        for text in [
            "null",
            "true",
            "-17",
            "3.25",
            r#""héllo \u00e9 \ud83d\ude00""#,
            r#""日本語→ü😀""#,
            r#""é\"ü\\😀\n→""#,
            r#""\"\\""#,
            r#"[1,[2,{"k":"v"}],null]"#,
            r#"{"a":{"b":[false]},"c":""}"#,
        ] {
            let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let reparsed = Json::parse(&parsed.to_line()).expect("re-parses");
            assert_eq!(parsed, reparsed, "{text}");
        }
    }

    #[test]
    fn multibyte_runs_and_adjacent_escapes_decode() {
        for (text, want) in [
            (r#""日本語""#, "日本語"),
            (r#""é\"ü""#, "é\"ü"),
            (r#""😀\\😀""#, "😀\\😀"),
            (r#""\n→\t""#, "\n→\t"),
            (r#""→é→""#, "→é→"),
            (r#""ab\"""#, "ab\""),
            (r#""""#, ""),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::str(want)), "{text}");
        }
        // a raw control byte right after a multibyte run is rejected at
        // its own offset
        let err = Json::parse("\"é\u{1}\"").expect_err("raw control byte");
        assert_eq!(err.offset, 3);
        assert!(Json::parse("\"é").is_err(), "unterminated after a run");
    }

    #[test]
    fn a_256_kib_spec_request_parses_in_linear_time() {
        // every chunk mixes ASCII, multibyte text and escaped characters
        let chunk = "constraint c = alternates(a, b); // é→😀 \"q\" \\ \n";
        let spec = chunk.repeat((256 << 10) / chunk.len() + 1);
        let line = Json::obj([
            ("id", Json::str("big")),
            ("method", Json::str("lint")),
            ("spec", Json::str(&spec)),
        ])
        .to_line();
        let started = std::time::Instant::now();
        let request = crate::protocol::Request::parse(&line).expect("parses");
        assert_eq!(request.spec.as_deref(), Some(spec.as_str()));
        let again = Json::parse(&line).expect("parses").to_line();
        assert_eq!(again, line, "round-trips byte for byte");
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 0.5, "took {took:?}");
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(Json::parse("7"), Ok(Json::Int(7)));
        assert_eq!(Json::parse("7.0"), Ok(Json::Float(7.0)));
        assert_eq!(Json::parse("1e2"), Ok(Json::Float(100.0)));
        // i64 overflow falls back to float
        assert!(matches!(
            Json::parse("99999999999999999999"),
            Ok(Json::Float(_))
        ));
        // floats always re-encode with a fractional marker
        assert_eq!(Json::Float(7.0).to_line(), "7.0");
    }

    #[test]
    fn u128_saturation_uses_strings_past_i64() {
        assert_eq!(Json::u128(5), Json::Int(5));
        assert_eq!(Json::u128(u128::MAX), Json::Str(u128::MAX.to_string()));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").expect_err("bad value");
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("18 trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let err = Json::parse(&"[".repeat(200_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let err = Json::parse(&format!("{}1", r#"{"a":"#.repeat(200_000))).expect_err("too deep");
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn accessors_select_members() {
        let value =
            Json::parse(r#"{"id":"r1","n":3,"ok":false,"xs":[1],"f":2.5}"#).expect("parses");
        assert_eq!(value.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(value.get("n").and_then(Json::as_i64), Some(3));
        assert_eq!(value.get("f").and_then(Json::as_f64), Some(2.5));
        // integers widen through the float accessor, strings do not
        assert_eq!(value.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(value.get("id").and_then(Json::as_f64), None);
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            value.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
