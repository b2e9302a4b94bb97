//! A minimal JSON value type with a deterministic writer and a strict
//! parser.
//!
//! The store persists run records as JSON and must (a) produce
//! *byte-identical* output for identical values — cache hits are diffed
//! against fresh runs — and (b) never panic on the bytes it reads back,
//! because a cache entry may be truncated, garbled, or written by a
//! future schema. The workspace has no network access to crates.io, so
//! this is a small hand-rolled implementation of exactly the subset the
//! store needs: objects keep insertion order (the writer emits fields in
//! the order the encoder pushed them, making serialization a pure
//! function of the value), and numbers distinguish unsigned/signed
//! integers from floats so `u64` seeds round-trip exactly.

/// A JSON number. `u64`/`i64` are kept exact (an `f64` cannot represent
/// every 64-bit seed); floats print via Rust's shortest-roundtrip `{}`
/// formatting, which re-parses to the identical bit pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Everything else.
    F(f64),
}

impl Number {
    /// Lossy view as `f64` (exact for small integers).
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    /// Exact `u64` view, if the number is a non-negative integer.
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(_) => None,
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any numeric literal.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Field order is preserved (insertion order when built,
    /// document order when parsed) so writing is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an unsigned integer.
    pub fn uint(v: u64) -> Json {
        Json::Num(Number::U(v))
    }

    /// Convenience constructor for a float.
    pub fn float(v: f64) -> Json {
        Json::Num(Number::F(v))
    }

    /// Convenience constructor for a string.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Numeric view (lossy for huge integers).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Number::U(v)) => out.push_str(&v.to_string()),
            Json::Num(Number::I(v)) => out.push_str(&v.to_string()),
            Json::Num(Number::F(v)) => {
                if v.is_finite() {
                    // Shortest representation that round-trips exactly.
                    out.push_str(&v.to_string());
                } else {
                    // JSON has no NaN/Inf; scores are clamped to [0, 1] so
                    // this only fires on corrupted inputs. `null` keeps the
                    // document valid and fails record validation on read.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document. Trailing non-whitespace is an
    /// error; the parser never panics, recursion is depth-limited.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Compact single-line JSON. Deterministic: the same value always
/// produces the same bytes (so `to_string()` is stable too).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8 in number")?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Num(Number::U(v)));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::Num(Number::I(v)));
        }
    }
    text.parse::<f64>()
        .map(|v| Json::Num(Number::F(v)))
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed for the store's
                        // ASCII-dominated records; reject rather than
                        // silently mangle.
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err("bad escape sequence".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // piece. Both are ASCII, so the run ends on a character
                // boundary of the `&str` the bytes came from, and each
                // byte is validated once.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let text = std::str::from_utf8(&bytes[*pos..run])
                    .map_err(|_| "invalid utf-8 in string")?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "0.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        let seed = u64::MAX - 3;
        let v = Json::parse(&seed.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(seed));
        assert_eq!(v.to_string(), seed.to_string());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MIN_POSITIVE] {
            let text = Json::float(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn strings_mix_plain_runs_escapes_and_multibyte_characters() {
        let text = r#""a\"b\\c\u00e9 ∑ x\ny\t""#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cé ∑ x\ny\t"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse("\"\"").unwrap().as_str(), Some(""));
        for bad in ["\"abc", "\"ab ∑", "\"é"] {
            assert_eq!(Json::parse(bad), Err("unterminated string".into()), "{bad}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::float(f64::NAN).to_string(), "null");
        assert_eq!(Json::float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = Json::Obj(vec![
            ("z".into(), Json::uint(1)),
            ("a".into(), Json::uint(2)),
        ]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let text = Json::str(s).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn nested_structures_parse() {
        let text = "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]}}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "nul",
            "1.2.3",
            "--5",
            "{\"a\":1}x",
            "[1 2]",
            "\u{0}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let text = format!("{}{}", "[".repeat(500), "]".repeat(500));
        assert!(Json::parse(&text).is_err());
    }

    #[test]
    fn whitespace_tolerant_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), "{\"a\":[1,2]}");
    }
}
