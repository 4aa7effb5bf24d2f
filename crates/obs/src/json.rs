//! Minimal JSON support: string escaping, float formatting, and a strict
//! recursive-descent parser used to validate exported traces.
//!
//! The parser exists so the CI smoke gate (`longsight trace-validate`) and the
//! integration tests can round-trip exporter output without any external JSON
//! dependency. It accepts exactly RFC 8259 JSON (no comments, no trailing
//! commas) and preserves object key order, which keeps validation of the
//! deterministic exporters itself deterministic.

/// A parsed JSON value. Object keys keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value; `None` for non-objects or misses.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array value; `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string value; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value; `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string with all required escapes.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Formats an `f64` for JSON output. Uses Rust's shortest round-trip
/// formatting (deterministic across platforms for the same bits); non-finite
/// values, which JSON cannot represent, become `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `format!("{}")` never prints an exponent for the magnitudes the
        // simulators produce, but guard anyway: exponents are valid JSON.
        s
    } else {
        "null".to_string()
    }
}

/// Parses a complete JSON document. Trailing whitespace is allowed; any other
/// trailing content is an error. Errors carry a byte offset for diagnostics.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos:?}", pos = *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("invalid number at byte {start}"));
    }
    if int_digits > 1 && bytes[int_start] == b'0' {
        return Err(format!("leading zero in number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("invalid fraction at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("invalid exponent at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pairs: a leading surrogate must be
                        // followed by `\uXXXX` with a trailing surrogate.
                        if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let lo = parse_hex4(bytes, *pos + 3)?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    *pos += 6;
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or("bad surrogate pair".to_string())?,
                                    );
                                } else {
                                    return Err("unpaired surrogate".to_string());
                                }
                            } else {
                                return Err("unpaired surrogate".to_string());
                            }
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err("unpaired surrogate".to_string());
                        } else {
                            out.push(char::from_u32(cp).ok_or("bad codepoint".to_string())?);
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(c) if *c < 0x20 => {
                return Err(format!("control byte in string at {pos}", pos = *pos));
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar, its length read from the leading
                // byte. The source is a &str, so the scalar is valid UTF-8;
                // decoding only its own bytes keeps the parse linear.
                let len = match lead {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let scalar = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 scalar")?;
                out.push_str(std::str::from_utf8(scalar).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    if at + 4 > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[at..at + 4]).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
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
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Value::Num(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_containers_in_order() {
        let v = parse(r#"{"b":[1,2,{"x":null}],"a":false}"#).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "\"\\q\"",
            "tru",
            "1 2",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote \" backslash \\ newline \n tab \t unicode \u{1F600} ctrl \u{1}";
        let mut enc = String::new();
        escape_into(&mut enc, s);
        assert_eq!(parse(&enc).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn string_heavy_document_parses_in_linear_time() {
        // Over 8 MB of strings mixing 1-, 2-, 3- and 4-byte scalars and
        // escapes: re-validating the remaining input for every character
        // would take on the order of an hour here.
        let piece = "trace \u{e9}v\u{e9}nement \u{2192} \u{1F600} \"q\" \\ tab\t ctrl\u{1} end\n";
        let long: String = piece.repeat(1 << 12);
        let texts: Vec<String> = (0..48).map(|i| format!("{i}:{long}")).collect();
        let mut doc = String::from("[");
        for (i, text) in texts.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            escape_into(&mut doc, text);
        }
        doc.push(']');
        assert!(doc.len() >= 8 << 20, "document is {} bytes", doc.len());
        let want = Value::Arr(texts.into_iter().map(Value::Str).collect());
        assert_eq!(parse(&doc).unwrap(), want);
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn fmt_f64_is_round_trip_clean() {
        for v in [0.0, 1.5, 1234567.875, 0.001953125, -42.0] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap(), v);
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }
}
