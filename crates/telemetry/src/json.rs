//! Minimal JSON value, parser, and writer.
//!
//! The workspace builds offline (no serde), so every JSON document it
//! writes — figures, observations, the archive manifest, telemetry
//! snapshots, Chrome traces, explorer and ops pages, the `fork-load`
//! report — is built as a [`Value`] and rendered here, in one of two
//! layouts: [`Value::to_json`] (compact) or [`Value::to_json_pretty`].
//! Objects preserve insertion order. Integer literals parse to
//! [`Value::Int`] and write back exactly across the whole `i64` and `u64`
//! ranges; every other number is an `f64` written in its shortest
//! round-trip form, so rendering a parsed document in the layout it was
//! written in reproduces its bytes.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, exact across the `i64` and `u64` ranges.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// Deepest array/object nesting [`Value::parse`] accepts. Far above what
/// any document in the workspace nests; it bounds the parser's recursion
/// so a hostile file is a [`ParseError`], not a stack overflow.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses a JSON document (rejects trailing garbage and nesting deeper
    /// than 128 arrays/objects).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>, V: Into<Value>>(fields: impl IntoIterator<Item = (K, V)>) -> Value {
        let fields = fields.into_iter().map(|(k, v)| (k.into(), v.into()));
        Value::Obj(fields.collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number (integers beyond 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int()?.try_into().ok()
    }

    /// Numeric payload as `i64`, if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_int()?.try_into().ok()
    }

    /// An integer literal, or an integral `f64` small enough to be exact.
    fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i128),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Indented multi-line rendering.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }
}

/// Structural equality, except that numbers compare by value: `Int(42)`
/// equals `Num(42.0)`, since `42` and `42.0` are the same JSON number.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Int(i), Value::Num(n)) | (Value::Num(n), Value::Int(i)) => {
                n.fract() == 0.0 && *n as i128 == *i
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

macro_rules! impl_from {
    ($($t:ty => |$x:ident| $e:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $e
            }
        }
    )*};
}

impl_from! {
    u16 => |n| Value::Int(n.into());
    u32 => |n| Value::Int(n.into());
    u64 => |n| Value::Int(n.into());
    usize => |n| Value::Int(n as i128);
    i64 => |n| Value::Int(n.into());
    f64 => |n| Value::Num(n);
    bool => |b| Value::Bool(b);
    &str => |s| Value::Str(s.to_string());
    String => |s| Value::Str(s);
}

/// `value["key"]` — returns `Null` for missing keys / non-objects.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[0]` — returns `Null` for out-of-range / non-arrays.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        self.at(index).unwrap_or(&NULL)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl ParseError {
    fn at(offset: usize, message: &'static str) -> Self {
        ParseError { offset, message }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Quotes and escapes a string for JSON output (includes the quotes).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    } else {
        out.push_str("null");
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Num(n) => write_num(out, *n),
        Value::Str(s) => out.push_str(&quote(s)),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                out.push_str(&quote(key));
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::at(*pos, "nesting too deep")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid number"))?;
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i128>() {
            return Ok(Value::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| ParseError::at(start, "invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| ParseError::at(*pos, "invalid utf-8"));
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::at(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement character.
                        let c = char::from_u32(code).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err(ParseError::at(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
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
            return Err(ParseError::at(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(ParseError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let value = Value::Obj(vec![
            ("id".into(), Value::Str("fig1".into())),
            ("n".into(), Value::Num(42.0)),
            ("ratio".into(), Value::Num(0.5)),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "points".into(),
                Value::Arr(vec![
                    Value::Arr(vec![Value::Num(10.0), Value::Num(1.5)]),
                    Value::Arr(vec![Value::Num(20.0), Value::Num(-3.0)]),
                ]),
            ),
        ]);
        let compact = value.to_json();
        assert!(compact.contains("\"id\":\"fig1\""));
        assert!(compact.contains("\"n\":42"));
        assert_eq!(Value::parse(&compact).unwrap(), value);
        let pretty = value.to_json_pretty();
        assert!(pretty.contains("\"id\": \"fig1\""));
        assert_eq!(Value::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn indexing_and_accessors() {
        let v = Value::parse(r#"[{"label":"ETH","points":[[10,0.5]]}]"#).unwrap();
        assert_eq!(v[0]["label"].as_str(), Some("ETH"));
        assert_eq!(v[0]["points"][0][0].as_u64(), Some(10));
        assert_eq!(v[0]["points"][0][1].as_f64(), Some(0.5));
        assert_eq!(v[0]["missing"], Value::Null);
        assert_eq!(v[9], Value::Null);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let json = quote(original);
        let parsed = Value::parse(&json).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,2,]").is_err());
        assert!(Value::parse("123 456").is_err());
        let err = Value::parse("nope").unwrap_err();
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn numbers_parse_exactly() {
        let v = Value::parse("[0, -7, 3.25, 1e3, 9007199254740991]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(0));
        assert_eq!(items[1].as_f64(), Some(-7.0));
        assert_eq!(items[2].as_f64(), Some(3.25));
        assert_eq!(items[3].as_f64(), Some(1000.0));
        assert_eq!(items[4].as_u64(), Some((1u64 << 53) - 1));
    }

    #[test]
    fn integers_are_exact_across_the_i64_and_u64_ranges() {
        for n in [(1u64 << 53) + 1, 1 << 60, u64::MAX] {
            let text = Value::from(n).to_json();
            assert_eq!(text, n.to_string());
            assert_eq!(Value::parse(&text).unwrap().as_u64(), Some(n));
        }
        let text = Value::from(i64::MIN).to_json();
        assert_eq!(Value::parse(&text).unwrap().as_i64(), Some(i64::MIN));
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Value::parse("1.5").unwrap().as_i64(), None);
        // An integer literal and an integral float are one JSON number.
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_ne!(Value::parse("42").unwrap(), Value::Num(42.5));
    }

    #[test]
    fn rendering_a_parsed_document_reproduces_its_bytes() {
        let value = Value::obj([
            ("big", Value::from(u64::MAX)),
            ("neg", Value::from(i64::MIN)),
            ("tiny", Value::Num(1e-7)),
            ("huge", Value::Num(1e300)),
            ("third", Value::Num(1.0 / 3.0)),
            ("whole", Value::Num(-3.0)),
            ("esc", Value::from("a\"b\\c\u{1}")),
            ("empty", Value::Obj(Vec::new())),
            ("list", Value::Arr(vec![1u64.into(), Value::Null])),
        ]);
        for text in [value.to_json(), value.to_json_pretty()] {
            let parsed = Value::parse(&text).unwrap();
            assert_eq!(parsed, value);
            let rerendered = if text.ends_with('\n') {
                parsed.to_json_pretty()
            } else {
                parsed.to_json()
            };
            assert_eq!(rerendered, text);
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let deep = open.repeat(100_000);
            let err = Value::parse(&deep).unwrap_err();
            assert_eq!(err.message, "nesting too deep");
        }
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(Value::parse(&over).is_err());
    }
}
