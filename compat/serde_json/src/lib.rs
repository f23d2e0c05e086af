//! Offline JSON front-end for the in-tree serde compatibility layer:
//! `to_string`, `to_string_pretty`, `to_value`, `from_value` and `from_str`
//! over [`serde::Value`] trees.
//!
//! Output matches upstream `serde_json` closely enough for the workspace's
//! JSONL logs: objects keep field order, floats print in Rust's shortest
//! round-trip form with a `.0` marker when integral, and parsing floats uses
//! `str::parse::<f64>` (correctly rounded, i.e. `float_roundtrip` behaviour).

#![warn(missing_docs)]

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// `Result` alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to a value tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstruct a typed value from a value tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value).map_err(Error::from)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serialize to a 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Parse a typed value from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

// ---------------------------------------------------------------- printer --

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(out: &mut String, f: f64) -> std::result::Result<(), Error> {
    if !f.is_finite() {
        return Err(Error(format!("cannot serialize non-finite float {f}")));
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep float-ness visible so the value re-parses as a float.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_value(
    out: &mut String,
    v: &Value,
    indent: Option<usize>,
    depth: usize,
) -> std::result::Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f)?,
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

// ----------------------------------------------------------------- parser --

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> std::result::Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse(&mut self) -> std::result::Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn parse_string(&mut self) -> std::result::Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or escape in one go.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    s.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> std::result::Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> std::result::Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(digits) = text.strip_prefix('-') {
                if let Ok(i) = digits.parse::<u64>() {
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parse JSON text into a value tree.
pub fn parse_value(text: &str) -> Result<Value> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "42", "-17", "\"hi\""] {
            let v: Value = parse_value(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text);
        }
    }

    #[test]
    fn floats_keep_roundtrip_precision() {
        for f in [0.1, 1.0 / 3.0, 6.02e23, -1e-12, 10.0, f64::MAX] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, f, "{s}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let s = to_string(&10.0f64).unwrap();
        assert_eq!(s, "10.0");
        assert_eq!(parse_value(&s).unwrap(), Value::Float(10.0));
    }

    #[test]
    fn non_finite_floats_error() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "a\"b\\c\nd\te\u{8}\u{c}\r \u{1} é 💡";
        let json = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        let v: String = from_str("\"\\u00e9 \\ud83d\\udca1\"").unwrap();
        assert_eq!(v, "é 💡");
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for text in [
            "\"\\ud800\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\ud800\\ue000\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
        ] {
            assert!(from_str::<String>(text).is_err(), "{text}");
        }
        let v: String = from_str("\"\\udbff\\udfff\"").unwrap();
        assert_eq!(v, "\u{10FFFF}");
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Plain runs are copied whole; escapes, multi-byte characters and
        // raw control characters between them are all kept.
        let long = "é💡x".repeat(200_000);
        let json = format!("\"{long}\\n\u{1}{long}\"");
        let v: String = from_str(&json).unwrap();
        assert_eq!(v, format!("{long}\n\u{1}{long}"));
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"b":1,"a":2}"#;
        let v = parse_value(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }

    #[test]
    fn pretty_printer_indents() {
        let v = parse_value(r#"{"a":[1,2],"b":{}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<Option<(u32, f64)>> = vec![Some((1, 2.5)), None];
        let s = to_string(&v).unwrap();
        let back: Vec<Option<(u32, f64)>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["{", "[1,", "\"abc", "{\"a\" 1}", "01x", "[1] tail"] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
        }
    }
}
