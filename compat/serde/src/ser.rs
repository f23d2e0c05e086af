//! The JSON writer every [`Serialize`](crate::Serialize) impl writes through.

use crate::Error;
use std::fmt::Write;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A JSON writer into one `String`, compact or indented by two spaces.
///
/// A value is written by one call (`null`, `bool`, `u64`, `i64`, `f64`,
/// `str`) or by a container sequence: `begin_array`, then `element` before
/// each item, then `end_array`; `begin_object`, then `key` before each
/// value, then `end_object`. Objects keep the order keys are written in.
///
/// Output matches upstream `serde_json`: floats print in Rust's shortest
/// round-trip form with a `.0` marker when integral, so they re-parse as
/// floats. A non-finite float is an error; the writer keeps the first error
/// and [`finish`](Serializer::finish) returns it in place of the text.
#[derive(Debug)]
pub struct Serializer {
    out: String,
    pretty: bool,
    depth: usize,
    error: Option<Error>,
}

impl Serializer {
    /// A writer of compact JSON (no whitespace).
    pub fn compact() -> Self {
        Serializer {
            out: String::new(),
            pretty: false,
            depth: 0,
            error: None,
        }
    }

    /// A writer of JSON indented by two spaces per level.
    pub fn pretty() -> Self {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The written text, or the first error met while writing it.
    pub fn finish(self) -> Result<String, Error> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }

    /// Write `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Write an unsigned integer.
    #[inline]
    pub fn u64(&mut self, u: u64) {
        write!(self.out, "{u}").expect("writing to a String cannot fail");
    }

    /// Write a signed integer.
    #[inline]
    pub fn i64(&mut self, i: i64) {
        write!(self.out, "{i}").expect("writing to a String cannot fail");
    }

    /// Write a float; a non-finite one is an error.
    #[inline]
    pub fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            self.fail(format!("cannot serialize non-finite float {f}"));
            return;
        }
        // `Display` never uses exponent form, so an integral float prints as
        // bare digits; the `.0` keeps it a float when it is parsed back.
        write!(self.out, "{f}").expect("writing to a String cannot fail");
        if f.trunc() == f {
            self.out.push_str(".0");
        }
    }

    /// Write a string, escaped.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        // Copy the runs between escapes whole. Every escaped byte is ASCII,
        // so each run starts and ends on a char boundary.
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                0x08 => self.out.push_str("\\b"),
                0x0c => self.out.push_str("\\f"),
                _ => {
                    self.out.push_str("\\u00");
                    self.out.push(HEX[(b >> 4) as usize] as char);
                    self.out.push(HEX[(b & 0xf) as usize] as char);
                }
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Open an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.out.push('[');
        self.depth += 1;
    }

    /// Start the next array item.
    #[inline]
    pub fn element(&mut self) {
        self.separate(b'[');
    }

    /// Close the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b'[', ']');
    }

    /// Open an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.out.push('{');
        self.depth += 1;
    }

    /// Write the next object key; its value follows.
    #[inline]
    pub fn key(&mut self, k: &str) {
        self.separate(b'{');
        self.str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'{', '}');
    }

    /// A comma unless the container `open` was just opened, then the
    /// item's line break.
    #[inline]
    fn separate(&mut self, open: u8) {
        // An item always ends in a byte other than its container's opener
        // (a nested container is closed before the next item), so the last
        // byte tells whether this is the first item.
        if self.out.as_bytes().last() != Some(&open) {
            self.out.push(',');
        }
        self.newline();
    }

    #[inline]
    fn close(&mut self, open: u8, close: char) {
        self.depth -= 1;
        if self.out.as_bytes().last() != Some(&open) {
            self.newline();
        }
        self.out.push(close);
    }

    #[inline]
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(Error::custom(message));
    }
}
