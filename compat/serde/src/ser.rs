//! The JSON writer every [`Serialize`](crate::Serialize) impl writes through.

use crate::num;
use crate::Error;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A JSON writer into one `String`, compact or indented by two spaces.
///
/// A value is written by one call (`null`, `bool`, `u64`, `i64`, `f64`,
/// `str`) or by a container sequence: `begin_array`, then `element` before
/// each item, then `end_array`; `begin_object`, then `key` (or `field`, for
/// a key that needs no escaping) before each value, then `end_object`.
/// Objects keep the order keys are written in.
///
/// Output matches upstream `serde_json`: floats print as `Display` prints
/// them (the shortest digits that read back to the same bits, never in
/// exponent form) with a `.0` marker when integral, so they re-parse as
/// floats. A non-finite float is an error; the writer keeps the first error
/// and [`finish`](Serializer::finish) returns it in place of the text.
#[derive(Debug)]
pub struct Serializer {
    /// Only ever extended by whole `str`s and ASCII bytes.
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    error: Option<Error>,
}

impl Serializer {
    /// A writer of compact JSON (no whitespace).
    pub fn compact() -> Self {
        Serializer {
            out: Vec::new(),
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
            None => Ok(String::from_utf8(self.out).expect("the writer appends only UTF-8")),
        }
    }

    /// Write `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Write `true` or `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Write an unsigned integer.
    #[inline]
    pub fn u64(&mut self, u: u64) {
        num::write_u64(&mut self.out, u);
    }

    /// Write a signed integer.
    #[inline]
    pub fn i64(&mut self, i: i64) {
        num::write_i64(&mut self.out, i);
    }

    /// Write a float; a non-finite one is an error.
    #[inline]
    pub fn f64(&mut self, f: f64) {
        if f.is_finite() {
            num::write_f64(&mut self.out, f);
        } else {
            let name = if f.is_nan() {
                "NaN"
            } else if f > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            self.fail(format!("cannot serialize non-finite float {name}"));
        }
    }

    /// Write a string, escaped.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        // Copy the runs between escapes whole. Every escaped byte is ASCII,
        // so each run starts and ends on a char boundary.
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            self.out.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                0x08 => self.out.extend_from_slice(b"\\b"),
                0x0c => self.out.extend_from_slice(b"\\f"),
                _ => {
                    self.out.extend_from_slice(b"\\u00");
                    self.out.push(HEX[(b >> 4) as usize]);
                    self.out.push(HEX[(b & 0xf) as usize]);
                }
            }
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Open an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
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
        self.close(b'[', b']');
    }

    /// Open an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.depth += 1;
    }

    /// Write the next object key; its value follows.
    #[inline]
    pub fn key(&mut self, k: &str) {
        self.separate(b'{');
        self.str(k);
        self.colon();
    }

    /// Write the next object key, one that needs no escaping (a Rust
    /// identifier, as the derives write); its value follows.
    #[inline]
    pub fn field(&mut self, k: &'static str) {
        debug_assert!(!k.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'));
        self.separate(b'{');
        self.out.push(b'"');
        self.out.extend_from_slice(k.as_bytes());
        self.out.push(b'"');
        self.colon();
    }

    /// Close the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'{', b'}');
    }

    /// A comma unless the container `open` was just opened, then the
    /// item's line break.
    #[inline]
    fn separate(&mut self, open: u8) {
        // An item always ends in a byte other than its container's opener
        // (a nested container is closed before the next item), so the last
        // byte tells whether this is the first item.
        if self.out.last() != Some(&open) {
            self.out.push(b',');
        }
        self.newline();
    }

    #[inline]
    fn colon(&mut self) {
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    #[inline]
    fn close(&mut self, open: u8, close: u8) {
        self.depth -= 1;
        if self.out.last() != Some(&open) {
            self.newline();
        }
        self.out.push(close);
    }

    #[inline]
    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + 2 * self.depth, b' ');
        }
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(Error::custom(message));
    }
}
