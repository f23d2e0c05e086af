//! Offline drop-in replacement for the subset of `serde` this workspace
//! uses: the `Serialize`/`Deserialize` derives plus the machinery
//! `serde_json` (compat) needs.
//!
//! Unlike upstream serde there is no data-model visitor pipeline: JSON is
//! the only format. Writing goes straight to text — every [`Serialize`]
//! impl calls the one JSON [`Serializer`], which appends to one buffer.
//! Numbers are written without `core::fmt`: integers two digits at a time,
//! and floats as the shortest digits that read back to the same bits
//! (Ryu's digits, laid out as `Display` lays out an `f64`, then `.0` when
//! integral). Derived types write their keys through
//! [`Serializer::field`], which skips the escape scan.
//! Reading goes through an owned [`Value`] tree: the parser builds it and
//! [`Deserialize`] rebuilds typed values from it. That is plenty for the
//! workflow/event JSONL files this workspace reads and writes, and it keeps
//! the whole layer small with no external dependencies (the build must
//! succeed with an empty registry; see DESIGN.md).

#![warn(missing_docs)]

mod num;
mod ser;

pub use ser::Serializer;
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-shaped value tree.
///
/// Objects preserve insertion order (field declaration order for derived
/// types), matching what upstream `serde_json::to_string` emits for structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer literal.
    UInt(u64),
    /// Negative integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view of any integer or float value.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(u) => Some(u as f64),
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Unsigned view of an integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// Signed view of an integer value.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The boolean when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| find_field(m, key))
    }
}

/// First value with the given key (derive-generated code calls this).
pub fn find_field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with a free-form message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// A required field was absent.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("{ty}: missing field `{field}`"))
    }

    /// An enum tag did not match any variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        Error(format!("{ty}: unknown variant `{tag}`"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON through a [`Serializer`].
pub trait Serialize {
    /// Write `self` as one JSON value.
    fn serialize(&self, out: &mut Serializer);
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ------------------------------------------------------------- primitives --

impl Serialize for bool {
    fn serialize(&self, out: &mut Serializer) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) { out.u64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| Error::custom(
                    concat!("expected ", stringify!($t))))?;
                <$t>::try_from(u).map_err(|_| Error::custom(
                    concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

uint_impl!(u32, u64, usize);

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Serializer) { out.i64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| Error::custom(
                    concat!("expected ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| Error::custom(
                    concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

int_impl!(i64);

impl Serialize for f64 {
    fn serialize(&self, out: &mut Serializer) {
        out.f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Serializer) {
        out.str(self);
    }
}

// ------------------------------------------------------------- containers --

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Serializer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            Some(t) => t.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_array();
        for item in self {
            out.element();
            item.serialize(out);
        }
        out.end_array();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Serializer) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

macro_rules! tuple_impl {
    ($len:literal; $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut Serializer) {
                out.begin_array();
                $(
                    out.element();
                    self.$idx.serialize(out);
                )+
                out.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v
                    .as_array()
                    .ok_or_else(|| Error::custom("expected array"))?;
                if items.len() != $len {
                    return Err(Error::custom(concat!("expected ", $len, "-tuple")));
                }
                Ok(($($t::from_value(&items[$idx])?,)+))
            }
        }
    };
}

tuple_impl!(2; A.0, B.1);
tuple_impl!(3; A.0, B.1, C.2);

impl Serialize for Value {
    fn serialize(&self, out: &mut Serializer) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::UInt(u) => out.u64(*u),
            Value::Int(i) => out.i64(*i),
            Value::Float(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => items.serialize(out),
            Value::Object(fields) => {
                out.begin_object();
                for (k, v) in fields {
                    out.key(k);
                    v.serialize(out);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
