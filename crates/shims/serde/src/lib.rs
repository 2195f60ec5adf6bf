//! Offline stand-in for `serde`, fixed to JSON (the only format the workspace uses).
//!
//! The build environment has no access to crates.io, so this workspace vendors a minimal
//! serialization facility under the `serde` name.  [`Serialize`] writes JSON text straight
//! into a `String`; [`Deserialize`] decodes from the dynamically typed [`Value`] that the
//! sibling `serde_json` shim parses (and re-exports).  Both follow upstream serde's JSON
//! data model: structs as objects, unit enum variants as strings, data-carrying variants
//! as externally tagged single-key objects.
//!
//! The derive macros live in the sibling `serde_derive` proc-macro crate and are re-exported
//! here, mirroring upstream serde's `derive` feature.  Unlike upstream, a derived decoder
//! always rejects unknown object keys (upstream's `#[serde(deny_unknown_fields)]`).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A type that can write itself as JSON.
///
/// The derive macro emits field-by-field implementations matching upstream serde's JSON data
/// model: structs as objects, unit enum variants as strings, data-carrying variants as
/// externally tagged single-key objects.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// A type that can decode itself from the [`Value`] its [`Serialize`] impl writes.
///
/// The derive macro emits decoders for the same shapes it serializes.  A struct field that
/// is absent or `null` decodes to [`Deserialize::absent`] (`None` for `Option`), or to
/// `Default::default()` when the field carries `#[serde(default)]`; otherwise it is an
/// error naming the field.
pub trait Deserialize: Sized {
    /// Decodes `value`.
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// What an absent struct field decodes to; `None` (the default) makes it required.
    fn absent() -> Option<Self> {
        None
    }
}

/// A JSON encoding or decoding error, with the path from the document root to the value
/// at fault (`topology.Chain: missing field `n``).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    path: String,
    message: String,
}

impl Error {
    /// An error at the current position.
    pub fn custom(message: impl Into<String>) -> Error {
        Error { path: String::new(), message: message.into() }
    }

    /// Moves the error one level down: `segment` (a field or variant name, or an `[index]`)
    /// is prefixed to the path.
    pub fn at(mut self, segment: &str) -> Error {
        if !self.path.is_empty() && !self.path.starts_with('[') {
            self.path.insert(0, '.');
        }
        self.path.insert_str(0, segment);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for Error {}

/// A dynamically typed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-integer (or out-of-range) number, stored as `f64`.
    Number(f64),
    /// An integer literal, stored exactly (`i128` covers the full `u64` and `i64` ranges, so
    /// 64-bit seeds round-trip without the 2⁵³ precision loss of `f64`).
    Integer(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with string keys.
    Object(BTreeMap<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, when this is a number (lossy for integers beyond 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Integer(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The exact unsigned-integer content, when this is an in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(i) => u64::try_from(*i).ok(),
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The exact signed-integer content, when this is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => i64::try_from(*i).ok(),
            Value::Number(n)
                if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member by key, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Appends the JSON text of `self` to `out`: compact when `indent` is `None`; with
    /// `Some(level)`, one member per line, indented two spaces per level below `level`.
    pub fn write_json(&self, indent: Option<usize>, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.serialize_json(out),
            Value::Number(n) => n.serialize_json(out),
            Value::Integer(i) => i.serialize_json(out),
            Value::String(s) => s.serialize_json(out),
            Value::Array(items) => {
                write_members(['[', ']'], items.iter().map(|item| (None, item)), indent, out)
            }
            Value::Object(map) => write_members(
                ['{', '}'],
                map.iter().map(|(key, item)| (Some(key), item)),
                indent,
                out,
            ),
        }
    }
}

fn write_members<'a>(
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a String>, &'a Value)>,
    indent: Option<usize>,
    out: &mut String,
) {
    let newline = |level: usize, out: &mut String| {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    };
    out.push(open);
    let mut empty = true;
    for (key, item) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = indent {
            newline(level + 1, out);
        }
        if let Some(key) = key {
            key.serialize_json(out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        item.write_json(indent.map(|level| level + 1), out);
    }
    if let (Some(level), false) = (indent, empty) {
        newline(level, out);
    }
    out.push(close);
}

impl Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        self.write_json(None, out);
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! impl_value_int_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Integer(i) => *i == *other as i128,
                    Value::Number(n) => *n == *other as f64,
                    _ => false,
                }
            }
        }
    )*};
}

impl_value_int_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn expected<T>(what: &str) -> Result<T, Error> {
    Err(Error::custom(format!("expected {what}")))
}

macro_rules! impl_deserialize_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let Some(n) = value.as_u64() else { return expected("an unsigned integer") };
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("{n} exceeds {}", stringify!($t)))
                })
            }
        }
    )*};
}

impl_deserialize_unsigned!(u8, u16, u64, usize);

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        // Non-finite values have no JSON encoding (they serialize as `null`), so an
        // overflowing literal such as `1e999` is rejected rather than decoded to infinity.
        match value.as_f64() {
            Some(n) if n.is_finite() => Ok(n),
            _ => expected("a finite number"),
        }
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_bool().map_or_else(|| expected("a boolean"), Ok)
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value.as_str().map_or_else(|| expected("a string"), |s| Ok(s.to_string()))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let Value::Array(items) = value else { return expected("an array") };
        items.iter().enumerate().map(|(i, item)| __private::element(item, i)).collect()
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            value => T::deserialize(value).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

/// Building blocks of derive-generated decoders; not a stable interface.
#[doc(hidden)]
pub mod __private {
    use super::{expected, Deserialize, Error, Value};
    use std::collections::BTreeMap;

    /// The members of a struct object, after checking every key names one of `fields`.
    pub fn object<'a>(
        value: &'a Value,
        fields: &[&str],
    ) -> Result<&'a BTreeMap<String, Value>, Error> {
        let Value::Object(map) = value else { return expected("an object") };
        match map.keys().find(|key| !fields.contains(&key.as_str())) {
            Some(key) => Err(Error::custom(format!(
                "unknown field `{key}`, expected one of {}",
                listed(fields)
            ))),
            None => Ok(map),
        }
    }

    /// Decodes struct field `name`; an absent or `null` field decodes to
    /// [`Deserialize::absent`].
    pub fn field<T: Deserialize>(map: &BTreeMap<String, Value>, name: &str) -> Result<T, Error> {
        match map.get(name) {
            None | Some(Value::Null) => T::absent()
                .ok_or_else(|| Error::custom(format!("missing field `{name}`"))),
            Some(value) => T::deserialize(value).map_err(|e| e.at(name)),
        }
    }

    /// Decodes a `#[serde(default)]` struct field: absent or `null` is `T::default()`.
    pub fn field_or_default<T: Deserialize + Default>(
        map: &BTreeMap<String, Value>,
        name: &str,
    ) -> Result<T, Error> {
        match map.get(name) {
            None | Some(Value::Null) => Ok(T::default()),
            Some(_) => field(map, name),
        }
    }

    /// Decodes element `index` of a sequence.
    pub fn element<T: Deserialize>(item: &Value, index: usize) -> Result<T, Error> {
        T::deserialize(item).map_err(|e| e.at(&format!("[{index}]")))
    }

    /// The elements of a tuple encoded as an array of exactly `len` items.
    pub fn tuple(value: &Value, len: usize) -> Result<&[Value], Error> {
        match value {
            Value::Array(items) if items.len() == len => Ok(items),
            _ => expected(&format!("an array of {len} elements")),
        }
    }

    /// Checks the (absent) payload of a unit variant or unit struct.
    pub fn unit(value: &Value) -> Result<(), Error> {
        match value {
            Value::Null => Ok(()),
            _ => expected("no payload"),
        }
    }

    /// Splits an externally tagged enum value — a bare string (unit variant, payload
    /// `null`) or a single-key object `{"Variant": payload}` — into tag and payload.
    pub fn variant(value: &Value) -> Result<(&str, &Value), Error> {
        match value {
            Value::String(tag) => Ok((tag, &super::NULL)),
            Value::Object(map) if map.len() == 1 => {
                let (tag, payload) = map.iter().next().expect("one member");
                Ok((tag, payload))
            }
            _ => expected("an enum variant (a string or a single-key object)"),
        }
    }

    /// The error for a tag that names none of `variants`.
    pub fn unknown_variant(tag: &str, variants: &[&str]) -> Error {
        Error::custom(format!("unknown variant `{tag}`, expected one of {}", listed(variants)))
    }

    fn listed(names: &[&str]) -> String {
        names.iter().map(|name| format!("`{name}`")).collect::<Vec<_>>().join(", ")
    }
}

/// Escapes and appends a string literal body (without the surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
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
}

macro_rules! impl_serialize_display {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

impl_serialize_display!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            // JSON has no NaN/Inf; serde_json emits null for them.
            out.push_str("null");
        }
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        f64::from(*self).serialize_json(out);
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        out.push('"');
        let mut buf = [0u8; 4];
        escape_into(self.encode_utf8(&mut buf), out);
        out.push('"');
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        self.as_str().serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out);
    }
}

/// Types usable as JSON object keys.
pub trait MapKey {
    /// Appends the key (quoted) to `out`.
    fn write_key(&self, out: &mut String);
}

impl MapKey for String {
    fn write_key(&self, out: &mut String) {
        self.as_str().write_key(out);
    }
}

impl MapKey for str {
    fn write_key(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }
}

impl<K: MapKey + ?Sized> MapKey for &K {
    fn write_key(&self, out: &mut String) {
        (**self).write_key(out);
    }
}

macro_rules! impl_int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn write_key(&self, out: &mut String) {
                out.push('"');
                out.push_str(&self.to_string());
                out.push('"');
            }
        }
    )*};
}

impl_int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn serialize_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.write_key(out);
        out.push(':');
        v.serialize_json(out);
    }
    out.push('}');
}

impl<K: MapKey, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        serialize_map(self.iter(), out);
    }
}

impl<K: MapKey, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn serialize_json(&self, out: &mut String) {
        serialize_map(self.iter(), out);
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )*};
}

impl_serialize_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::{Deserialize, Error, Serialize, Value};
    use std::collections::BTreeMap;

    fn to_json<T: Serialize>(v: &T) -> String {
        let mut out = String::new();
        v.serialize_json(&mut out);
        out
    }

    #[test]
    fn primitives_and_containers_serialize_as_json() {
        assert_eq!(to_json(&5u64), "5");
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&"a\"b"), "\"a\\\"b\"");
        assert_eq!(to_json(&vec![1, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Some(1.5f64)), "1.5");
        assert_eq!(to_json(&None::<u8>), "null");
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 2u32);
        assert_eq!(to_json(&m), "{\"k\":2}");
        assert_eq!(to_json(&(1u8, "x")), "[1,\"x\"]");
    }

    #[test]
    fn primitives_decode_with_range_checks_and_error_paths() {
        assert_eq!(u8::deserialize(&Value::Integer(255)), Ok(255));
        let err = u8::deserialize(&Value::Integer(256)).unwrap_err();
        assert_eq!(err.to_string(), "256 exceeds u8");
        assert!(u64::deserialize(&Value::Integer(-1)).is_err());
        assert_eq!(f64::deserialize(&Value::Integer(3)), Ok(3.0));
        assert!(f64::deserialize(&Value::Number(f64::INFINITY)).is_err());
        assert_eq!(Option::<bool>::deserialize(&Value::Null), Ok(None));
        assert_eq!(Option::<bool>::absent(), Some(None));
        assert_eq!(u64::absent(), None);
        let items = Value::Array(vec![Value::Integer(1), Value::String("x".into())]);
        let err = Vec::<u16>::deserialize(&items).unwrap_err();
        assert_eq!(err.to_string(), "[1]: expected an unsigned integer");
        let err = Error::custom("m").at("[1]").at("epochs").at("fault_schedule");
        assert_eq!(err.to_string(), "fault_schedule.epochs[1]: m");
    }
}
