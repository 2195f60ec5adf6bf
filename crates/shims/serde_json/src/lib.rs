//! Offline stand-in for `serde_json`.
//!
//! Provides the entry points the workspace uses: [`to_string`] and [`to_string_pretty`]
//! (writing through the shim's `serde::Serialize`), and [`from_str`], which parses a
//! document into a dynamically typed [`Value`].  Typed decoding goes through
//! `serde::Deserialize` from that `Value`; [`Value`] and [`Error`] are the `serde` shim's,
//! re-exported here as upstream's are.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use std::collections::BTreeMap;

/// Containers nested deeper than this are rejected, so a hostile document cannot overflow
/// the parser's stack (upstream serde_json's recursion limit).
const MAX_DEPTH: usize = 128;

/// Serializes `value` as a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Renders `value` as stable, 2-space-indented JSON (objects in key order).
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(Some(0), &mut out);
    Ok(out)
}

fn fail<T>(message: impl Into<String>) -> Result<T, Error> {
    Err(Error::custom(message))
}

/// Parses a JSON document into a [`Value`].
pub fn from_str(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return fail(format!("trailing characters at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return fail(format!("nesting deeper than {MAX_DEPTH} levels at offset {pos}"));
    }
    match bytes.get(*pos) {
        None => fail("unexpected end of input"),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return fail(format!("expected , or ] at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return fail(format!("expected : at offset {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return fail(format!("expected , or }} at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        fail(format!("invalid literal at offset {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return fail(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return fail("unterminated string"),
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
                        // Exactly four hex digits: `from_str_radix` alone would take a sign.
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
                        let Some(code) = code else {
                            return fail(format!("invalid \\u escape at offset {pos}"));
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return fail("invalid escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).unwrap_or("\u{fffd}"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .or_else(|_| fail("invalid number"))?;
    // Integer literals are kept exact (f64 would corrupt 64-bit values beyond 2^53).
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Integer(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Number)
        .or_else(|_| fail(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = from_str(r#"{"label":"x","metrics":{"m":1.5},"ok":true,"xs":[1,2,null]}"#)
            .unwrap();
        assert_eq!(v["label"], "x");
        assert_eq!(v["metrics"]["m"], 1.5);
        assert_eq!(v["ok"], true);
        assert_eq!(v["xs"][1], 2.0);
        assert_eq!(v["xs"][2], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn roundtrips_shim_serialization() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("k".to_string(), 2.5f64);
        let json = to_string(&map).unwrap();
        assert_eq!(from_str(&json).unwrap()["k"], 2.5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("12 34").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = from_str(r#""a\"bA\n""#).unwrap();
        assert_eq!(v, "a\"bA\n");
    }

    #[test]
    fn integers_beyond_f64_precision_round_trip_exactly() {
        // 2^63 + 1 is not representable in f64; the Integer variant keeps it exact.
        let big: u64 = (1 << 63) + 1;
        let v = from_str(&to_string(&big).unwrap()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v, big);
        // Negative integers and plain floats keep working.
        assert_eq!(from_str("-42").unwrap().as_i64(), Some(-42));
        assert_eq!(from_str("-42").unwrap().as_f64(), Some(-42.0));
        assert_eq!(from_str("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(from_str("3").unwrap().as_f64(), Some(3.0));
        // Exponent literals parse as floats but still convert when integral and in range.
        assert_eq!(from_str("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(from_str("2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        for nested in [arrays, objects] {
            assert!(from_str(&nested(MAX_DEPTH)).is_ok());
            assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        }
        // A 1 MiB body of `[` (the serve daemon's request limit) used to abort the process.
        let err = std::thread::spawn(|| from_str(&"[".repeat(1 << 20)))
            .join()
            .expect("the parser returns instead of overflowing its stack");
        assert!(err.unwrap_err().to_string().contains("nesting"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str(r#""\u0041\u00e9""#).unwrap(), "A\u{e9}");
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04G1""#, r#""\u041""#, r#""\u 041""#] {
            assert!(from_str(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn pretty_output_reparses_to_the_same_value() {
        let mut map = BTreeMap::new();
        map.insert("name".to_string(), Value::String("a \"quoted\"\nlabel\u{1}".into()));
        map.insert("big".to_string(), Value::Integer((1i128 << 63) + 1));
        map.insert("rate".to_string(), Value::Number(2.5));
        map.insert("list".to_string(), Value::Array(vec![Value::Null, Value::Bool(true)]));
        map.insert("empty".to_string(), Value::Object(BTreeMap::new()));
        let value = Value::Object(map);
        let pretty = to_string_pretty(&value).unwrap();
        assert!(pretty.starts_with("{\n  \"big\": 9223372036854775809,\n"), "{pretty}");
        assert!(pretty.contains("\"empty\": {},\n"), "{pretty}");
        assert_eq!(from_str(&pretty).unwrap(), value);
        assert_eq!(from_str(&to_string(&value).unwrap()).unwrap(), value);
        assert!(!to_string(&value).unwrap().contains('\n'), "compact output is one line");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Unit;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Newtype(u16);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Pair(u8, String);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Unit,
        Newtype(Newtype),
        Tuple(Unit, Pair),
        Named { sizes: Vec<usize>, label: Option<String> },
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Doc {
        shapes: Vec<Shape>,
        #[serde(default)]
        extra: Vec<bool>,
        ratio: f64,
    }

    fn decode<T: serde::Deserialize>(json: &str) -> Result<T, Error> {
        T::deserialize(&from_str(json)?)
    }

    #[test]
    fn derived_codec_round_trips_every_shape() {
        let doc = Doc {
            shapes: vec![
                Shape::Unit,
                Shape::Newtype(Newtype(7)),
                Shape::Tuple(Unit, Pair(1, "x".into())),
                Shape::Named { sizes: vec![2, 3], label: None },
            ],
            extra: vec![true],
            ratio: 0.1,
        };
        let json = to_string(&doc).unwrap();
        assert_eq!(decode::<Doc>(&json), Ok(doc));
        // Absent `Option` and `#[serde(default)]` fields take their defaults.
        let sparse: Doc = decode(r#"{"shapes": [{"Named": {"sizes": []}}], "ratio": 1}"#).unwrap();
        assert_eq!(sparse.shapes, vec![Shape::Named { sizes: vec![], label: None }]);
        assert_eq!((sparse.extra, sparse.ratio), (vec![], 1.0));
        // Every error names the path to the fault.
        for (json, message) in [
            (r#"{"shapes": [], "ratio": 1, "ratoi": 2}"#, "unknown field `ratoi`"),
            (r#"{"shapes": ["Unit", "Named"], "ratio": 1}"#, "shapes[1].Named: expected an object"),
            (r#"{"shapes": [{"Tuple": [null, [1]]}], "ratio": 1}"#, "shapes[0].Tuple[1]: expected"),
            (r#"{"shapes": [{"Newtype": 70000}], "ratio": 1}"#, "shapes[0].Newtype: 70000 exceeds"),
            (r#"{"shapes": ["Round"], "ratio": 1}"#, "shapes[0]: unknown variant `Round`"),
            (r#"{"shapes": [{"Unit": 1}], "ratio": 1}"#, "shapes[0].Unit: expected no payload"),
            (r#"{"shapes": []}"#, "missing field `ratio`"),
        ] {
            let err = decode::<Doc>(json).unwrap_err().to_string();
            assert!(err.starts_with(message), "{json}: {err}");
        }
    }
}
