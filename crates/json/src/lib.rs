//! # nvmm-json
//!
//! A small, self-contained JSON writer for the repo's experiment
//! artifacts (`target/experiments/*.json`) and telemetry timelines.
//!
//! The crates-io registry is not reachable from the environments this
//! reproduction is built in, so instead of `serde`/`serde_json` the
//! workspace carries this substitute: a [`Json`] tree, a compact and a
//! pretty printer, and the [`ToJson`] conversion trait the other crates
//! implement for their artifact types. Nothing in the workspace reads
//! JSON back, so there is no parser.
//!
//! Integers are kept exact: the tree distinguishes [`Json::U64`],
//! [`Json::I64`] and [`Json::F64`], so a `u64` counter is printed
//! bit-for-bit even above 2^53. Object member order is preserved
//! (members are a `Vec`, not a map), which keeps emitted artifacts
//! deterministic.
//!
//! # Examples
//!
//! ```
//! use nvmm_json::{Json, ToJson};
//!
//! let j = Json::Obj(vec![
//!     ("runtime".to_string(), 125u64.to_json()),
//!     ("label".to_string(), Json::Str("SCA".to_string())),
//! ]);
//! assert_eq!(j.to_compact(), r#"{"runtime":125,"label":"SCA"}"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    U64(u64),
    /// A negative integer, kept exact.
    I64(i64),
    /// A (finite) floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, one member/element per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(elems) => {
                write_seq(out, indent, depth, '[', ']', elems.iter(), |out, e, d| {
                    e.write(out, indent, d)
                });
            }
            Json::Obj(members) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    members.iter(),
                    |out, (k, v), d| {
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d);
                    },
                );
            }
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips.
        let s = v.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; artifacts never contain them, but a
        // printer must still emit *valid* JSON if one slips through.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }
    out.push(close);
}

/// Conversion of a typed value into a [`Json`] tree.
pub trait ToJson {
    /// Converts `self` into a JSON tree.
    fn to_json(&self) -> Json;
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) }
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_print_exactly() {
        assert_eq!(Json::Null.to_compact(), "null");
        assert_eq!(true.to_json().to_compact(), "true");
        assert_eq!(
            (u64::MAX - 1).to_json().to_compact(),
            "18446744073709551614"
        );
        assert_eq!((-12i64).to_json().to_compact(), "-12");
        assert_eq!(Json::I64(i64::MIN).to_compact(), "-9223372036854775808");
        assert_eq!(7i32.to_json(), Json::U64(7), "non-negative ints are U64");
    }

    #[test]
    fn string_escapes() {
        let s = "line\none\ttab \"quoted\" back\\slash \u{1}\r";
        assert_eq!(
            Json::Str(s.to_string()).to_compact(),
            r#""line\none\ttab \"quoted\" back\\slash \u0001\r""#
        );
    }

    #[test]
    fn nested_compact_and_pretty_layout() {
        let j = Json::Obj(vec![
            (
                "xs".to_string(),
                Json::Arr(vec![Json::U64(1), Json::F64(0.5)]),
            ),
            ("flag".to_string(), Json::Bool(false)),
            ("name".to_string(), Json::Str("nvmm".to_string())),
            ("none".to_string(), Json::Null),
            ("empty".to_string(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            j.to_compact(),
            r#"{"xs":[1,0.5],"flag":false,"name":"nvmm","none":null,"empty":[]}"#
        );
        assert_eq!(
            j.to_pretty(),
            "{\n  \"xs\": [\n    1,\n    0.5\n  ],\n  \"flag\": false,\n  \
             \"name\": \"nvmm\",\n  \"none\": null,\n  \"empty\": []\n}\n"
        );
    }

    #[test]
    fn float_always_has_float_shape() {
        assert_eq!(Json::F64(2.0).to_compact(), "2.0");
        assert_eq!(Json::F64(0.25).to_compact(), "0.25");
        assert_eq!(Json::F64(-3.0).to_compact(), "-3.0");
        // JSON has no NaN/Inf: the printer degrades them to null.
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn member_order_preserved() {
        let j = Json::Obj(vec![
            ("z".to_string(), Json::U64(1)),
            ("a".to_string(), Json::U64(2)),
        ]);
        assert_eq!(j.to_compact(), r#"{"z":1,"a":2}"#);
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 1.5f64);
        map.insert("b".to_string(), 2.0f64);
        assert_eq!(map.to_json().to_compact(), r#"{"b":2.0,"k":1.5}"#);
    }

    #[test]
    fn containers_print_their_elements() {
        let opt: Option<u32> = None;
        assert_eq!(opt.to_json().to_compact(), "null");
        assert_eq!(Some(3u8).to_json().to_compact(), "3");
        assert_eq!(vec![0u64, 1].to_json().to_compact(), "[0,1]");
    }
}
