//! Dependency-free JSON value: build, index, compare, and render (compact
//! or pretty). This is the serialization substrate for telemetry snapshots
//! and the figure reports — no external serde needed.

use std::fmt;
use std::ops::Index;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered losslessly for integer-valued floats).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object (`None` on missing key or non-object).
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by position (`None` out of bounds or non-array).
    pub(crate) fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Array(items) => items.get(idx),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line rendering (2-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
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
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, idx: usize) -> &Json {
        static NULL: Json = Json::Null;
        self.at(idx).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Json::Str(s) if s == other)
    }
}

impl PartialEq<str> for Json {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Json::Str(s) if s == other)
    }
}

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Json::Num(n) if n == other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, Json::Num(n) if *n == *other as f64)
    }
}

impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        matches!(self, Json::Num(n) if *n == f64::from(*other))
    }
}

impl PartialEq<usize> for Json {
    fn eq(&self, other: &usize) -> bool {
        matches!(self, Json::Num(n) if *n == *other as f64)
    }
}

impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Json::Bool(b) if b == other)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Array(items.iter().cloned().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let j = Json::object(vec![
            ("id", "Fig 1".into()),
            ("n", 3u64.into()),
            (
                "rows",
                Json::Array(vec![Json::from(1u64), Json::from(2u64)]),
            ),
        ]);
        assert_eq!(
            j.to_string_compact(),
            r#"{"id":"Fig 1","n":3,"rows":[1,2]}"#
        );
        let pretty = j.to_string_pretty();
        assert!(pretty.contains("\n  \"id\": \"Fig 1\""));
    }

    #[test]
    fn indexing_and_comparisons() {
        let j = Json::object(vec![
            ("id", "Fig 1".into()),
            (
                "rows",
                Json::Array(vec![Json::object(vec![(
                    "cells",
                    Json::Array(vec!["a".into(), 2.5f64.into()]),
                )])]),
            ),
        ]);
        assert_eq!(j["id"], "Fig 1");
        assert_eq!(j["rows"][0]["cells"][0], "a");
        assert_eq!(j["rows"][0]["cells"][1], 2.5f64);
        assert_eq!(j["missing"], Json::Null);
        assert_eq!(j["rows"][99], Json::Null);
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".to_string());
        assert_eq!(j.to_string_compact(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn integer_valued_floats_render_without_point() {
        assert_eq!(Json::Num(3.0).to_string_compact(), "3");
        assert_eq!(Json::Num(3.25).to_string_compact(), "3.25");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }
}
