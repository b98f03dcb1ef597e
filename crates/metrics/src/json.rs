//! A minimal, deterministic JSON value tree and renderer.
//!
//! The build environment is offline (no `serde_json`), so the machine-readable
//! results path — `repro --format json`, `BENCH_repro.json` — is served by
//! this hand-rolled emitter instead. Two properties matter more than API
//! breadth:
//!
//! * **Determinism.** Object keys render in insertion order and numbers render
//!   via Rust's shortest-round-trip float formatting, so identical values
//!   produce identical bytes. The CLI goldens and CI's cross-process reruns
//!   compare output byte-for-byte on the strength of this.
//! * **Validity.** Strings are escaped per RFC 8259 and non-finite floats
//!   (which JSON cannot represent) render as `null`.

use std::fmt;

/// A JSON value: the usual scalar/array/object tree.
///
/// Objects keep their keys in insertion order — deterministic output matters
/// more here than lookup speed, and the trees are tiny.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// An unsigned integer, rendered exactly (seeds exceed `f64` precision).
    UInt(u64),
    /// A string, escaped on render.
    Str(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object; keys render in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a key/value pair to an object and returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-object value.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        match &mut self {
            JsonValue::Object(entries) => entries.push((key.into(), value.into())),
            other => panic!("JsonValue::with on non-object {other:?}"),
        }
        self
    }

    /// Renders with two-space indentation and a trailing newline — the format
    /// used for `--out` files and committed artifacts, where line-oriented
    /// diffs are the point.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) if !v.is_finite() => out.push_str("null"),
            JsonValue::Num(v) => out.push_str(&format!("{v}")),
            JsonValue::UInt(v) => out.push_str(&format!("{v}")),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                render_seq(out, indent, '[', ']', items.len(), |out, i, inner| {
                    items[i].render(out, inner)
                })
            }
            JsonValue::Object(entries) => {
                render_seq(out, indent, '{', '}', entries.len(), |out, i, inner| {
                    let (key, value) = &entries[i];
                    escape_into(key, out);
                    out.push(':');
                    if inner.is_some() {
                        out.push(' ');
                    }
                    value.render(out, inner);
                })
            }
        }
    }
}

/// Shared layout for arrays and objects: compact when `indent` is `None`,
/// one element per line otherwise.
fn render_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut render_item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        render_item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue {
    /// Compact single-line rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = JsonValue::object()
            .with("name", "fig4")
            .with("ok", true)
            .with("ratio", 0.5)
            .with("seed", u64::MAX)
            .with("tags", vec![JsonValue::from("a"), JsonValue::Null]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"fig4","ok":true,"ratio":0.5,"seed":18446744073709551615,"tags":["a",null]}"#
        );
    }

    #[test]
    fn pretty_rendering_is_line_oriented() {
        let v = JsonValue::object().with("xs", vec![JsonValue::from(1.0)]);
        assert_eq!(v.to_pretty_string(), "{\n  \"xs\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_render_exactly() {
        // 2^53 + 1 is not representable as f64; UInt must not round-trip
        // through floats.
        assert_eq!(
            JsonValue::UInt(9007199254740993).to_string(),
            "9007199254740993"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::object().to_string(), "{}");
        assert_eq!(JsonValue::Array(Vec::new()).to_string(), "[]");
        assert_eq!(JsonValue::Array(Vec::new()).to_pretty_string(), "[]\n");
    }

    #[test]
    #[should_panic]
    fn with_on_non_object_panics() {
        let _ = JsonValue::Null.with("k", 1.0);
    }
}
