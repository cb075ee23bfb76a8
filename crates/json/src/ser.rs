//! JSON serialisation: compact and pretty printers.

use std::fmt::Write as _;

use crate::value::Value;

impl Value {
    /// Serialises to the compact (no-whitespace) JSON encoding.
    ///
    /// Object keys are emitted in sorted order, so equal values always
    /// produce byte-identical output — the document store's revision hashes
    /// depend on this.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Appends the compact encoding ([`Value::to_json`]'s bytes) to `out`,
    /// so a caller framing this value inside a larger record serialises
    /// it by reference instead of cloning it into a wrapper object.
    pub fn write_json(&self, out: &mut String) {
        write_value(self, out);
    }

    /// Serialises with two-space indentation for human consumption.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, &mut out, 0);
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// JSON floats: emit NaN/Infinity as `null` (they are unrepresentable in
/// JSON), integral floats with a trailing `.0` so they re-parse as `Float`.
fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a JSON string literal (quoted and escaped), exactly as
/// [`Value::to_json`] encodes a [`Value::Str`].
pub fn write_json_string(s: &str, out: &mut String) {
    write_string(s, out);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobject;

    #[test]
    fn compact_encoding() {
        let v = jobject! {
            "b" => 1,
            "a" => vec!["x", "y"],
        };
        // Keys sorted deterministically.
        assert_eq!(v.to_json(), r#"{"a":["x","y"],"b":1}"#);
    }

    #[test]
    fn escapes_in_strings() {
        let v = Value::from("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_json(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn floats_keep_floatness() {
        assert_eq!(Value::Float(3.0).to_json(), "3.0");
        assert_eq!(Value::Float(2.5).to_json(), "2.5");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn pretty_encoding() {
        let v = jobject! {"a" => vec![1i64], "b" => Value::object()};
        let pretty = v.to_json_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1\n  ]"));
        assert!(pretty.contains("\"b\": {}"));
    }

    #[test]
    fn roundtrip_preserves_value() {
        let v = jobject! {
            "nested" => jobject!{"list" => Value::Array(vec![
                Value::Int(-5), Value::Float(1.25), Value::from("é✓"), Value::Null, Value::Bool(true),
            ])},
        };
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_json_pretty()).unwrap(), v);
    }
}
