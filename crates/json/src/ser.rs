//! JSON serialisation: compact and pretty printers.
//!
//! The compact printer works in byte runs. A string is scanned byte by
//! byte and every run that needs no escape is copied with one
//! `push_str`; only `"`, `\` and bytes below `0x20` are escaped. Every
//! byte of a multi-byte UTF-8 character is `>= 0x80`, so the scan never
//! splits one and never escapes one. An integer is formatted on the
//! stack, not through `core::fmt`.
//!
//! [`Value::to_json`] builds its text in a per-thread scratch buffer and
//! returns it as one exact-size `String`: **one allocation per output**,
//! however large the value, and no spare capacity held by the result.
//! [`build_exact`] offers the same to callers that frame a value inside
//! a larger record. A thread keeps at most [`SCRATCH_RETAIN`] bytes of
//! scratch between calls.
//!
//! The bytes are the same as the char-at-a-time printer's this replaced
//! (the tests keep that printer, and the `core::fmt` integer path, as
//! references): object keys in sorted order, the same escapes, the same
//! number spellings.

use std::cell::RefCell;
use std::fmt::{self, Write as _};

use crate::value::Value;

/// The most scratch capacity one thread keeps between [`build_exact`]
/// calls (64 KiB). A larger output is still built in the scratch buffer,
/// which is then released instead of kept.
pub const SCRATCH_RETAIN: usize = 64 * 1024;

thread_local! {
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Runs `write` against this thread's scratch buffer and returns what it
/// appended as a `String` of exactly that length: one allocation, however
/// many times `write` grew its text. A call made from inside `write`
/// (the scratch buffer is then in use) builds in a fresh `String`.
pub fn build_exact(write: impl FnOnce(&mut String)) -> String {
    let mut write = Some(write);
    let built = SCRATCH.try_with(|cell| {
        let mut scratch = cell.try_borrow_mut().ok()?;
        scratch.clear();
        (write.take()?)(&mut scratch);
        let out = scratch.as_str().to_owned();
        if scratch.capacity() > SCRATCH_RETAIN {
            *scratch = String::new();
        }
        Some(out)
    });
    built.ok().flatten().unwrap_or_else(|| {
        // The scratch buffer is in use (or gone with its thread), so
        // `write` has not run yet.
        let mut out = String::new();
        if let Some(write) = write {
            write(&mut out);
        }
        out
    })
}

impl Value {
    /// Serialises to the compact (no-whitespace) JSON encoding, in one
    /// exact-size allocation (see [`build_exact`]).
    ///
    /// Object keys are emitted in sorted order, so equal values always
    /// produce byte-identical output — the document store's revision hashes
    /// depend on this.
    pub fn to_json(&self) -> String {
        build_exact(|out| write_value(self, out))
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
        Value::Int(i) => write_int(*i, out),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_json_string(s, out),
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
                write_json_string(k, out);
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
                write_json_string(k, out);
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

/// Appends `i` in decimal, formatted in a stack buffer.
fn write_int(i: i64, out: &mut String) {
    // 19 digits hold `i64::MIN.unsigned_abs()`.
    let mut digits = [0u8; 19];
    let mut at = digits.len();
    let mut n = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
    out.push('"');
    write_escaped(s, out);
    out.push('"');
}

/// A [`fmt::Write`] sink that appends whatever is formatted into it to
/// the wrapped `String`, escaped as the inside of a JSON string literal —
/// so a `Display` value goes into JSON text without an intermediate
/// `String`. The caller writes the surrounding quotes.
#[derive(Debug)]
pub struct EscapeJson<'a>(pub &'a mut String);

impl fmt::Write for EscapeJson<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_escaped(s, self.0);
        Ok(())
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `s` escaped for the inside of a string literal, copying each
/// run of bytes that needs no escape in one piece.
fn write_escaped(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `run..i` and `i + 1..` are char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX_DIGITS[(b >> 4) as usize] as char);
                out.push(HEX_DIGITS[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobject;
    use proptest::prelude::*;

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
            "nested" => jobject!{"list" => Value::from(vec![
                Value::Int(-5), Value::Float(1.25), Value::from("é✓"), Value::Null, Value::Bool(true),
            ])},
        };
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_json_pretty()).unwrap(), v);
    }

    /// `to_json` returns exactly its text, with no spare capacity, also
    /// for outputs past the scratch cap and for nested calls.
    #[test]
    fn outputs_are_exact_size() {
        let big = Value::from("x".repeat(SCRATCH_RETAIN * 2));
        for v in [Value::Null, jobject! {"a" => 1}, big] {
            let text = v.to_json();
            assert_eq!(text.capacity(), text.len());
        }
        let outer = build_exact(|out| {
            out.push_str("outer:");
            out.push_str(&jobject! {"inner" => true}.to_json());
        });
        assert_eq!(outer, r#"outer:{"inner":true}"#);
    }

    #[test]
    fn escape_adapter_matches_the_string_writer() {
        let (left, right) = ("a\"b", "c\\\u{1f}✓");
        let mut via_adapter = String::from("\"");
        write!(EscapeJson(&mut via_adapter), "{left}|{right}").unwrap();
        via_adapter.push('"');
        let mut direct = String::new();
        write_json_string("a\"b|c\\\u{1f}✓", &mut direct);
        assert_eq!(via_adapter, direct);
    }

    /// The reference string writer: one `char` at a time, as strings were
    /// written before the serialiser copied byte runs.
    fn write_string_charwise(s: &str, out: &mut String) {
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

    /// The reference integer writer: `core::fmt`.
    fn write_int_fmt(i: i64, out: &mut String) {
        let _ = write!(out, "{i}");
    }

    /// Every control character, the two escaped printables, DEL, and
    /// characters of every UTF-8 length.
    fn arb_awkward_string() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            proptest::char::range('\u{0}', '\u{1f}'),
            Just('"'),
            Just('\\'),
            Just('\u{7f}'),
            proptest::char::range(' ', '~'),
            proptest::char::range('\u{80}', '\u{7ff}'),
            proptest::char::range('\u{800}', '\u{ffff}'),
            proptest::char::range('\u{10000}', '\u{10ffff}'),
        ];
        proptest::collection::vec(ch, 0..24).prop_map(|chars| chars.into_iter().collect())
    }

    #[test]
    fn int_writer_matches_fmt_at_the_extremes() {
        for i in [i64::MIN, i64::MIN + 1, -10, -9, -1, 0, 1, 9, 10, i64::MAX] {
            let (mut got, mut want) = (String::new(), String::new());
            write_int(i, &mut got);
            write_int_fmt(i, &mut want);
            assert_eq!(got, want);
        }
    }

    proptest! {
        #[test]
        fn string_writer_matches_the_charwise_reference(s in arb_awkward_string()) {
            let (mut got, mut want) = (String::new(), String::new());
            write_json_string(&s, &mut got);
            write_string_charwise(&s, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(Value::from(s.as_str()).to_json(), want);
        }

        #[test]
        fn int_writer_matches_fmt(i in any::<i64>()) {
            let (mut got, mut want) = (String::new(), String::new());
            write_int(i, &mut got);
            write_int_fmt(i, &mut want);
            prop_assert_eq!(got, want);
        }
    }
}
