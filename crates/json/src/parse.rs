//! A recursive-descent JSON parser (RFC 8259 subset: a key written twice
//! in one object keeps its last value; numbers outside `i64` fall back to
//! `f64`, numbers outside `f64`'s finite range are errors).
//!
//! An object's members are collected on a stack shared by every nesting
//! level and kept between calls on the thread, then moved into one
//! exact-size vector when the object closes: one allocation per object.
//! They are sorted only when they arrive out of order. A key or a string
//! with no escape is taken straight from the input: a key is interned
//! (see [`Key`]), a string of up to 22 bytes is stored inline and a
//! longer one is copied in one exact-size allocation (see [`Str`]).

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use crate::key::Key;
use crate::map::Map;
use crate::ser::SCRATCH_RETAIN;
use crate::text::Str;
use crate::value::Value;

/// Error produced when JSON parsing fails; carries a byte offset into the
/// input for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    offset: usize,
    message: String,
}

impl ParseJsonError {
    fn new(offset: usize, message: impl Into<String>) -> ParseJsonError {
        ParseJsonError {
            offset,
            message: message.into(),
        }
    }

    /// Byte offset in the input where parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseJsonError {}

type Member = (Key, Value);

thread_local! {
    /// The member stack of this thread's last parse, empty, kept for the
    /// next one while its capacity is at most [`SCRATCH_RETAIN`] bytes.
    static MEMBERS: Cell<Vec<Member>> = const { Cell::new(Vec::new()) };
}

struct Parser<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
    depth: usize,
    /// Members of the objects still open, innermost last.
    members: Vec<Member>,
}

/// Maximum nesting depth accepted, to bound stack use on hostile inputs.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses a complete JSON document. Trailing whitespace is permitted;
    /// trailing garbage is an error. A key written twice in one object
    /// keeps the value written last.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] on malformed input, invalid escapes,
    /// non-UTF-8 escape sequences or nesting deeper than 128 levels.
    pub fn parse(input: &str) -> Result<Value, ParseJsonError> {
        let mut p = Parser {
            text: input,
            input: input.as_bytes(),
            pos: 0,
            depth: 0,
            members: MEMBERS.try_with(Cell::take).unwrap_or_default(),
        };
        let parsed = p.document();
        let mut members = p.members;
        members.clear();
        if members.capacity() * std::mem::size_of::<Member>() <= SCRATCH_RETAIN {
            let _ = MEMBERS.try_with(|cell| cell.set(members));
        }
        parsed
    }
}

impl<'a> Parser<'a> {
    fn document(&mut self) -> Result<Value, ParseJsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn err(&self, message: impl Into<String>) -> ParseJsonError {
        ParseJsonError::new(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseJsonError> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseJsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|text| Value::Str(Str::from(text))),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'{')?;
        let start = self.members.len();
        self.members_until_close()?;
        let members = self.members.drain(start..).collect();
        Ok(Value::Object(Map::from_members(members)))
    }

    /// Pushes the members of the object just opened onto `self.members`,
    /// through its closing `}`.
    fn members_until_close(&mut self) -> Result<(), ParseJsonError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = Key::from(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::array());
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items.into_boxed_slice())),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// The string starting at `self.pos`: borrowed from the input when it
    /// has no escape, unescaped into a `String` otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseJsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            // A run of bytes that needs no unescaping. The input is UTF-8
            // and the run ends at an ASCII byte (or the end), so it is
            // whole characters.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            let text = &self.text[run..self.pos];
            match self.bump() {
                // No escape: the text as it stands in the input.
                Some(b'"') if run == start => return Ok(Cow::Borrowed(text)),
                Some(b'"') => {
                    out.push_str(text);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(text);
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Appends the character an escape stands for; `self.pos` is just
    /// past its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseJsonError> {
        let ch = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uDC00-\uDFFF next.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))?
                }
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        out.push(ch);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        // Rust parses an overflowing literal (`1e400`) as ±∞, which JSON
        // cannot spell: the value would serialise as `null` and come back
        // different after a write and a restart.
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobject;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Int(42));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(Value::parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_document() {
        let v = Value::parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(
            v,
            jobject! {
                "a" => Value::from(vec![Value::Int(1), jobject!{"b" => Value::Null}]),
                "c" => "x",
            }
        );
    }

    #[test]
    fn parses_escapes() {
        let v = Value::parse(r#""a\"b\\c\/d\n\tA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\n\tA"));
    }

    #[test]
    fn parses_surrogate_pairs() {
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parses_raw_utf8() {
        let v = Value::parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "tru",
            "01",
            "1.",
            "1e",
            "--1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\uD800\"",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn error_carries_offset() {
        let err = Value::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset(), 4);
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = Value::parse("99999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(
            Value::parse("9223372036854775807").unwrap(),
            Value::Int(i64::MAX)
        );
    }

    /// A literal past `f64::MAX` would parse as ±∞ and serialise as
    /// `null`; it is refused instead. Underflow still rounds to zero.
    #[test]
    fn numbers_beyond_f64_are_errors() {
        for bad in ["1e400", "-1e400", "1.8e308", "123456789e301"] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(
            Value::parse("1.7976931348623157e308").unwrap(),
            Value::Float(f64::MAX)
        );
        assert_eq!(Value::parse("1e-400").unwrap(), Value::Float(0.0));
    }

    /// parse → `to_json` → parse is a fixed point over numeric edge cases.
    #[test]
    fn numeric_edges_reach_a_fixed_point() {
        for text in [
            "0",
            "-0",
            "-0.0",
            "1E3",
            "2.5e-3",
            "0.1",
            "100.0",
            "1e-400",
            "5e-324",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "-1.7976931348623157e308",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "123456789012345678901234567890",
        ] {
            let first = Value::parse(text).unwrap();
            let json = first.to_json();
            let second = Value::parse(&json).unwrap_or_else(|e| panic!("{text} → {json}: {e}"));
            assert_eq!(second, first, "{text} → {json}");
            assert_eq!(second.to_json(), json, "{text}");
        }
    }
}
