//! Wire encoding/decoding of STOMP frames.
//!
//! Frame layout:
//!
//! ```text
//! COMMAND\n
//! header1:value1\n
//! header2:value2\n
//! \n
//! <body bytes>\0
//! ```
//!
//! Header names/values are escaped (`\n` → `\\n`, `:` → `\\c`, `\\` →
//! `\\\\`, `\r` → `\\r`) as in STOMP 1.2, so arbitrary label URIs and
//! selector expressions survive transport. Frames carrying a
//! `content-length` header may contain NUL bytes in the body; without it
//! the body ends at the first NUL.

use std::fmt;
use std::io::Write;

use crate::frame::{Command, Frame};

/// Maximum accepted frame size (headers + body), to bound memory under
/// malformed or hostile input.
pub const MAX_FRAME_SIZE: usize = 4 * 1024 * 1024;

/// Error produced while decoding a frame from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The command keyword is not a known STOMP command.
    UnknownCommand(String),
    /// A header line lacks a `:` separator or has an invalid escape.
    MalformedHeader(String),
    /// The frame exceeds [`MAX_FRAME_SIZE`].
    FrameTooLarge,
    /// `content-length` is not a valid integer.
    BadContentLength,
    /// The frame is not valid UTF-8 in its command/header section.
    InvalidUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownCommand(c) => write!(f, "unknown STOMP command {c:?}"),
            DecodeError::MalformedHeader(h) => write!(f, "malformed STOMP header {h:?}"),
            DecodeError::FrameTooLarge => write!(f, "frame exceeds maximum size"),
            DecodeError::BadContentLength => write!(f, "invalid content-length header"),
            DecodeError::InvalidUtf8 => write!(f, "frame head is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn escape(s: &str, out: &mut Vec<u8>) {
    for b in s.bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b':' => out.extend_from_slice(b"\\c"),
            other => out.push(other),
        }
    }
}

/// Appends `s` unescaped to `out`.
fn unescape_into(s: &str, out: &mut String) -> Result<(), DecodeError> {
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        out.push(match rest.as_bytes().get(at + 1) {
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b'c') => ':',
            _ => return Err(DecodeError::MalformedHeader(s.to_string())),
        });
        rest = &rest[at + 2..];
    }
    out.push_str(rest);
    Ok(())
}

/// Encodes a frame to bytes. A `content-length` header reflecting the body
/// size is always emitted (and any client-supplied one is ignored), so
/// bodies may contain NUL bytes.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + frame.header_bytes() + frame.body().len());
    out.extend_from_slice(frame.command().as_str().as_bytes());
    out.push(b'\n');
    for (k, v) in frame.headers() {
        if k == "content-length" {
            continue;
        }
        escape(k, &mut out);
        out.push(b':');
        escape(v, &mut out);
        out.push(b'\n');
    }
    // Writing into a `Vec` cannot fail.
    let _ = writeln!(out, "content-length:{}", frame.body().len());
    out.push(b'\n');
    out.extend_from_slice(frame.body());
    out.push(0);
    out
}

/// Incremental decoder: call [`Decoder::feed`] with received bytes, then
/// drain complete frames with [`Decoder::next_frame`].
///
/// A frame that arrives in pieces is scanned and parsed once: the decoder
/// keeps how far its search for the head's end got, and the parsed head
/// while the body is still arriving.
///
/// Received bytes go into one buffer; decoded frames advance a consumed
/// offset, and [`Decoder::feed`] drops the consumed prefix before it
/// appends, so the buffer holds at most one read past the last frame.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Where the next search resumes, relative to `pos`: for the blank
    /// line ending the head while `head` is `None`, for the NUL ending a
    /// body without `content-length` once it is parsed.
    scanned: usize,
    /// The parsed head of the frame whose body is still arriving.
    head: Option<Head>,
}

/// A frame's command and headers, laid out as [`Frame`] keeps them, and
/// where its body starts in the buffer.
#[derive(Debug)]
struct Head {
    command: Command,
    text: String,
    spans: Vec<(usize, usize)>,
    content_length: Option<usize>,
    body_start: usize,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Attempts to decode the next complete frame.
    ///
    /// Returns `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input; the decoder state is
    /// then undefined and the connection should be dropped (the broker
    /// responds with an `ERROR` frame first when possible).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        if self.head.is_none() && self.scanned == 0 {
            // Skip heart-beat / inter-frame newlines and stray NULs.
            while matches!(self.buf.get(self.pos), Some(b'\n' | b'\r' | 0)) {
                self.pos += 1;
            }
        }
        let buf = &self.buf[self.pos..];
        if buf.is_empty() {
            return Ok(None);
        }
        if buf.len() > MAX_FRAME_SIZE {
            return Err(DecodeError::FrameTooLarge);
        }

        let head = match self.head.take() {
            Some(head) => head,
            None => match find_blank_line(buf, self.scanned) {
                Ok((head_end, body_start)) => {
                    self.scanned = body_start;
                    parse_head(&buf[..head_end], body_start)?
                }
                Err(resume) => {
                    self.scanned = resume;
                    return Ok(None);
                }
            },
        };

        let body_end = match head.content_length {
            Some(len) if buf.len() <= head.body_start + len => None, // need body + NUL
            Some(len) if buf[head.body_start + len] != 0 => {
                return Err(DecodeError::MalformedHeader(
                    "missing frame terminator".to_string(),
                ));
            }
            Some(len) => Some(head.body_start + len),
            // Without content-length the body ends at the first NUL.
            None => match buf[self.scanned..].iter().position(|&b| b == 0) {
                Some(rel) => Some(self.scanned + rel),
                None => {
                    self.scanned = buf.len();
                    None
                }
            },
        };
        let Some(body_end) = body_end else {
            self.head = Some(head);
            return Ok(None);
        };
        let body = buf[head.body_start..body_end].to_vec();
        self.pos += body_end + 1;
        self.scanned = 0;
        Ok(Some(Frame::from_parts(
            head.command,
            head.text,
            head.spans,
            body,
        )))
    }
}

/// Parses a frame's head: its command line and unescaped headers.
fn parse_head(head: &[u8], body_start: usize) -> Result<Head, DecodeError> {
    let head = std::str::from_utf8(head).map_err(|_| DecodeError::InvalidUtf8)?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let command_line = lines.next().unwrap_or_default();
    let command = Command::from_keyword(command_line)
        .ok_or_else(|| DecodeError::UnknownCommand(command_line.to_string()))?;

    // Header text unescapes straight into the frame's one buffer; the
    // head is an upper bound on its size and on the header count.
    let mut text = String::with_capacity(head.len() - command_line.len());
    let mut spans = Vec::with_capacity(head.bytes().filter(|&b| b == b'\n').count());
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| DecodeError::MalformedHeader(line.to_string()))?;
        let start = text.len();
        unescape_into(k, &mut text)?;
        let name_end = text.len();
        unescape_into(v, &mut text)?;
        if content_length.is_none() && &text[start..name_end] == "content-length" {
            let value = &text[name_end..];
            content_length = Some(value.parse().map_err(|_| DecodeError::BadContentLength)?);
        }
        spans.push((name_end, text.len()));
    }
    if content_length.is_some_and(|len| len > MAX_FRAME_SIZE) {
        return Err(DecodeError::FrameTooLarge);
    }
    Ok(Head {
        command,
        text,
        spans,
        content_length,
        body_start,
    })
}

/// Finds the head/body separator (blank line) at or after `from`,
/// tolerating `\r\n` line endings. Returns `(head_end, body_start)`: the
/// head is `buf[..head_end]` and the body begins at `body_start`. When
/// there is none yet, returns where a search resumes once more bytes
/// arrive.
fn find_blank_line(buf: &[u8], from: usize) -> Result<(usize, usize), usize> {
    let mut i = from;
    while i + 1 < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1] == b'\n' {
                return Ok((i, i + 2));
            }
            if buf[i + 1] == b'\r' && buf.get(i + 2) == Some(&b'\n') {
                return Ok((i, i + 3));
            }
        }
        i += 1;
    }
    // A separator starting at the last two bytes may still complete.
    Err(buf.len().saturating_sub(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode(frame);
        let mut d = Decoder::new();
        d.feed(&bytes);
        d.next_frame().unwrap().unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame::new(Command::Send)
            .with_header("destination", "/patient_report")
            .with_header("x-safeweb-labels", "label:conf:ecric.org.uk/patient/1")
            .with_body("payload");
        let back = roundtrip(&f);
        assert_eq!(back.command(), Command::Send);
        assert_eq!(back.header("destination"), Some("/patient_report"));
        assert_eq!(back.body_str(), Some("payload"));
    }

    #[test]
    fn escaping_preserves_special_characters() {
        let f =
            Frame::new(Command::Subscribe).with_header("selector", "type = 'a:b'\nAND x <> 'y\\z'");
        let back = roundtrip(&f);
        assert_eq!(
            back.header("selector"),
            Some("type = 'a:b'\nAND x <> 'y\\z'")
        );
    }

    #[test]
    fn nul_in_body_with_content_length() {
        let f = Frame::new(Command::Send).with_body(vec![1, 0, 2, 0, 3]);
        let back = roundtrip(&f);
        assert_eq!(back.body(), &[1, 0, 2, 0, 3]);
    }

    #[test]
    fn partial_feed_returns_none_until_complete() {
        let f = Frame::new(Command::Connect).with_header("login", "unit");
        let bytes = encode(&f);
        let mut d = Decoder::new();
        for chunk in bytes.chunks(3) {
            d.feed(chunk);
        }
        // All bytes fed: one frame available.
        assert!(d.next_frame().unwrap().is_some());
        assert!(d.next_frame().unwrap().is_none());

        let mut d2 = Decoder::new();
        d2.feed(&bytes[..bytes.len() / 2]);
        assert!(d2.next_frame().unwrap().is_none());
        d2.feed(&bytes[bytes.len() / 2..]);
        assert!(d2.next_frame().unwrap().is_some());
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let a = encode(&Frame::new(Command::Connect));
        let b = encode(&Frame::new(Command::Disconnect));
        let mut d = Decoder::new();
        d.feed(&a);
        d.feed(&b);
        assert_eq!(d.next_frame().unwrap().unwrap().command(), Command::Connect);
        assert_eq!(
            d.next_frame().unwrap().unwrap().command(),
            Command::Disconnect
        );
        assert!(d.next_frame().unwrap().is_none());
    }

    #[test]
    fn rejects_unknown_command() {
        let mut d = Decoder::new();
        d.feed(b"TELEPORT\n\n\0");
        assert!(matches!(
            d.next_frame(),
            Err(DecodeError::UnknownCommand(_))
        ));
    }

    #[test]
    fn rejects_malformed_header() {
        let mut d = Decoder::new();
        d.feed(b"SEND\nnocolon\n\nbody\0");
        assert!(matches!(
            d.next_frame(),
            Err(DecodeError::MalformedHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        let mut d = Decoder::new();
        d.feed(b"SEND\ncontent-length:abc\n\n\0");
        assert!(matches!(d.next_frame(), Err(DecodeError::BadContentLength)));
    }

    #[test]
    fn skips_interframe_newlines() {
        let mut d = Decoder::new();
        d.feed(b"\n\n\n");
        d.feed(&encode(&Frame::new(Command::Connect)));
        assert!(d.next_frame().unwrap().is_some());
    }

    #[test]
    fn tolerates_crlf_line_endings() {
        let mut d = Decoder::new();
        d.feed(b"CONNECT\r\nlogin:x\r\n\r\n\0");
        let f = d.next_frame().unwrap().unwrap();
        assert_eq!(f.command(), Command::Connect);
        assert_eq!(f.header("login"), Some("x"));
    }
}
