//! STOMP frames: command, headers and body.

use std::fmt;

/// A STOMP command (the verbs used by SafeWeb's broker dialect, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Client requests a session.
    Connect,
    /// Server accepts a session.
    Connected,
    /// Client publishes an event to a destination.
    Send,
    /// Client subscribes to a destination (optionally with a `selector`).
    Subscribe,
    /// Client cancels a subscription by `id`.
    Unsubscribe,
    /// Server delivers an event to a subscriber.
    Message,
    /// Server acknowledges a frame carrying a `receipt` header.
    Receipt,
    /// Server reports a protocol or policy error.
    Error,
    /// Client ends the session.
    Disconnect,
}

impl Command {
    /// The wire keyword for the command.
    pub fn as_str(self) -> &'static str {
        match self {
            Command::Connect => "CONNECT",
            Command::Connected => "CONNECTED",
            Command::Send => "SEND",
            Command::Subscribe => "SUBSCRIBE",
            Command::Unsubscribe => "UNSUBSCRIBE",
            Command::Message => "MESSAGE",
            Command::Receipt => "RECEIPT",
            Command::Error => "ERROR",
            Command::Disconnect => "DISCONNECT",
        }
    }

    /// Parses a wire keyword.
    pub fn from_keyword(word: &str) -> Option<Command> {
        Some(match word {
            "CONNECT" => Command::Connect,
            "CONNECTED" => Command::Connected,
            "SEND" => Command::Send,
            "SUBSCRIBE" => Command::Subscribe,
            "UNSUBSCRIBE" => Command::Unsubscribe,
            "MESSAGE" => Command::Message,
            "RECEIPT" => Command::Receipt,
            "ERROR" => Command::Error,
            "DISCONNECT" => Command::Disconnect,
            _ => return None,
        })
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A STOMP frame. Headers preserve insertion order; duplicate header names
/// follow the STOMP rule that the **first** occurrence wins on read.
///
/// Every header name and value sits back to back in one `String`, and
/// `spans` records where each name and each value ends (a name starts
/// where the previous value ended). A frame is three heap blocks (header
/// text, spans, body), whatever its header count.
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    command: Command,
    text: String,
    spans: Vec<(usize, usize)>,
    body: Vec<u8>,
}

impl Frame {
    /// Creates a frame with no headers and an empty body.
    pub fn new(command: Command) -> Frame {
        Frame::from_parts(command, String::new(), Vec::new(), Vec::new())
    }

    /// Assembles a frame from header text and spans laid out as [`Frame`]
    /// keeps them (the decoder writes them so).
    pub(crate) fn from_parts(
        command: Command,
        text: String,
        spans: Vec<(usize, usize)>,
        body: Vec<u8>,
    ) -> Frame {
        Frame {
            command,
            text,
            spans,
            body,
        }
    }

    /// The frame's command.
    pub fn command(&self) -> Command {
        self.command
    }

    /// All headers in order, as `(name, value)`.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> + Clone + '_ {
        let mut start = 0;
        self.spans.iter().map(move |&(name_end, value_end)| {
            let header = (&self.text[start..name_end], &self.text[name_end..value_end]);
            start = value_end;
            header
        })
    }

    /// Bytes of header names and values together, unescaped.
    pub(crate) fn header_bytes(&self) -> usize {
        self.text.len()
    }

    /// The first value of the named header, per the STOMP duplicate rule.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Appends a header (builder style).
    pub fn with_header(mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> Frame {
        self.push_header(name, value);
        self
    }

    /// Appends a header in place.
    pub fn push_header(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let (name, value) = (name.as_ref(), value.as_ref());
        self.text.reserve(name.len() + value.len());
        self.text.push_str(name);
        let name_end = self.text.len();
        self.text.push_str(value);
        self.spans.push((name_end, self.text.len()));
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Moves the body out, leaving the frame's body empty.
    pub fn take_body(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.body)
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Frame {
        self.body = body.into();
        self
    }

    /// Sets the body in place.
    pub fn set_body(&mut self, body: impl Into<Vec<u8>>) {
        self.body = body.into();
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Headers<'a>(&'a Frame);
        impl fmt::Debug for Headers<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.headers()).finish()
            }
        }
        f.debug_struct("Frame")
            .field("command", &self.command)
            .field("headers", &Headers(self))
            .field("body", &self.body)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_duplicate_header_wins() {
        let f = Frame::new(Command::Send)
            .with_header("destination", "/a")
            .with_header("destination", "/b");
        assert_eq!(f.header("destination"), Some("/a"));
    }

    #[test]
    fn command_keyword_roundtrip() {
        for c in [
            Command::Connect,
            Command::Connected,
            Command::Send,
            Command::Subscribe,
            Command::Unsubscribe,
            Command::Message,
            Command::Receipt,
            Command::Error,
            Command::Disconnect,
        ] {
            assert_eq!(Command::from_keyword(c.as_str()), Some(c));
        }
        assert_eq!(Command::from_keyword("NOPE"), None);
    }

    #[test]
    fn body_str_requires_utf8() {
        let f = Frame::new(Command::Send).with_body(vec![0xff, 0xfe]);
        assert!(f.body_str().is_none());
        let f = Frame::new(Command::Send).with_body("ok");
        assert_eq!(f.body_str(), Some("ok"));
    }
}
