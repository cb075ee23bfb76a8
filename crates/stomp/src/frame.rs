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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    command: Command,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Frame {
    /// Creates a frame with no headers and an empty body.
    pub fn new(command: Command) -> Frame {
        Frame {
            command,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The frame's command.
    pub fn command(&self) -> Command {
        self.command
    }

    /// All headers in order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// The first value of the named header, per the STOMP duplicate rule.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a header (builder style).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Frame {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Appends a header in place.
    pub fn push_header(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.headers.push((name.into(), value.into()));
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
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
