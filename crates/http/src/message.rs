//! HTTP requests and responses, plus the resumable request parser driven
//! by the reactor frontend.

use std::collections::BTreeMap;
use std::fmt;

use crate::base64;

/// Maximum accepted request body, bounding memory under hostile input.
pub const MAX_BODY: usize = 8 * 1024 * 1024;
/// Maximum accepted header section size.
pub const MAX_HEAD: usize = 64 * 1024;

/// HTTP request methods used by the SafeWeb frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
    /// HEAD
    Head,
}

impl Method {
    /// Wire keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    /// Parses a wire keyword.
    pub fn from_keyword(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Case-insensitive header map (stores lowercase names).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    map: BTreeMap<String, String>,
}

impl Headers {
    /// Empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Sets a header (replacing any previous value).
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.map.insert(name.to_ascii_lowercase(), value.into());
    }

    /// Looks a header up, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Iterates over `(lowercased-name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no headers are set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    method: Method,
    /// Path without the query string, e.g. `/records/addenbrookes`.
    path: String,
    /// Decoded query parameters.
    query: BTreeMap<String, String>,
    headers: Headers,
    body: Vec<u8>,
}

impl Request {
    /// Builds a request (used by the client and tests).
    pub fn new(method: Method, target: &str) -> Request {
        let (path, query) = split_target(target);
        Request {
            method,
            path,
            query,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    pub(crate) fn from_parts(
        method: Method,
        target: &str,
        headers: Headers,
        body: Vec<u8>,
    ) -> Request {
        let (path, query) = split_target(target);
        Request {
            method,
            path,
            query,
            headers,
            body,
        }
    }

    /// The request method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The path component (no query string).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// A decoded query parameter.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// All query parameters.
    pub fn query_params(&self) -> &BTreeMap<String, String> {
        &self.query
    }

    /// Header access.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Request {
        self.body = body.into();
        self
    }

    /// Sets a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Adds an HTTP basic `Authorization` header.
    pub fn with_basic_auth(self, user: &str, password: &str) -> Request {
        let token = base64::encode(format!("{user}:{password}").as_bytes());
        self.with_header("authorization", format!("Basic {token}"))
    }

    /// Decodes HTTP basic credentials from the `Authorization` header.
    pub fn basic_auth(&self) -> Option<(String, String)> {
        let value = self.headers.get("authorization")?;
        let token = value
            .strip_prefix("Basic ")
            .or_else(|| value.strip_prefix("basic "))?;
        let decoded = base64::decode(token.trim())?;
        let text = String::from_utf8(decoded).ok()?;
        let (user, password) = text.split_once(':')?;
        Some((user.to_string(), password.to_string()))
    }
}

fn split_target(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        None => (target.to_string(), BTreeMap::new()),
        Some((path, qs)) => {
            let mut query = BTreeMap::new();
            for pair in qs.split('&') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(url_decode(k), url_decode(v));
            }
            (path.to_string(), query)
        }
    }
}

/// Percent-decodes a URL component (plus `+` → space).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 && i + 2 < bytes.len() + 1 => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a URL component.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    headers: Headers,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status and empty body.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// 200 with a `text/html` body.
    pub fn html(body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("content-type", "text/html; charset=utf-8")
            .with_body(body.into())
    }

    /// 200 with an `application/json` body.
    pub fn json(body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("content-type", "application/json")
            .with_body(body.into())
    }

    /// 200 with a `text/plain` body.
    pub fn text(body: impl Into<String>) -> Response {
        Response::new(200)
            .with_header("content-type", "text/plain; charset=utf-8")
            .with_body(body.into())
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The standard reason phrase for the status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Header access.
    pub fn headers(&self) -> &Headers {
        &self.headers
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// Sets a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }
}

/// Error produced while parsing a request from the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request is malformed; the message is suitable for a 400 body.
    Bad(String),
    /// Head or body exceeds [`MAX_HEAD`]/[`MAX_BODY`] (a 413).
    TooLarge,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Bad(msg) => write!(f, "malformed request: {msg}"),
            ParseError::TooLarge => write!(f, "request exceeds size bounds"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A fully parsed head waiting for its body bytes.
#[derive(Debug)]
struct PendingHead {
    method: Method,
    target: String,
    headers: Headers,
    content_length: usize,
}

/// A resumable, incremental HTTP/1.1 request parser.
///
/// The reactor frontend feeds whatever bytes the socket yields
/// ([`RequestParser::feed`]) and drains complete requests
/// ([`RequestParser::next_request`]) — the parser state survives across
/// readiness events, so a request head split over many TCP segments
/// costs no blocking reads and no per-connection thread. Size bounds
/// ([`MAX_HEAD`], [`MAX_BODY`]) are enforced while data accumulates,
/// before a hostile peer can buffer unbounded memory.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted after each request).
    pos: usize,
    /// Bytes of `buf` already scanned for the head terminator, so a head
    /// trickling in across many reads is scanned once, not re-scanned
    /// from the front each time (which would be quadratic on the shared
    /// reactor thread).
    scanned: usize,
    /// Parsed head of the in-progress request, once complete.
    head: Option<PendingHead>,
}

impl RequestParser {
    /// Creates an empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Attempts to extract the next complete request.
    ///
    /// Returns `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on malformed or oversized input; the parser state
    /// is then undefined and the connection should be closed after the
    /// error response.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        if self.head.is_none() {
            let pending = self.buf.len() - self.pos;
            // Resume the terminator scan where the previous call left
            // off, stepping back two bytes for a terminator spanning the
            // chunk boundary (`\n` / `\n\r` already buffered).
            let resume = (self.scanned.max(self.pos) - self.pos).saturating_sub(2);
            let found = find_head_end(&self.buf[self.pos..], resume);
            self.scanned = self.buf.len();
            let Some((head_end, body_start)) = found else {
                if pending > MAX_HEAD {
                    return Err(ParseError::TooLarge);
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD {
                return Err(ParseError::TooLarge);
            }
            let head = parse_head(&self.buf[self.pos..self.pos + head_end])?;
            self.pos += body_start;
            self.head = Some(head);
        }
        let content_length = self.head.as_ref().expect("head parsed").content_length;
        if self.buf.len() - self.pos < content_length {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed");
        let body = self.buf[self.pos..self.pos + content_length].to_vec();
        self.pos += content_length;
        // Compact: drop the consumed prefix so pipelined peers cannot
        // grow the buffer without bound.
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.scanned = 0;
        Ok(Some(Request::from_parts(
            head.method,
            &head.target,
            head.headers,
            body,
        )))
    }
}

/// Finds the end of the head (the blank line) scanning from `start`,
/// tolerating bare-`\n` line endings. Returns `(head_end, body_start)`
/// relative to `buf`.
fn find_head_end(buf: &[u8], start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    while i + 1 < buf.len() {
        if buf[i] == b'\n' {
            if buf[i + 1] == b'\n' {
                return Some((i, i + 2));
            }
            if buf[i + 1] == b'\r' && buf.get(i + 2) == Some(&b'\n') {
                return Some((i, i + 3));
            }
        }
        i += 1;
    }
    None
}

fn parse_head(head: &[u8]) -> Result<PendingHead, ParseError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ParseError::Bad("head is not valid UTF-8".to_string()))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or_default();
    if request_line.is_empty() {
        return Err(ParseError::Bad("empty request line".to_string()));
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::from_keyword)
        .ok_or_else(|| ParseError::Bad("bad method".to_string()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing target".to_string()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad("unsupported HTTP version".to_string()));
    }

    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("malformed header {line:?}")))?;
        headers.set(name.trim(), value.trim().to_string());
    }

    let content_length = match headers.get("content-length") {
        Some(len) => {
            let len: usize = len
                .parse()
                .map_err(|_| ParseError::Bad("bad content-length".to_string()))?;
            if len > MAX_BODY {
                return Err(ParseError::TooLarge);
            }
            len
        }
        None => 0,
    };

    Ok(PendingHead {
        method,
        target,
        headers,
        content_length,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_partial_feeds() {
        let wire = b"POST /submit?x=1 HTTP/1.1\r\ncontent-length: 7\r\nx-a: b\r\n\r\npayload";
        let mut parser = RequestParser::new();
        for chunk in wire.chunks(3) {
            parser.feed(chunk);
        }
        let request = parser.next_request().unwrap().unwrap();
        assert_eq!(request.method(), Method::Post);
        assert_eq!(request.path(), "/submit");
        assert_eq!(request.query("x"), Some("1"));
        assert_eq!(request.headers().get("x-a"), Some("b"));
        assert_eq!(request.body(), b"payload");
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn parser_returns_none_until_body_complete() {
        let mut parser = RequestParser::new();
        parser.feed(b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nab");
        assert!(parser.next_request().unwrap().is_none());
        parser.feed(b"cd");
        let request = parser.next_request().unwrap().unwrap();
        assert_eq!(request.body(), b"abcd");
    }

    #[test]
    fn parser_extracts_pipelined_requests_in_order() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(parser.next_request().unwrap().unwrap().path(), "/a");
        assert_eq!(parser.next_request().unwrap().unwrap().path(), "/b");
        assert!(parser.next_request().unwrap().is_none());
    }

    #[test]
    fn parser_rejects_malformed_input() {
        let mut parser = RequestParser::new();
        parser.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(parser.next_request(), Err(ParseError::Bad(_))));

        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/2.0\r\n\r\n");
        assert!(matches!(parser.next_request(), Err(ParseError::Bad(_))));

        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n");
        assert!(matches!(parser.next_request(), Err(ParseError::Bad(_))));
    }

    #[test]
    fn parser_enforces_size_bounds() {
        let mut parser = RequestParser::new();
        parser.feed(
            format!(
                "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert!(matches!(parser.next_request(), Err(ParseError::TooLarge)));

        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        parser.feed(&vec![b'h'; MAX_HEAD + 2]);
        assert!(matches!(parser.next_request(), Err(ParseError::TooLarge)));
    }

    #[test]
    fn query_parsing_and_decoding() {
        let r = Request::new(Method::Get, "/records?mid=addenbrookes&q=a+b%2Fc");
        assert_eq!(r.path(), "/records");
        assert_eq!(r.query("mid"), Some("addenbrookes"));
        assert_eq!(r.query("q"), Some("a b/c"));
        assert_eq!(r.query("missing"), None);
    }

    #[test]
    fn headers_case_insensitive() {
        let r = Request::new(Method::Get, "/").with_header("X-Thing", "1");
        assert_eq!(r.headers().get("x-thing"), Some("1"));
        assert_eq!(r.headers().get("X-THING"), Some("1"));
    }

    #[test]
    fn basic_auth_roundtrip() {
        let r = Request::new(Method::Get, "/").with_basic_auth("mdt1", "pa:ss");
        let (u, p) = r.basic_auth().unwrap();
        assert_eq!(u, "mdt1");
        assert_eq!(p, "pa:ss");
    }

    #[test]
    fn basic_auth_missing_or_malformed() {
        assert!(Request::new(Method::Get, "/").basic_auth().is_none());
        let r = Request::new(Method::Get, "/").with_header("authorization", "Bearer x");
        assert!(r.basic_auth().is_none());
        let r = Request::new(Method::Get, "/").with_header("authorization", "Basic !!!");
        assert!(r.basic_auth().is_none());
    }

    #[test]
    fn url_encode_decode_roundtrip() {
        let s = "a b/c?d=e&f=100%";
        assert_eq!(url_decode(&url_encode(s)), s);
    }

    #[test]
    fn response_builders() {
        let r = Response::json("{}");
        assert_eq!(r.status(), 200);
        assert_eq!(r.headers().get("content-type"), Some("application/json"));
        assert_eq!(Response::new(403).reason(), "Forbidden");
        assert_eq!(Response::new(418).reason(), "Unknown");
    }
}
