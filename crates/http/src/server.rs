//! The HTTP/1.1 frontend, served from the shared connection reactor.
//!
//! The seed implementation dedicated one blocking thread to every
//! connection; this version keeps the exact same [`Handler`] API but
//! multiplexes all connections over one `safeweb-reactor` event loop:
//!
//! * reads are buffered and parsed incrementally by
//!   [`crate::message::RequestParser`] — a request head split across TCP
//!   segments holds buffer state, not a thread;
//! * each complete request is dispatched as a job to the connection's
//!   task on the reactor's scheduler, which runs them in order, so
//!   pipelined responses keep wire order; reads pause while
//!   [`safeweb_reactor::MAX_IN_FLIGHT`] requests are unanswered;
//! * a handler that panics closes its own connection; the worker and
//!   every other connection are unaffected;
//! * responses are queued on the connection's bounded outbox and flushed
//!   by nonblocking writes.
//!
//! Thread count is `1 + workers` regardless of connection count.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use safeweb_reactor::{ConnHandle, Protocol, Reactor, ReactorConfig};

use crate::message::{Method, ParseError, Request, RequestParser, Response};

pub use crate::message::{MAX_BODY, MAX_HEAD};

/// Requests served per connection before it is closed.
const MAX_KEEPALIVE_REQUESTS: usize = 1000;
/// Idle connections are reaped after this long (the seed's per-read
/// timeout, carried over as an idle timeout).
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The application callback type.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A running HTTP server; dropping it stops the reactor, its scheduler
/// and every connection.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    reactor: Reactor,
}

impl HttpServer {
    /// Binds to `addr` (port 0 for ephemeral) and serves `handler` from
    /// the reactor's scheduler workers.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor setup errors.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<HttpServer> {
        let config = ReactorConfig {
            name: "safeweb-http".to_string(),
            idle_timeout: Some(IDLE_TIMEOUT),
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind(addr, config, move || {
            Box::new(HttpConn::new(Arc::clone(&handler)))
        })?;
        Ok(HttpServer {
            addr: reactor.addr(),
            reactor,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held by the reactor.
    pub fn active_connections(&self) -> usize {
        self.reactor.active_connections()
    }

    /// Outbound bytes queued across every connection (aggregate outbox
    /// depth); see [`Reactor::queued_bytes`].
    pub fn queued_bytes(&self) -> usize {
        self.reactor.queued_bytes()
    }

    /// Wires the underlying reactor's connection telemetry into
    /// `registry` under `prefix`; see [`Reactor::attach_metrics`].
    pub fn attach_metrics(&self, registry: &safeweb_obs::MetricsRegistry, prefix: &str) {
        self.reactor.attach_metrics(registry, prefix);
    }

    /// Stops the server: no new connections, existing ones closed,
    /// in-flight handlers drained. Idempotent.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

/// Per-connection HTTP state machine (runs on the reactor thread).
struct HttpConn {
    handler: Handler,
    parser: RequestParser,
    served: usize,
    /// No further input is interpreted (parse error sent, EOF seen, or
    /// keep-alive budget exhausted).
    dead: bool,
}

impl HttpConn {
    fn new(handler: Handler) -> HttpConn {
        HttpConn {
            handler,
            parser: RequestParser::new(),
            served: 0,
            dead: false,
        }
    }
}

impl Protocol for HttpConn {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        if self.dead {
            return;
        }
        self.parser.feed(data);
        loop {
            match self.parser.next_request() {
                Ok(Some(request)) => {
                    self.served += 1;
                    let close = request
                        .headers()
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                        || self.served >= MAX_KEEPALIVE_REQUESTS;
                    let head_only = request.method() == Method::Head;
                    let handler = Arc::clone(&self.handler);
                    let io = conn.clone();
                    conn.dispatch(move || {
                        let response = handler(request);
                        let _ = io.send(encode_response(&response, close, head_only));
                        if close {
                            io.close_after_flush();
                        }
                    });
                    if close {
                        self.dead = true;
                        return;
                    }
                }
                Ok(None) => return,
                Err(error) => {
                    self.dead = true;
                    let response = match error {
                        ParseError::TooLarge => Response::new(413),
                        ParseError::Bad(msg) => Response::new(400).with_body(msg),
                    };
                    let io = conn.clone();
                    // Through the FIFO, so it follows any in-flight
                    // responses for earlier pipelined requests.
                    conn.dispatch(move || {
                        let _ = io.send(encode_response(&response, true, false));
                        io.close_after_flush();
                    });
                    return;
                }
            }
        }
    }

    fn on_eof(&mut self, conn: &ConnHandle) {
        self.dead = true;
        let io = conn.clone();
        // FIFO again: responses for requests already dispatched still go
        // out before the connection closes.
        conn.dispatch(move || io.close_after_flush());
    }
}

/// Serialises a response, always emitting `content-length` and a
/// `connection` header; a HEAD response carries the would-be body's
/// length but no body bytes. Status line, headers and body go into one
/// buffer allocated at its final size.
fn encode_response(response: &Response, close: bool, head_only: bool) -> Vec<u8> {
    let status = response.status().to_string();
    let length = response.body().len().to_string();
    let connection: &str = if close { "close" } else { "keep-alive" };
    let headers = || {
        response
            .headers()
            .iter()
            .filter(|(k, _)| *k != "content-length" && *k != "connection")
            .chain([
                ("content-length", length.as_str()),
                ("connection", connection),
            ])
    };
    let body: &[u8] = if head_only { &[] } else { response.body() };
    // "HTTP/1.1 " + status + " " + reason + CRLF, "name: value" + CRLF
    // per header, CRLF, body.
    let size = 9
        + status.len()
        + 1
        + response.reason().len()
        + 2
        + headers()
            .map(|(k, v)| k.len() + 2 + v.len() + 2)
            .sum::<usize>()
        + 2
        + body.len();
    let mut bytes = Vec::with_capacity(size);
    for part in ["HTTP/1.1 ", &status, " ", response.reason(), "\r\n"] {
        bytes.extend_from_slice(part.as_bytes());
    }
    for (k, v) in headers() {
        for part in [k, ": ", v, "\r\n"] {
            bytes.extend_from_slice(part.as_bytes());
        }
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body);
    debug_assert_eq!(bytes.len(), size);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use safeweb_reactor::MAX_IN_FLIGHT;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn echo_server() -> HttpServer {
        HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| {
                let body = format!(
                    "{} {} q={} b={}",
                    req.method(),
                    req.path(),
                    req.query("x").unwrap_or("-"),
                    String::from_utf8_lossy(req.body()),
                );
                Response::text(body)
            }),
        )
        .unwrap()
    }

    #[test]
    fn serves_get_and_post() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::get(&addr, "/hello?x=1").unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body_str(), Some("GET /hello q=1 b="));

        let resp = client::send(
            &addr,
            Request::new(Method::Post, "/submit").with_body("payload"),
        )
        .unwrap();
        assert_eq!(resp.body_str(), Some("POST /submit q=- b=payload"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let mut conn = client::Connection::open(&addr).unwrap();
        for i in 0..5 {
            let resp = conn
                .send(Request::new(Method::Get, &format!("/r{i}")))
                .unwrap();
            assert_eq!(resp.status(), 200);
            assert!(resp.body_str().unwrap().contains(&format!("/r{i}")));
        }
    }

    /// Writes `count` requests in one write on `s` and checks their
    /// responses come back in order, each from a separate worker job.
    fn assert_pipelined_in_order(s: &mut TcpStream, count: usize) {
        let mut wire = Vec::new();
        for i in 0..count {
            wire.extend_from_slice(format!("GET /p{i} HTTP/1.1\r\n\r\n").as_bytes());
        }
        s.write_all(&wire).unwrap();
        // Read until every response body marker has arrived; only EOF or
        // the 5 s read timeout ends the wait early (a byte count cannot:
        // response sizes depend on the headers).
        let marker = |i: usize| format!("GET /p{i} ");
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let text = String::from_utf8_lossy(&got);
            if (0..count).all(|i| text.contains(&marker(i))) {
                break;
            }
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
            }
        }
        let text = String::from_utf8_lossy(&got);
        let positions: Vec<usize> = (0..count)
            .map(|i| {
                text.find(&marker(i))
                    .unwrap_or_else(|| panic!("response {i} missing: {text}"))
            })
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(
            positions, sorted,
            "pipelined responses out of order: {text}"
        );
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_pipelined_in_order(&mut s, 10);
    }

    /// Twice `MAX_IN_FLIGHT` requests in one write pause reads halfway;
    /// the pause lifts as the jobs drain, so every response arrives in
    /// order and the connection then serves the next batch.
    #[test]
    fn a_pipeline_past_the_pause_threshold_is_answered_and_reads_resume() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_pipelined_in_order(&mut s, 2 * MAX_IN_FLIGHT);
        assert_pipelined_in_order(&mut s, 2 * MAX_IN_FLIGHT);
    }

    /// More panicking requests than the scheduler has workers, each on a
    /// connection of its own: every one closes only its connection, and
    /// a new connection is still answered.
    #[test]
    fn panicking_handlers_leave_the_server_serving() {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            Arc::new(|req: Request| {
                assert_ne!(req.path(), "/panic", "handler panics");
                Response::text("ok")
            }),
        )
        .unwrap();
        let addr = server.addr().to_string();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8);
        for _ in 0..=workers {
            assert!(client::get(&addr, "/panic").is_err(), "no response");
        }
        let resp = client::get(&addr, "/ok").unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.body_str(), Some("ok"));
    }

    #[test]
    fn encoded_response_is_exactly_sized_and_overrides_framing_headers() {
        let response = Response::new(403)
            .with_header("content-type", "text/plain")
            .with_header("content-length", "999")
            .with_header("connection", "upgrade")
            .with_body("denied");
        let bytes = encode_response(&response, false, false);
        assert_eq!(
            String::from_utf8(bytes.clone()).unwrap(),
            "HTTP/1.1 403 Forbidden\r\ncontent-type: text/plain\r\ncontent-length: 6\r\n\
             connection: keep-alive\r\n\r\ndenied"
        );
        assert_eq!(bytes.capacity(), bytes.len(), "one allocation, no regrowth");
        let head = encode_response(&response, true, true);
        assert!(head.ends_with(b"content-length: 6\r\nconnection: close\r\n\r\n"));
        assert_eq!(head.capacity(), head.len());
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(
            format!(
                "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        )
        .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    }

    #[test]
    fn head_omits_body() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::send(&addr, Request::new(Method::Head, "/x")).unwrap();
        assert_eq!(resp.status(), 200);
        assert!(resp.body().is_empty());
        // content-length still describes the would-be body.
        assert_ne!(resp.headers().get("content-length"), Some("0"));
    }

    #[test]
    fn connection_close_is_honoured() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let resp = client::send(
            &addr,
            Request::new(Method::Get, "/bye").with_header("connection", "close"),
        )
        .unwrap();
        assert_eq!(resp.status(), 200);
        assert_eq!(resp.headers().get("connection"), Some("close"));
    }
}
