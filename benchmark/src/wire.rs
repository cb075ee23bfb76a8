//! The generator's two blocking sockets: a keep-alive HTTP/1.1 client
//! that sends prebuilt request bytes, and a STOMP publisher that sends
//! prebuilt `SEND` frames. Blocking reads and writes only — a generator
//! thread waiting for the server is asleep in the kernel, not spinning.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};

/// No operation in any workload takes this long; a read that does is
/// reported as a failed operation instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// A keep-alive connection to the frontend.
pub struct HttpConn {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Status and body of one response; the body borrows the connection's
/// buffer until the next request.
pub struct HttpReply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

impl HttpConn {
    pub fn open(addr: &str) -> io::Result<HttpConn> {
        Ok(HttpConn {
            addr: addr.to_string(),
            stream: connect(addr)?,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one prebuilt request and reads its whole response.
    pub fn request(&mut self, request: &[u8]) -> io::Result<HttpReply<'_>> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one prebuilt request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads the whole response to the request last sent. When the
    /// server announces `connection: close` (its keep-alive budget), the
    /// next request transparently runs on a fresh connection.
    pub fn recv(&mut self) -> io::Result<HttpReply<'_>> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let (head_end, body_len, close, status) = loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| bad("response head is not UTF-8"))?;
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("bad status line"))?;
                let mut body_len = 0usize;
                let mut close = false;
                for line in head.lines().skip(1) {
                    let Some((name, value)) = line.split_once(':') else {
                        continue;
                    };
                    if name.eq_ignore_ascii_case("content-length") {
                        body_len = value.trim().parse().map_err(|_| bad("bad length"))?;
                    } else if name.eq_ignore_ascii_case("connection") {
                        close = value.trim().eq_ignore_ascii_case("close");
                    }
                }
                break (head_end + 4, body_len, close, status);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        while self.buf.len() < head_end + body_len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if close {
            self.stream = connect(&self.addr)?;
        }
        Ok(HttpReply {
            status,
            body: &self.buf[head_end..head_end + body_len],
        })
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message)
}

/// First occurrence of `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A logged-in STOMP publisher connection to the broker server.
pub struct StompConn {
    stream: TcpStream,
}

impl StompConn {
    /// Connects and logs in as `login` (a unit name from the policy).
    pub fn connect(addr: &str, login: &str) -> io::Result<StompConn> {
        let mut stream = connect(addr)?;
        stream.write_all(&encode(
            &Frame::new(Command::Connect).with_header("login", login),
        ))?;
        let mut decoder = Decoder::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            decoder.feed(&chunk[..n]);
            match decoder.next_frame() {
                Ok(Some(f)) if f.command() == Command::Connected => {
                    return Ok(StompConn { stream });
                }
                Ok(Some(f)) => {
                    return Err(bad(&format!("expected CONNECTED, got {}", f.command())))
                }
                Ok(None) => {}
                Err(e) => return Err(bad(&e.to_string())),
            }
        }
    }

    /// Writes one prebuilt frame.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_first_occurrence() {
        assert_eq!(find(b"ab\r\n\r\ncd", b"\r\n\r\n"), Some(2));
        assert_eq!(find(b"abcd", b"\r\n\r\n"), None);
    }
}
