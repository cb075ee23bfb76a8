//! The blocking, frame-oriented TCP transport used by the STOMP client.
//!
//! The paper's broker extends StompServer with SSL at the transport layer;
//! this reproduction uses plaintext TCP (see DESIGN.md §5 — transport
//! encryption is orthogonal to the IFC contribution).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::codec::{encode, Decoder};
use crate::frame::Frame;

/// A bidirectional, frame-oriented connection over a [`TcpStream`].
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    decoder: Decoder,
    read_buf: [u8; 8192],
}

impl TcpTransport {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        TcpTransport {
            stream,
            decoder: Decoder::new(),
            read_buf: [0; 8192],
        }
    }

    /// Connects to `addr` (e.g. `"127.0.0.1:61613"`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<TcpTransport> {
        Ok(TcpTransport::new(TcpStream::connect(addr)?))
    }

    /// Sets the read timeout of the underlying socket.
    ///
    /// # Errors
    ///
    /// Propagates socket option errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Access to the underlying stream, e.g. for shutdown.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer is gone or the write fails.
    pub fn send_frame(&mut self, frame: &Frame) -> io::Result<()> {
        let bytes = encode(frame);
        self.stream.write_all(&bytes)?;
        self.stream.flush()
    }

    /// Receives the next frame, blocking. Returns `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on connection failure, or `InvalidData` when
    /// the peer sends a malformed frame.
    pub fn recv_frame(&mut self) -> io::Result<Option<Frame>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                // EOF: any buffered partial frame is discarded.
                return Ok(None);
            }
            self.decoder.feed(&self.read_buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Command;

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let f = t.recv_frame().unwrap().unwrap();
            assert_eq!(f.command(), Command::Send);
            t.send_frame(&Frame::new(Command::Receipt).with_header("receipt-id", "1"))
                .unwrap();
            // EOF after client drops.
            assert!(t.recv_frame().unwrap().is_none());
        });
        let mut client = TcpTransport::connect(&addr.to_string()).unwrap();
        client
            .send_frame(&Frame::new(Command::Send).with_body("hello"))
            .unwrap();
        let receipt = client.recv_frame().unwrap().unwrap();
        assert_eq!(receipt.command(), Command::Receipt);
        drop(client);
        server.join().unwrap();
    }
}
