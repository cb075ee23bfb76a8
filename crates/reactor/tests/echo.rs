//! End-to-end reactor tests over a line-echo protocol: framing across
//! partial reads, worker dispatch ordering, backpressure, close
//! semantics, idle timeouts, and shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use safeweb_reactor::{ConnHandle, Protocol, Reactor, ReactorConfig};

/// Echoes each `\n`-terminated line back, uppercased, via a dispatched job —
/// exercising the read → parse → dispatch → send → flush pipeline.
struct UpperEcho {
    buf: Vec<u8>,
}

impl UpperEcho {
    fn new() -> UpperEcho {
        UpperEcho { buf: Vec::new() }
    }
}

impl Protocol for UpperEcho {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let conn = conn.clone();
            let inner = conn.clone();
            conn.dispatch(move || {
                let _ = inner.send(line.to_ascii_uppercase());
            });
        }
    }
}

fn config() -> ReactorConfig {
    ReactorConfig {
        name: "echo-test".to_string(),
        ..ReactorConfig::default()
    }
}

fn start_echo(config: ReactorConfig) -> Reactor {
    Reactor::bind("127.0.0.1:0", config, || Box::new(UpperEcho::new())).unwrap()
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte).unwrap();
        if n == 0 || byte[0] == b'\n' {
            break;
        }
        out.push(byte[0]);
    }
    String::from_utf8(out).unwrap()
}

#[test]
fn echoes_lines_in_order() {
    let reactor = start_echo(config());
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for i in 0..50 {
        writeln!(stream, "line {i}").unwrap();
    }
    for i in 0..50 {
        // Per-connection FIFO dispatch must preserve wire order even
        // though each line is a separate job.
        assert_eq!(read_line(&mut stream), format!("LINE {i}"));
    }
}

#[test]
fn handles_partial_and_coalesced_writes() {
    let reactor = start_echo(config());
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // One line dribbled byte by byte, then two lines in one write.
    for b in b"hello\n" {
        stream.write_all(&[*b]).unwrap();
    }
    assert_eq!(read_line(&mut stream), "HELLO");
    stream.write_all(b"a\nb\n").unwrap();
    assert_eq!(read_line(&mut stream), "A");
    assert_eq!(read_line(&mut stream), "B");
}

#[test]
fn many_concurrent_connections_with_bounded_threads() {
    let reactor = start_echo(config());
    let addr = reactor.addr();
    let mut clients: Vec<TcpStream> = (0..200)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        writeln!(c, "client {i}").unwrap();
    }
    for (i, c) in clients.iter_mut().enumerate() {
        assert_eq!(read_line(c), format!("CLIENT {i}"));
    }
    assert_eq!(reactor.active_connections(), 200);
    drop(clients);
    // Disconnects are noticed by the event loop, not by parked threads.
    for _ in 0..100 {
        if reactor.active_connections() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(reactor.active_connections(), 0);
}

#[test]
fn one_loop_serves_many_pipelined_connections_and_drains() {
    // 64 connections on the one event loop, each pipelining ten lines:
    // the scheduler preserves per-connection FIFO order, every
    // connection is counted exactly once, and the outboxes drain to zero.
    let mut reactor = start_echo(config());
    let addr = reactor.addr();
    let mut clients: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for j in 0..10 {
            writeln!(c, "conn {i} line {j}").unwrap();
        }
    }
    for (i, c) in clients.iter_mut().enumerate() {
        for j in 0..10 {
            assert_eq!(read_line(c), format!("CONN {i} LINE {j}"));
        }
    }
    // Every accepted connection is counted exactly once.
    for _ in 0..100 {
        if reactor.active_connections() == 64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(reactor.active_connections(), 64);
    // The depth counter is relaxed: give the last flush a moment to land.
    for _ in 0..200 {
        if reactor.queued_bytes() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(reactor.queued_bytes(), 0, "drained outboxes leak depth");
    drop(clients);
    reactor.shutdown();
}

#[test]
fn shutdown_closes_connections_and_joins() {
    let mut reactor = start_echo(config());
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    writeln!(stream, "ping").unwrap();
    assert_eq!(read_line(&mut stream), "PING");
    reactor.shutdown();
    // The peer observes EOF promptly.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

#[test]
fn idle_connections_are_reaped_when_configured() {
    let reactor = start_echo(ReactorConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..config()
    });
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    writeln!(stream, "alive").unwrap();
    assert_eq!(read_line(&mut stream), "ALIVE");
    // Stay idle past the timeout: the sweep closes us (EOF).
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
}

/// A protocol that never reads its input queue down: every received byte
/// is answered with 1 KiB, overrunning a tiny outbox cap.
struct Flooder;

impl Protocol for Flooder {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        for _ in 0..data.len() {
            if conn.send(vec![b'x'; 1024]).is_err() {
                // Backpressure policy under test: drop the connection.
                conn.close();
                return;
            }
        }
    }
}

#[test]
fn outbox_overflow_surfaces_and_policy_closes() {
    let reactor = Reactor::bind(
        "127.0.0.1:0",
        ReactorConfig {
            name: "flood-test".to_string(),
            outbox_cap: 16 * 1024,
            idle_timeout: None,
        },
        || Box::new(Flooder),
    )
    .unwrap();
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Ask for far more than the cap without reading: the reactor cannot
    // flush (our receive window fills), send() overflows, conn closes.
    stream.write_all(&[b'?'; 4096]).unwrap();
    let mut drained = Vec::new();
    let got = stream.read_to_end(&mut drained);
    // Either a clean EOF after the cap's worth of data, or a reset.
    if got.is_ok() {
        assert!(
            drained.len() <= 64 * 1024,
            "cap not enforced: {}",
            drained.len()
        );
    }
}
