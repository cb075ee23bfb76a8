//! Regression test for the accept-loop fragility fixed by the reactor:
//! the pre-reactor frontends broke their accept loop on the first
//! transient `accept()` error (e.g. `EMFILE`), permanently killing the
//! server. Here `EMFILE` is provoked for real by clamping the process's
//! open-file soft limit; the reactor must count, log and retry, then
//! accept new connections normally once descriptors free up.
//!
//! This lives in its own integration-test binary: the rlimit is process
//! state, and sharing a process with unrelated parallel tests would make
//! their socket use flaky.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use safeweb_reactor::{sys, ConnHandle, Protocol, Reactor, ReactorConfig};

struct Echo;

impl Protocol for Echo {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        let _ = conn.send(data.to_vec());
    }
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(64)
}

fn echo_roundtrip(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"ping")?;
    let mut buf = [0u8; 4];
    stream.read_exact(&mut buf)?;
    assert_eq!(&buf, b"ping");
    Ok(())
}

#[test]
fn accept_survives_emfile() {
    let reactor = Reactor::bind(
        "127.0.0.1:0",
        ReactorConfig {
            name: "emfile-test".to_string(),
            ..ReactorConfig::default()
        },
        || Box::new(Echo),
    )
    .unwrap();
    let addr = reactor.addr();
    echo_roundtrip(addr).expect("server healthy before fd pressure");

    // Clamp the soft limit to just above current usage, then burn the
    // headroom with held client sockets until connects start failing —
    // at that point the server's accept() is failing with EMFILE too
    // (each accept needs a free descriptor in this same process).
    let previous = sys::set_nofile_soft(open_fds() + 6).expect("setrlimit");
    let mut hoard = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_exhaustion = false;
    while Instant::now() < deadline {
        match TcpStream::connect(addr) {
            Ok(stream) => hoard.push(stream),
            Err(_) => {
                saw_exhaustion = true;
                break;
            }
        }
    }
    // The reactor must really hit (and survive) a failing accept for a
    // connection queued in the backlog: its error count says it did.
    let counted = Instant::now() + Duration::from_secs(5);
    while reactor.accept_errors() == 0 && Instant::now() < counted {
        std::thread::sleep(Duration::from_millis(2));
    }
    let accept_errors = reactor.accept_errors();

    // Free the descriptors and restore the limit: the server must still
    // be accepting. Before the fix this locked the frontend up forever.
    drop(hoard);
    sys::set_nofile_soft(previous).expect("restore rlimit");

    assert!(
        saw_exhaustion,
        "test precondition: fd exhaustion was never reached"
    );
    assert!(
        accept_errors >= 1,
        "test precondition: the reactor never saw a failing accept()"
    );
    let mut ok = false;
    for _ in 0..20 {
        if echo_roundtrip(addr).is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(ok, "server stopped accepting after transient EMFILE");
}
