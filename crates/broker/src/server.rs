//! The networked broker: serves the STOMP dialect over TCP, assigning each
//! connection the privileges its `login` principal holds in the policy file
//! (§4.1: "privileges associated with labels are assigned directly to units
//! ... through a policy specification file").
//!
//! # Connection model
//!
//! The seed held every subscriber on three parked threads (reader, writer,
//! delivery pump); ten thousand idle subscribers meant thirty thousand
//! threads. This version multiplexes all connections over one
//! `safeweb-reactor` epoll loop:
//!
//! * frames are decoded incrementally on the reactor thread and their
//!   effects (login, subscribe, publish) run as jobs of the connection's
//!   scheduler task, in frame order, without a reader thread; reads
//!   pause while [`safeweb_reactor::MAX_IN_FLIGHT`] frames are
//!   unapplied, so a pipelining publisher cannot queue frames without
//!   bound;
//! * broker deliveries reach a subscriber through a **sink**
//!   ([`Broker::subscribe_sink`]): the publisher's thread serialises the
//!   `MESSAGE` frame straight into the connection's bounded outbound
//!   queue and the reactor flushes it with nonblocking writes — an idle
//!   subscriber is a registered fd, not a parked thread;
//! * the outbound queue is capped ([`OUTBOX_CAP`]); a subscriber that
//!   stops reading while deliveries accumulate is disconnected rather
//!   than allowed to buffer unbounded memory in the broker process.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use safeweb_labels::{Policy, PrincipalKind, PrivilegeSet};
use safeweb_reactor::{ConnHandle, Protocol, Reactor, ReactorConfig, SendError};
use safeweb_selector::Selector;
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};

use crate::broker::Broker;
use crate::wire::{
    event_to_frame, frame_to_event_within, WireError, DESTINATION_HEADER, SELECTOR_HEADER,
    SUBSCRIPTION_HEADER, WIRE_INTERN_CAP,
};

/// Per-connection outbound queue cap. A subscriber further behind than
/// this is a slow consumer and is disconnected (the alternative is the
/// broker buffering without bound on its behalf).
pub const OUTBOX_CAP: usize = 4 * 1024 * 1024;

/// Per-connection subscription cap. Each subscription costs a directory
/// entry and an index slot, so a peer past this gets an `ERROR` frame
/// and registers nothing more; replacing or cancelling an existing id
/// still works at the cap.
pub const MAX_SUBSCRIPTIONS: usize = 1024;

/// Label intern-table entries one connection's `SEND`s may add; a novel
/// set adds itself and up to two kind projections, so it is admitted only
/// while three entries are left. Past it the connection may still name
/// known sets; a novel one gets an `ERROR` frame, so one peer cannot
/// spend the process-wide [`WIRE_INTERN_CAP`] alone.
pub const CONN_INTERN_BUDGET: usize = 256;

/// A running broker server; dropping it stops the reactor and closes all
/// connections.
#[derive(Debug)]
pub struct BrokerServer {
    addr: SocketAddr,
    broker: Broker,
    reactor: Reactor,
}

impl BrokerServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving connections, validating logins against `policy`.
    ///
    /// # Errors
    ///
    /// Propagates bind and reactor setup errors.
    pub fn bind(addr: &str, broker: Broker, policy: Policy) -> io::Result<BrokerServer> {
        let policy = Arc::new(policy);
        let conn_broker = broker.clone();
        let config = ReactorConfig {
            name: "safeweb-broker".to_string(),
            outbox_cap: OUTBOX_CAP,
            // Idle subscribers are the working set here: never reap them.
            idle_timeout: None,
        };
        let reactor = Reactor::bind(addr, config, move || {
            Box::new(StompConn::new(conn_broker.clone(), Arc::clone(&policy)))
        })?;
        Ok(BrokerServer {
            addr: reactor.addr(),
            broker,
            reactor,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying embedded broker (shared with all connections).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Connections currently held by the reactor.
    pub fn active_connections(&self) -> usize {
        self.reactor.active_connections()
    }

    /// Outbound bytes queued across every connection (aggregate outbox
    /// depth): a persistently high value means subscribers are draining
    /// slower than publishers are fanning out.
    pub fn queued_bytes(&self) -> usize {
        self.reactor.queued_bytes()
    }

    /// Stops the server: no new connections, existing ones closed and
    /// their subscriptions cleaned up. Idempotent.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

/// Connection-unique client names: `login` alone would let two instances of
/// the same unit clobber each other's subscriptions.
static CONN_SEQ: AtomicU64 = AtomicU64::new(1);

/// Session state established by `CONNECT`, shared between the reactor-side
/// protocol and the worker jobs that apply frame effects.
struct Session {
    client_id: String,
    privileges: PrivilegeSet,
    /// Intern-table entries this connection's `SEND`s added.
    interned: usize,
}

struct SessionShared {
    broker: Broker,
    policy: Arc<Policy>,
    session: Mutex<Option<Session>>,
}

/// Per-connection STOMP state machine (decoding on the reactor thread,
/// frame effects as jobs of the connection's task).
struct StompConn {
    decoder: Decoder,
    shared: Arc<SessionShared>,
    dead: bool,
}

impl StompConn {
    fn new(broker: Broker, policy: Arc<Policy>) -> StompConn {
        StompConn {
            decoder: Decoder::new(),
            shared: Arc::new(SessionShared {
                broker,
                policy,
                session: Mutex::new(None),
            }),
            dead: false,
        }
    }
}

impl Protocol for StompConn {
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
        if self.dead {
            return;
        }
        self.decoder.feed(data);
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    let disconnect = frame.command() == Command::Disconnect;
                    let shared = Arc::clone(&self.shared);
                    let io = conn.clone();
                    conn.dispatch(move || handle_frame(&shared, frame, &io));
                    if disconnect {
                        // Per STOMP, nothing meaningful follows DISCONNECT.
                        self.dead = true;
                        return;
                    }
                }
                Ok(None) => return,
                Err(error) => {
                    self.dead = true;
                    let io = conn.clone();
                    conn.dispatch(move || {
                        let _ = io.send(encode(&error_frame(&error.to_string())));
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
        // Through the FIFO: effects of frames already dispatched (e.g. a
        // receipt for a final SEND) still go out.
        conn.dispatch(move || io.close_after_flush());
    }

    fn on_close(&mut self, conn: &ConnHandle) {
        let shared = Arc::clone(&self.shared);
        // FIFO-ordered after any in-flight frame jobs, so a queued
        // SUBSCRIBE cannot resurrect state after this cleanup.
        conn.dispatch(move || {
            let session = shared.session.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(session) = session.as_ref() {
                shared.broker.unsubscribe_all(&session.client_id);
            }
        });
    }
}

fn handle_frame(shared: &Arc<SessionShared>, frame: Frame, io: &ConnHandle) {
    let mut session = shared.session.lock().unwrap_or_else(|e| e.into_inner());
    match (frame.command(), session.as_mut()) {
        (Command::Connect, None) => {
            let login = frame.header("login").unwrap_or("anonymous");
            let privileges = shared.policy.privileges(PrincipalKind::Unit, login);
            let client_id = format!("{login}#{}", CONN_SEQ.fetch_add(1, Ordering::Relaxed));
            let connected = Frame::new(Command::Connected).with_header("session", &client_id);
            *session = Some(Session {
                client_id,
                privileges,
                interned: 0,
            });
            let _ = io.send(encode(&connected));
        }
        (_, None) => {
            let _ = io.send(encode(&error_frame("expected CONNECT")));
            io.close_after_flush();
        }
        (Command::Disconnect, Some(_)) => {
            io.close_after_flush();
        }
        (Command::Subscribe, Some(session)) => {
            let Some(dest) = frame.header(DESTINATION_HEADER) else {
                let _ = io.send(encode(&error_frame("SUBSCRIBE requires destination")));
                return;
            };
            let sub_id = frame.header("id").unwrap_or("0");
            let selector = match frame.header(SELECTOR_HEADER) {
                Some(src) => match Selector::parse(src) {
                    Ok(sel) => Some(sel),
                    Err(e) => {
                        let _ = io.send(encode(&error_frame(&format!("bad selector: {e}"))));
                        return;
                    }
                },
                None => None,
            };
            // One connection's frames run in order under the session
            // lock, so nothing subscribes for it between check and act.
            let held = shared
                .broker
                .other_subscriptions(&session.client_id, sub_id);
            if held >= MAX_SUBSCRIPTIONS {
                let _ = io.send(encode(&error_frame("too many subscriptions")));
                return;
            }
            let sink_io = io.clone();
            shared.broker.subscribe_sink(
                &session.client_id,
                sub_id,
                dest,
                selector,
                session.privileges,
                Box::new(move |delivery| {
                    let mut frame = event_to_frame(&delivery.event, Command::Message);
                    frame.push_header(SUBSCRIPTION_HEADER, delivery.subscription_id.to_string());
                    match sink_io.send(encode(&frame)) {
                        Ok(()) => true,
                        Err(SendError::Overflow) => {
                            // Backpressure policy: a subscriber this far
                            // behind is disconnected, not buffered for.
                            sink_io.close();
                            false
                        }
                        Err(SendError::Closed) => false,
                    }
                }),
            );
        }
        (Command::Unsubscribe, Some(session)) => {
            let sub_id = frame.header("id").unwrap_or("0");
            shared.broker.unsubscribe(&session.client_id, sub_id);
        }
        (Command::Send, Some(session)) => {
            let spent = session.interned + 3 > CONN_INTERN_BUDGET;
            let cap = if spent { 0 } else { WIRE_INTERN_CAP };
            let event = match frame_to_event_within(&frame, cap) {
                Ok((event, added)) => {
                    session.interned += added;
                    event
                }
                Err(WireError::LabelTableFull) if spent => {
                    let refused = "label set refused: connection budget spent";
                    let _ = io.send(encode(&error_frame(refused)));
                    return;
                }
                Err(e) => {
                    let _ = io.send(encode(&error_frame(&format!("bad SEND: {e}"))));
                    return;
                }
            };
            // The event is owned here: hand it straight to the
            // Arc-based path instead of the defensive-clone
            // `publish(&event)` entry point.
            shared.broker.publish_arc(std::sync::Arc::new(event));
            if let Some(receipt) = frame.header("receipt") {
                let receipt_frame = Frame::new(Command::Receipt).with_header("receipt-id", receipt);
                let _ = io.send(encode(&receipt_frame));
            }
        }
        (other, Some(_)) => {
            let _ = io.send(encode(&error_frame(&format!("unexpected {other}"))));
        }
    }
}

fn error_frame(message: &str) -> Frame {
    Frame::new(Command::Error).with_header("message", message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use safeweb_events::Event;
    use safeweb_reactor::MAX_IN_FLIGHT;

    /// Bytes the reactor reads from a socket at once.
    const READ_BYTES: usize = 64 * 1024;

    /// The STOMP protocol, recording after every read how many of the
    /// connection's jobs are unfinished.
    struct Counted {
        stomp: StompConn,
        max_pending: Arc<AtomicUsize>,
    }

    impl Protocol for Counted {
        fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
            self.stomp.on_bytes(data, conn);
            self.max_pending
                .fetch_max(conn.pending_jobs(), Ordering::SeqCst);
        }

        fn on_eof(&mut self, conn: &ConnHandle) {
            self.stomp.on_eof(conn);
        }

        fn on_close(&mut self, conn: &ConnHandle) {
            self.stomp.on_close(conn);
        }
    }

    /// A publisher pipelining `SEND`s while its first one is stuck in a
    /// subscriber's sink: reads pause at the in-flight cap, so no more
    /// than one read's worth of frames queue past it, and every frame is
    /// published once the sink lets go.
    #[test]
    fn a_pipelining_publisher_is_paused_at_the_in_flight_cap() {
        const FRAMES: usize = 2000;
        let broker = Broker::new();
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(Some(gate));
        let delivered = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&delivered);
        broker.subscribe_sink(
            "gate",
            "1",
            "/t",
            None,
            PrivilegeSet::new(),
            Box::new(move |_| {
                let first = gate.lock().unwrap_or_else(|e| e.into_inner()).take();
                if let Some(gate) = first {
                    gate.recv().unwrap();
                }
                count.fetch_add(1, Ordering::SeqCst);
                true
            }),
        );
        let policy = Arc::new(Policy::default());
        let max_pending = Arc::new(AtomicUsize::new(0));
        let (conn_broker, conn_max) = (broker.clone(), Arc::clone(&max_pending));
        let config = ReactorConfig {
            name: "inflight-test".to_string(),
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind("127.0.0.1:0", config, move || {
            Box::new(Counted {
                stomp: StompConn::new(conn_broker.clone(), Arc::clone(&policy)),
                max_pending: Arc::clone(&conn_max),
            })
        })
        .unwrap();

        let event = Event::new("/t")
            .unwrap()
            .with_payload("x".repeat(1024))
            .with_labels([]);
        let send = encode(&event_to_frame(&event, Command::Send));
        let mut wire = encode(&Frame::new(Command::Connect).with_header("login", "producer"));
        for _ in 0..FRAMES {
            wire.extend_from_slice(&send);
        }
        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        let writer = std::thread::spawn(move || {
            stream.write_all(&wire).unwrap();
            stream
        });
        // Long enough for an unpaused reactor to read every frame.
        std::thread::sleep(Duration::from_millis(300));
        open.send(()).unwrap();
        let _stream = writer.join().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while delivered.load(Ordering::SeqCst) < FRAMES {
            assert!(Instant::now() < deadline, "frames lost");
            std::thread::sleep(Duration::from_millis(1));
        }
        let max = max_pending.load(Ordering::SeqCst);
        let bound = MAX_IN_FLIGHT + READ_BYTES / send.len() + 2;
        assert!(max <= bound, "{max} jobs in flight, cap allows {bound}");
    }
}
