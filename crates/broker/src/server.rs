//! The networked broker: serves the STOMP dialect over TCP, assigning each
//! connection the privileges its `login` principal holds in the policy file
//! (§4.1: "privileges associated with labels are assigned directly to units
//! ... through a policy specification file"). They decide what the
//! connection may receive and, under the relabel rule
//! ([`check_relabel`]), which labels its `SEND`s may carry. `login` is
//! taken on trust: nothing authenticates it yet.
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
use std::sync::Arc;

use safeweb_labels::{check_relabel, Policy, PrivilegeSet, RemoveSpec};
use safeweb_reactor::{ConnHandle, Protocol, Reactor, ReactorConfig, SendError};
use safeweb_selector::Selector;
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};
use safeweb_sync::Mutex;

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
    /// Whether the policy declares `login` a `privileged` unit.
    privileged: bool,
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
            let session = shared.session.lock();
            if let Some(session) = session.as_ref() {
                shared.broker.unsubscribe_all(&session.client_id);
            }
        });
    }
}

/// Applies one frame and answers it. A frame carrying `receipt` gets a
/// `RECEIPT`, or the `ERROR` that refuses it, with that `receipt-id`
/// (STOMP 1.2), so a client learns which request failed. A frame
/// without one costs one header lookup and is answered only if refused.
fn handle_frame(shared: &Arc<SessionShared>, frame: Frame, io: &ConnHandle) {
    let receipt = frame.header("receipt").map(str::to_owned);
    let command = frame.command();
    let mut session = shared.session.lock();
    let answer = match apply_frame(shared, &mut session, frame, io) {
        Ok(()) => receipt.map(|id| Frame::new(Command::Receipt).with_header("receipt-id", id)),
        Err(message) => Some(match receipt {
            Some(id) => error_frame(&message).with_header("receipt-id", id),
            None => error_frame(&message),
        }),
    };
    if let Some(answer) = answer {
        let _ = io.send(encode(&answer));
    }
    // Nothing follows DISCONNECT, and nothing but CONNECT opens a session.
    if command == Command::Disconnect || session.is_none() {
        io.close_after_flush();
    }
}

/// One frame's effect; `Err` carries the refusing `ERROR`'s message.
fn apply_frame(
    shared: &SessionShared,
    session: &mut Option<Session>,
    frame: Frame,
    io: &ConnHandle,
) -> Result<(), String> {
    match (frame.command(), session.as_mut()) {
        (Command::Connect, None) => {
            let login = frame.header("login").unwrap_or("anonymous");
            let privileges = shared.policy.privileges(login);
            let privileged = shared.policy.is_privileged_unit(login);
            let client_id = format!("{login}#{}", CONN_SEQ.fetch_add(1, Ordering::Relaxed));
            let connected = Frame::new(Command::Connected).with_header("session", &client_id);
            *session = Some(Session {
                client_id,
                privileges,
                privileged,
                interned: 0,
            });
            let _ = io.send(encode(&connected));
        }
        (_, None) => return Err("expected CONNECT".to_string()),
        (Command::Disconnect, Some(_)) => {}
        (Command::Subscribe, Some(session)) => {
            let Some(dest) = frame.header(DESTINATION_HEADER) else {
                return Err("SUBSCRIBE requires destination".to_string());
            };
            let sub_id = frame.header("id").unwrap_or("0");
            let selector = match frame.header(SELECTOR_HEADER) {
                Some(src) => Some(Selector::parse(src).map_err(|e| format!("bad selector: {e}"))?),
                None => None,
            };
            // One connection's frames run in order under the session
            // lock, so nothing subscribes for it between check and act.
            let held = shared
                .broker
                .other_subscriptions(&session.client_id, sub_id);
            if held >= MAX_SUBSCRIPTIONS {
                return Err("too many subscriptions".to_string());
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
                    frame.push_header(SUBSCRIPTION_HEADER, &*delivery.subscription_id);
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
            // A peer's labels are additions to the empty set, decided
            // before they may take intern-table space.
            let (privileges, privileged) = (session.privileges, session.privileged);
            let admit =
                |add: &[_]| check_relabel(&[], &RemoveSpec::None, add, &privileges, privileged);
            let event = match frame_to_event_within(frame, cap, admit) {
                Ok((event, added)) => {
                    session.interned += added;
                    event
                }
                Err(WireError::LabelTableFull) if spent => {
                    return Err("label set refused: connection budget spent".to_string());
                }
                Err(e) => return Err(format!("bad SEND: {e}")),
            };
            // The event is owned here: hand it straight to the
            // Arc-based path instead of the defensive-clone
            // `publish(&event)` entry point.
            shared.broker.publish_arc(std::sync::Arc::new(event));
        }
        (other, Some(_)) => return Err(format!("unexpected {other}")),
    }
    Ok(())
}

fn error_frame(message: &str) -> Frame {
    Frame::new(Command::Error).with_header("message", message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use safeweb_events::Event;
    use safeweb_reactor::MAX_IN_FLIGHT;

    /// Bytes the reactor reads from a socket at once.
    const READ_BYTES: usize = 64 * 1024;

    /// The STOMP protocol, recording after every read how many of the
    /// connection's jobs are unfinished, and saying once when a read has
    /// left enough of them to pause the connection.
    struct Counted {
        stomp: StompConn,
        max_pending: Arc<AtomicUsize>,
        paused: Option<mpsc::Sender<()>>,
    }

    impl Protocol for Counted {
        fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
            self.stomp.on_bytes(data, conn);
            let pending = conn.pending_jobs();
            self.max_pending.fetch_max(pending, Ordering::SeqCst);
            if pending >= MAX_IN_FLIGHT {
                if let Some(paused) = self.paused.take() {
                    let _ = paused.send(());
                }
            }
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
                let first = gate.lock().take();
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
        let (paused_tx, paused) = mpsc::channel();
        let paused_tx = Mutex::new(paused_tx);
        let config = ReactorConfig {
            name: "inflight-test".to_string(),
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind("127.0.0.1:0", config, move || {
            Box::new(Counted {
                stomp: StompConn::new(conn_broker.clone(), Arc::clone(&policy)),
                max_pending: Arc::clone(&conn_max),
                paused: Some(paused_tx.lock().clone()),
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
        // The publisher's jobs reached the cap, so reads should stop.
        // A reactor that kept reading would read this connection again
        // (level-triggered, more bytes waiting) in the loop turns that
        // serve a second session's CONNECT, going past the bound.
        paused
            .recv_timeout(Duration::from_secs(10))
            .expect("the jobs never reached the in-flight cap");
        let mut probe = TcpStream::connect(reactor.addr()).unwrap();
        probe
            .write_all(&encode(
                &Frame::new(Command::Connect).with_header("login", "probe"),
            ))
            .unwrap();
        let mut connected = Decoder::new();
        let mut chunk = [0u8; 256];
        let reply = loop {
            let n = probe.read(&mut chunk).unwrap();
            assert!(n > 0, "the reactor closed the probe");
            connected.feed(&chunk[..n]);
            if let Some(frame) = connected.next_frame().unwrap() {
                break frame;
            }
        };
        assert_eq!(reply.command(), Command::Connected);
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
