//! Abstraction over how the engine reaches the event broker: in-process
//! (embedded [`Broker`]) or over the network (STOMP client).

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use safeweb_broker::wire::{
    self, event_to_frame, DESTINATION_HEADER, SELECTOR_HEADER, SUBSCRIPTION_HEADER, WIRE_INTERN_CAP,
};
pub use safeweb_broker::DeliverySink;
use safeweb_broker::{Broker, Delivery};
use safeweb_events::LabelledEvent;
use safeweb_labels::PrivilegeSet;
use safeweb_stomp::codec::encode;
use safeweb_stomp::{Command, Frame, TcpTransport};
use safeweb_sync::{Mutex, Signal};

use crate::error::EngineError;

/// The engine's view of the broker.
pub trait EventBus: Send + Sync {
    /// Registers a subscription whose deliveries are pushed through
    /// `sink`: a delivery lands directly in the unit's bounded inbox and
    /// makes its task ready, with no per-unit thread parked on a
    /// channel. The embedded broker invokes `sink` on the publisher's
    /// thread, [`RemoteBus`] on its one reader thread.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on transport failure or when the
    /// broker refuses the subscription (a bad selector, say).
    fn subscribe(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError>;

    /// Publishes a labelled event.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on transport failure or when the
    /// broker refuses the event.
    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError>;

    /// Publishes a batch of labelled events in one bus pass: the
    /// embedded broker amortizes routing locks and stats across it,
    /// [`RemoteBus`] waits for one receipt.
    ///
    /// # Errors
    ///
    /// Every event is attempted even when an earlier one fails; the
    /// first failure is returned.
    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError>;

    /// Wakes every thread this bus has blocked waiting on the broker, and
    /// fails every request after it, so a stopping engine can join its
    /// workers even if the broker stopped answering. The default does
    /// nothing: the embedded broker never waits on a peer.
    fn close(&self) {}
}

impl EventBus for Broker {
    fn subscribe(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError> {
        let selector = match selector {
            Some(src) => Some(
                safeweb_selector::Selector::parse(src)
                    .map_err(|e| EngineError::Bus(format!("bad selector: {e}")))?,
            ),
            None => None,
        };
        Broker::subscribe_sink(
            self,
            client,
            subscription_id,
            topic,
            selector,
            clearance,
            sink,
        );
        Ok(())
    }

    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError> {
        Broker::publish(self, event);
        Ok(())
    }

    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError> {
        Broker::publish_batch(self, events);
        Ok(())
    }
}

/// A subscription's sink, shared so the reader thread can call it
/// outside the `routes` lock.
type Route = Arc<dyn Fn(Delivery) -> bool + Send + Sync>;

type Routes = Arc<Mutex<HashMap<String, Route>>>;

/// The subscription leg's writing half, and the reader's answers to its
/// `SUBSCRIBE`s, one per frame in order (each carries a `receipt`).
struct SubscribeLeg {
    writer: TcpTransport,
    answers: mpsc::Receiver<Result<(), String>>,
}

/// How long [`EventBus::close`] lets a request already written wait for
/// its answer before it shuts the connections down.
const CLOSE_GRACE: Duration = Duration::from_millis(250);

struct RemoteBusInner {
    publisher: Mutex<TcpTransport>,
    /// Whether a request on `publisher` waits for its answer.
    awaiting: AtomicBool,
    /// Notified when a request stops waiting for its answer.
    answered: Signal,
    subscriber: Mutex<SubscribeLeg>,
    /// Both connections, reachable without the locks a blocked request
    /// holds.
    sockets: [TcpStream; 2],
    routes: Routes,
    next_id: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl RemoteBusInner {
    /// Shuts both connections down: a blocked read sees EOF, and every
    /// later write fails.
    fn shut_down(&self) {
        for socket in &self.sockets {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for RemoteBusInner {
    fn drop(&mut self) {
        // The reader holds the subscription socket's other handle; the
        // shutdown ends its blocking read.
        self.shut_down();
        // The last handle may drop on the reader, inside a sink it drops.
        let reader = self.reader.take();
        if let Some(reader) = reader.filter(|r| r.thread().id() != thread::current().id()) {
            let _ = reader.join();
        }
    }
}

/// [`EventBus`] over a networked broker: one STOMP connection for
/// publishing and one for subscriptions.
///
/// Every request waits for its answer. A batch's last `SEND` carries a
/// `receipt`, and [`EventBus::publish_batch`] reads the publishing
/// connection until its `RECEIPT` or `ERROR`: a `SEND` the broker
/// refuses comes back as [`EngineError::Bus`]. That connection never
/// subscribes, so no `MESSAGE` waits on it. A `SUBSCRIBE` carries a
/// `receipt` too, and [`EventBus::subscribe`] returns once the broker
/// answered it.
///
/// One reader thread, started at [`RemoteBus::connect`], reads the
/// subscription connection with blocking reads. It hands each
/// `MESSAGE` to its subscription's sink by subscription id, and each
/// answer to the waiting `subscribe`. A `MESSAGE` this process cannot
/// decode (its label intern table is full) is skipped. Dropping the last
/// handle shuts the connections down and joins the reader.
/// [`EventBus::close`] shuts them down too, once a request already
/// written has had its answer or a 250 ms grace has passed, so a request
/// waiting on a broker that never answers fails instead of waiting
/// forever.
///
/// The reader calls the sink directly, so a unit whose inbox is full
/// stalls the reader and, through it, the subscription socket: the
/// backlog then sits in the broker server's per-connection outbound
/// queue, bounded by `safeweb_broker::OUTBOX_CAP` (a subscriber further
/// behind than that is disconnected).
///
/// With a remote bus, clearance is assigned **server-side** from the
/// broker's policy file based on the login; the `clearance` argument to
/// [`EventBus::subscribe`] is ignored.
#[derive(Clone)]
pub struct RemoteBus {
    inner: Arc<RemoteBusInner>,
}

impl RemoteBus {
    /// How long [`RemoteBus::connect`] waits for the broker's `CONNECTED`
    /// on each connection.
    pub const LOGIN_TIMEOUT: Duration = Duration::from_secs(2);

    /// Connects both legs to `addr`, logging in as `login`, and starts
    /// the reader.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on connection failure, if the broker
    /// refuses the session, or if it does not answer a log-in within
    /// [`RemoteBus::LOGIN_TIMEOUT`].
    pub fn connect(addr: &str, login: &str) -> Result<RemoteBus, EngineError> {
        let publisher = log_in(addr, login)?;
        let writer = log_in(addr, login)?;
        let socket = |leg: &TcpTransport| leg.stream().try_clone().map_err(bus_error);
        let reader = TcpTransport::new(socket(&writer)?);
        let routes = Routes::default();
        let (answer, answers) = mpsc::channel();
        let reader_routes = Arc::clone(&routes);
        let reader = thread::Builder::new()
            .name("safeweb-remote-bus-reader".to_string())
            .spawn(move || read_loop(reader, &reader_routes, &answer))
            .map_err(bus_error)?;
        Ok(RemoteBus {
            inner: Arc::new(RemoteBusInner {
                sockets: [socket(&publisher)?, socket(&writer)?],
                publisher: Mutex::new(publisher),
                awaiting: AtomicBool::new(false),
                answered: Signal::new(),
                subscriber: Mutex::new(SubscribeLeg { writer, answers }),
                routes,
                next_id: AtomicU64::new(1),
                reader: Some(reader),
            }),
        })
    }

    /// Sends `events` as `SEND`s in one write, the last with a `receipt`,
    /// and waits for the broker's answer.
    fn send(&self, events: &[LabelledEvent]) -> Result<(), EngineError> {
        let Some((last, rest)) = events.split_last() else {
            return Ok(());
        };
        let mut bytes = Vec::new();
        for event in rest {
            bytes.extend(encode(&event_to_frame(event, Command::Send)));
        }
        let frame = event_to_frame(last, Command::Send).with_header("receipt", "batch");
        bytes.extend(encode(&frame));
        let mut publisher = self.inner.publisher.lock();
        self.inner.awaiting.store(true, Ordering::SeqCst);
        let answer = request(&mut publisher, &bytes);
        self.inner.awaiting.store(false, Ordering::SeqCst);
        self.inner.answered.notify_all();
        answer
    }
}

/// Writes `bytes`, whose last frame carries a `receipt`, and reads until
/// the broker answers it. The first `ERROR` is the result.
fn request(publisher: &mut TcpTransport, bytes: &[u8]) -> Result<(), EngineError> {
    publisher.stream().write_all(bytes).map_err(bus_error)?;
    let mut refused = None;
    loop {
        match publisher.recv_frame().map_err(bus_error)? {
            Some(f) if f.command() == Command::Receipt => break,
            Some(f) if f.command() == Command::Error => {
                refused.get_or_insert_with(|| refusal(Some(&f)));
                if f.header("receipt-id").is_some() {
                    break;
                }
            }
            other => return Err(EngineError::Bus(refusal(other.as_ref()))),
        }
    }
    refused.map_or(Ok(()), |message| Err(EngineError::Bus(message)))
}

fn bus_error(e: impl std::fmt::Display) -> EngineError {
    EngineError::Bus(e.to_string())
}

/// What the broker said instead of the answer a request expected.
fn refusal(frame: Option<&Frame>) -> String {
    match frame {
        None => "broker closed the connection".to_string(),
        Some(f) if f.command() == Command::Error => {
            format!("broker error: {}", f.header("message").unwrap_or("unknown"))
        }
        Some(f) => format!("unexpected {}", f.command()),
    }
}

/// Opens one connection and logs in as `login`.
fn log_in(addr: &str, login: &str) -> Result<TcpTransport, EngineError> {
    let mut transport = TcpTransport::connect(addr).map_err(bus_error)?;
    // A request's last frame must not wait for the ACK of the one before.
    transport.stream().set_nodelay(true).map_err(bus_error)?;
    let connect = Frame::new(Command::Connect).with_header("login", login);
    transport.send_frame(&connect).map_err(bus_error)?;
    // The one read with a deadline: until the bus exists, nothing else
    // can wake this caller if the peer accepts and never answers.
    let deadline = Some(RemoteBus::LOGIN_TIMEOUT);
    transport.set_read_timeout(deadline).map_err(bus_error)?;
    let answer = transport.recv_frame();
    transport.set_read_timeout(None).map_err(bus_error)?;
    match answer.map_err(|e| bus_error(format!("log-in: {e}")))? {
        Some(f) if f.command() == Command::Connected => Ok(transport),
        other => Err(EngineError::Bus(refusal(other.as_ref()))),
    }
}

/// The reader: blocking reads until the connection closes.
fn read_loop(
    mut reader: TcpTransport,
    routes: &Mutex<HashMap<String, Route>>,
    answers: &mpsc::Sender<Result<(), String>>,
) {
    while let Ok(Some(frame)) = reader.recv_frame() {
        match frame.command() {
            Command::Message => {
                let Some(id) = frame.header(SUBSCRIPTION_HEADER).map(Arc::<str>::from) else {
                    continue;
                };
                let Some(route) = routes.lock().get(&*id).cloned() else {
                    continue;
                };
                // The broker admitted these labels at their SEND.
                let admitted = wire::frame_to_event_within(frame, WIRE_INTERN_CAP, |_| Ok(()));
                if let Ok((event, _)) = admitted {
                    route(Delivery {
                        subscription_id: id,
                        event: Arc::new(event),
                    });
                }
            }
            Command::Receipt => {
                let _ = answers.send(Ok(()));
            }
            Command::Error => {
                let _ = answers.send(Err(refusal(Some(&frame))));
            }
            _ => {}
        }
    }
}

impl EventBus for RemoteBus {
    fn subscribe(
        &self,
        _client: &str,
        _subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        _clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError> {
        let id = self
            .inner
            .next_id
            .fetch_add(1, Ordering::Relaxed)
            .to_string();
        let mut frame = Frame::new(Command::Subscribe)
            .with_header(DESTINATION_HEADER, topic)
            .with_header("id", &id)
            .with_header("receipt", &id);
        if let Some(selector) = selector {
            frame.push_header(SELECTOR_HEADER, selector);
        }
        // The route exists before its SUBSCRIBE is written, so no
        // delivery can miss it.
        self.inner.routes.lock().insert(id.clone(), Arc::from(sink));
        let answer = {
            let mut leg = self.inner.subscriber.lock();
            match leg.writer.send_frame(&frame) {
                Ok(()) => leg.answers.recv().unwrap_or_else(|_| Err(refusal(None))),
                Err(e) => Err(e.to_string()),
            }
        };
        answer.map_err(|message| {
            self.inner.routes.lock().remove(&id);
            EngineError::Bus(message)
        })
    }

    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError> {
        self.send(std::slice::from_ref(event))
    }

    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError> {
        self.send(&events)
    }

    fn close(&self) {
        // A broker that still serves answers the request already written
        // within the grace; the shutdown wakes a request on one that
        // stopped answering, and fails any still queued behind it.
        let seen = self.inner.answered.epoch();
        if self.inner.awaiting.load(Ordering::SeqCst) {
            self.inner.answered.wait_past(seen, CLOSE_GRACE);
        }
        self.inner.shut_down();
    }
}
