//! Integration tests: full client ↔ TCP server ↔ broker flows, including
//! label filtering across the network and failure handling. Clients are
//! the engine's `RemoteBus`, or raw STOMP frames where a test drives the
//! wire itself.

use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use safeweb_broker::{Broker, BrokerServer, Delivery};
use safeweb_engine::{EngineError, EventBus, RemoteBus};
use safeweb_events::Event;
use safeweb_labels::{Label, Policy, PrivilegeSet};
use safeweb_stomp::{Command, Frame, TcpTransport};

/// How long a test waits for a frame or a delivery before failing.
const WAIT: Duration = Duration::from_secs(10);

fn policy() -> Policy {
    "
    unit producer {
        clearance label:conf:ecric.org.uk/*
    }
    unit mdt_a {
        clearance label:conf:ecric.org.uk/mdt/a
    }
    unit nosy {
    }
    unit endorser {
        endorse label:int:forge.example/*
    }
    "
    .parse()
    .unwrap()
}

fn start_server() -> BrokerServer {
    BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap()
}

/// Polls `cond` until it holds; fails after 10 s.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn connect(server: &BrokerServer, login: &str) -> RemoteBus {
    RemoteBus::connect(&server.addr().to_string(), login).unwrap()
}

/// Subscribes `bus` to `topic`; deliveries arrive on the returned
/// channel. The broker has registered the subscription once this
/// returns.
fn subscribe(
    bus: &RemoteBus,
    topic: &str,
    selector: Option<&str>,
) -> Result<Receiver<Delivery>, EngineError> {
    let (tx, rx) = mpsc::channel();
    let sink = Box::new(move |delivery| tx.send(delivery).is_ok());
    bus.subscribe("", "", topic, selector, PrivilegeSet::new(), sink)?;
    Ok(rx)
}

/// A raw STOMP session logged in as `login`.
fn raw_session(server: &BrokerServer, login: &str) -> TcpTransport {
    let mut raw = TcpTransport::connect(&server.addr().to_string()).unwrap();
    raw.set_read_timeout(Some(WAIT)).unwrap();
    raw.send_frame(&Frame::new(Command::Connect).with_header("login", login))
        .unwrap();
    assert_eq!(
        raw.recv_frame().unwrap().unwrap().command(),
        Command::Connected
    );
    raw
}

/// Sends `frame` with a `receipt` and returns the server's next frame,
/// its answer when nothing else is due on the connection.
fn request(raw: &mut TcpTransport, frame: Frame) -> Frame {
    raw.send_frame(&frame.with_header("receipt", "r")).unwrap();
    raw.recv_frame().unwrap().expect("an answer")
}

fn subscribe_frame(id: &str, topic: &str) -> Frame {
    Frame::new(Command::Subscribe)
        .with_header("destination", topic)
        .with_header("id", id)
}

#[test]
fn end_to_end_publish_subscribe() {
    let server = start_server();
    let consumer = connect(&server, "mdt_a");
    let deliveries = subscribe(&consumer, "/patient_report", None).unwrap();

    let producer = connect(&server, "producer");
    let event = Event::new("/patient_report")
        .unwrap()
        .with_attr("type", "cancer")
        .with_payload("record")
        .with_labels([Label::conf("ecric.org.uk", "mdt/a")]);
    producer.publish(&event).unwrap();

    let delivery = deliveries.recv_timeout(WAIT).unwrap();
    assert_eq!(delivery.event.topic(), "/patient_report");
    assert_eq!(delivery.event.attr("type"), Some("cancer"));
    assert_eq!(delivery.event.event().payload(), Some("record"));
    assert_eq!(
        delivery.event.labels().to_wire(),
        "label:conf:ecric.org.uk/mdt/a"
    );
}

#[test]
fn label_filtering_enforced_over_network() {
    let server = start_server();
    let nosy_bus = connect(&server, "nosy");
    let nosy = subscribe(&nosy_bus, "/patient_report", None).unwrap();
    let cleared_bus = connect(&server, "mdt_a");
    let cleared = subscribe(&cleared_bus, "/patient_report", None).unwrap();

    let producer = connect(&server, "producer");
    for (kind, labels) in [
        ("labelled", vec![Label::conf("ecric.org.uk", "mdt/a")]),
        ("marker", vec![]),
    ] {
        let event = Event::new("/patient_report").unwrap();
        producer
            .publish(&event.with_attr("kind", kind).with_labels(labels))
            .unwrap();
    }

    // The cleared client receives both. One subscriber's deliveries keep
    // publish order, so the nosy one seeing the marker first proves it
    // never got the labelled event.
    let kind = |rx: &Receiver<Delivery>| {
        let delivery = rx.recv_timeout(WAIT).unwrap();
        delivery.event.attr("kind").unwrap().to_string()
    };
    assert_eq!(kind(&cleared), "labelled");
    assert_eq!(
        kind(&nosy),
        "marker",
        "uncleared subscriber must not receive labelled events"
    );
}

#[test]
fn selector_filtering_over_network() {
    let server = start_server();
    let consumer = connect(&server, "producer");
    let deliveries = subscribe(&consumer, "/patient_report", Some("type = 'cancer'")).unwrap();

    let producer = connect(&server, "producer");
    for t in ["benign", "cancer"] {
        producer
            .publish(
                &Event::new("/patient_report")
                    .unwrap()
                    .with_attr("type", t)
                    .with_labels([]),
            )
            .unwrap();
    }
    let d = deliveries.recv_timeout(WAIT).unwrap();
    assert_eq!(d.event.attr("type"), Some("cancer"));
}

#[test]
fn bad_selector_produces_broker_error() {
    let server = start_server();
    let client = connect(&server, "producer");
    match subscribe(&client, "/t", Some("type = = 'x'")) {
        Err(EngineError::Bus(msg)) => assert!(msg.contains("selector"), "{msg}"),
        other => panic!("expected broker error, got {:?}", other.map(|_| ())),
    }
    assert_eq!(server.broker().subscription_count(), 0);
}

#[test]
fn unsubscribe_stops_flow() {
    let server = start_server();
    let mut consumer = raw_session(&server, "producer");
    let subscribed = request(&mut consumer, subscribe_frame("1", "/t"));
    assert_eq!(subscribed.command(), Command::Receipt, "{subscribed:?}");
    assert_eq!(server.broker().subscription_count(), 1);
    let unsubscribe = Frame::new(Command::Unsubscribe).with_header("id", "1");
    let unsubscribed = request(&mut consumer, unsubscribe);
    assert_eq!(unsubscribed.command(), Command::Receipt, "{unsubscribed:?}");
    assert_eq!(server.broker().subscription_count(), 0);

    // The consumer's own receipted SEND to `/t`: a live subscription
    // would deliver it before the RECEIPT.
    assert!(round_trip(&mut consumer, "/t").is_empty());
}

#[test]
fn disconnect_cleans_up_subscriptions() {
    let server = start_server();
    let mut consumer = raw_session(&server, "mdt_a");
    request(&mut consumer, subscribe_frame("1", "/t"));
    assert_eq!(server.broker().subscription_count(), 1);
    let answer = request(&mut consumer, Frame::new(Command::Disconnect));
    assert_eq!(answer.command(), Command::Receipt, "{answer:?}");
    wait_for(
        || server.broker().subscription_count() == 0,
        "the session's subscriptions to go",
    );
}

use safeweb_reactor::sys::os_thread_count as thread_count;

#[test]
fn idle_subscribers_do_not_cost_threads() {
    let server = start_server();
    let active = connect(&server, "mdt_a");
    let deliveries = subscribe(&active, "/patient_report", None).unwrap();

    let before = thread_count();
    let idle: Vec<TcpTransport> = (0..100)
        .map(|_| {
            let mut c = raw_session(&server, "nosy");
            request(&mut c, subscribe_frame("1", "/patient_report"));
            c
        })
        .collect();
    assert_eq!(server.broker().subscription_count(), 101);

    // The seed spent ≥3 threads per connection; the reactor holds them
    // as registered fds. Allow generous slack for unrelated test threads.
    let after = thread_count();
    assert!(
        after < before + 20,
        "100 idle subscribers grew threads {before} -> {after}"
    );

    // The crowd being parked must not break delivery to a live consumer.
    let producer = connect(&server, "producer");
    producer
        .publish(
            &Event::new("/patient_report")
                .unwrap()
                .with_labels([Label::conf("ecric.org.uk", "mdt/a")]),
        )
        .unwrap();
    assert!(deliveries.recv_timeout(WAIT).is_ok());
    drop(idle);
}

#[test]
fn abrupt_disconnects_do_not_stop_the_accept_loop() {
    // Regression companion to the reactor-level EMFILE test
    // (`safeweb-reactor/tests/accept_resilience.rs`): a burst of
    // connections torn down abruptly (RST via SO_LINGER-like drop before
    // the server touches them) must leave the server accepting. The seed
    // broke its accept loop on the first `accept()` error.
    let server = start_server();
    for _ in 0..50 {
        let s = std::net::TcpStream::connect(server.addr()).unwrap();
        drop(s);
    }
    wait_for(
        || server.active_connections() == 0,
        "the burst to be torn down",
    );

    let consumer = connect(&server, "mdt_a");
    let deliveries = subscribe(&consumer, "/t", None).unwrap();
    let producer = connect(&server, "producer");
    producer
        .publish(&Event::new("/t").unwrap().with_labels([]))
        .unwrap();
    assert!(deliveries.recv_timeout(WAIT).is_ok());
}

#[test]
fn slow_consumer_is_disconnected_not_buffered_unboundedly() {
    let server = start_server();

    // A raw subscriber that never reads deliveries.
    let mut slow = raw_session(&server, "producer");
    request(&mut slow, subscribe_frame("1", "/flood"));
    assert_eq!(server.broker().subscription_count(), 1);

    // Flood well past the outbound cap without the subscriber reading.
    let producer = connect(&server, "producer");
    let payload = "x".repeat(64 * 1024);
    let total = (2 * safeweb_broker::OUTBOX_CAP / payload.len()) + 64;
    for _ in 0..total {
        producer
            .publish(
                &Event::new("/flood")
                    .unwrap()
                    .with_payload(payload.clone())
                    .with_labels([]),
            )
            .unwrap();
    }

    // Backpressure policy: the slow consumer is dropped and its
    // subscription cleaned up, rather than the broker buffering ~entire
    // flood on its behalf.
    wait_for(
        || server.broker().subscription_count() == 0,
        "the slow consumer to be dropped",
    );
}

#[test]
fn multiple_subscriptions_are_disambiguated_by_id() {
    let server = start_server();
    let mut consumer = raw_session(&server, "producer");
    request(&mut consumer, subscribe_frame("a", "/a"));
    request(&mut consumer, subscribe_frame("b", "/b"));
    assert_eq!(server.broker().subscription_count(), 2);

    let delivered = round_trip(&mut consumer, "/b");
    assert_eq!(delivered.len(), 1, "{delivered:?}");
    assert_eq!(delivered[0].header("subscription"), Some("b"));
}

/// A frame that carries `receipt` is answered with that id, whether the
/// server applies it (`RECEIPT`) or refuses it (`ERROR`), so a client
/// that pipelines requests learns which one failed.
#[test]
fn a_refused_receipted_frame_gets_its_receipt_id_on_the_error() {
    let server = start_server();
    let mut raw = raw_session(&server, "producer");
    let receipted = |frame: Frame, id: &str| frame.with_header("receipt", id);
    let bad_selector = subscribe_frame("1", "/t").with_header("selector", "type = = 'x'");
    let forged = Frame::new(Command::Send)
        .with_header("destination", "/t")
        .with_header(
            safeweb_broker::wire::LABELS_HEADER,
            "label:int:forge.example/x",
        );
    for (frame, id, command) in [
        (bad_selector, "sub-refused", Command::Error),
        (subscribe_frame("2", "/t"), "sub-applied", Command::Receipt),
        (forged, "send-refused", Command::Error),
        (
            Frame::new(Command::Unsubscribe).with_header("id", "2"),
            "unsub",
            Command::Receipt,
        ),
    ] {
        raw.send_frame(&receipted(frame, id)).unwrap();
        let answer = raw.recv_frame().unwrap().expect("an answer");
        assert_eq!(answer.command(), command, "{id}: {answer:?}");
        assert_eq!(answer.header("receipt-id"), Some(id), "{answer:?}");
    }
    // A refused frame without `receipt` still gets its ERROR, with no id.
    let unreceipted = subscribe_frame("3", "/t").with_header("selector", "= =");
    raw.send_frame(&unreceipted).unwrap();
    let answer = raw.recv_frame().unwrap().expect("an answer");
    assert_eq!(answer.command(), Command::Error, "{answer:?}");
    assert_eq!(answer.header("receipt-id"), None);
}

/// Sends a receipted SEND to `topic` and returns every frame the server
/// sent before its RECEIPT. One connection's frames take effect in
/// order, so the receipt means every earlier frame has.
fn round_trip(raw: &mut TcpTransport, topic: &str) -> Vec<Frame> {
    raw.send_frame(
        &Frame::new(Command::Send)
            .with_header("destination", topic)
            .with_header("receipt", "sync"),
    )
    .unwrap();
    let mut before = Vec::new();
    loop {
        let frame = raw.recv_frame().unwrap().expect("connection open");
        if frame.command() == Command::Receipt {
            return before;
        }
        before.push(frame);
    }
}

#[test]
fn subscriptions_are_capped_per_connection() {
    use safeweb_broker::MAX_SUBSCRIPTIONS;

    let server = start_server();
    let mut raw = raw_session(&server, "producer");
    let subscribe = |raw: &mut TcpTransport, id: usize, destination: &str| {
        raw.send_frame(
            &Frame::new(Command::Subscribe)
                .with_header("destination", destination)
                .with_header("id", id.to_string()),
        )
        .unwrap();
    };

    // Fill the table exactly to the cap: no error.
    for id in 0..MAX_SUBSCRIPTIONS {
        subscribe(&mut raw, id, &format!("/cap/{id}/*"));
    }
    assert!(round_trip(&mut raw, "/quiet").is_empty());
    assert_eq!(server.broker().subscription_count(), MAX_SUBSCRIPTIONS);

    // One past the cap: an ERROR frame, and nothing registered.
    subscribe(&mut raw, MAX_SUBSCRIPTIONS, "/over");
    let refused = round_trip(&mut raw, "/over");
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert_eq!(refused[0].command(), Command::Error);
    assert!(refused[0]
        .header("message")
        .is_some_and(|m| m.contains("too many subscriptions")));
    assert_eq!(server.broker().subscription_count(), MAX_SUBSCRIPTIONS);

    // At the cap, re-subscribing an existing id still replaces it...
    subscribe(&mut raw, 0, "/moved");
    let moved = round_trip(&mut raw, "/moved");
    assert_eq!(moved.len(), 1, "{moved:?}");
    assert_eq!(moved[0].command(), Command::Message);
    assert_eq!(moved[0].header("subscription"), Some("0"));
    assert_eq!(server.broker().subscription_count(), MAX_SUBSCRIPTIONS);

    // ...and an unsubscribe frees a slot for a new id.
    raw.send_frame(&Frame::new(Command::Unsubscribe).with_header("id", "1"))
        .unwrap();
    subscribe(&mut raw, MAX_SUBSCRIPTIONS, "/fresh");
    let fresh = round_trip(&mut raw, "/fresh");
    assert_eq!(fresh.len(), 1, "{fresh:?}");
    assert_eq!(
        fresh[0].header("subscription"),
        Some(MAX_SUBSCRIPTIONS.to_string().as_str())
    );
    assert_eq!(server.broker().subscription_count(), MAX_SUBSCRIPTIONS);
}

#[test]
fn an_over_long_selector_is_refused_and_the_connection_still_subscribes() {
    use safeweb_selector::MAX_SELECTOR_LEN;

    let server = start_server();
    let mut raw = raw_session(&server, "producer");

    // One byte over the cap: an ERROR frame, and nothing registered.
    let selector = format!("x = '{}'", "a".repeat(MAX_SELECTOR_LEN - 5));
    assert_eq!(selector.len(), MAX_SELECTOR_LEN + 1);
    raw.send_frame(
        &Frame::new(Command::Subscribe)
            .with_header("destination", "/long")
            .with_header("id", "0")
            .with_header("selector", selector),
    )
    .unwrap();
    let refused = round_trip(&mut raw, "/long");
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert_eq!(refused[0].command(), Command::Error);
    assert!(refused[0]
        .header("message")
        .is_some_and(|m| m.contains("bad selector")));
    assert_eq!(server.broker().subscription_count(), 0);

    // The same connection subscribes without a selector.
    raw.send_frame(
        &Frame::new(Command::Subscribe)
            .with_header("destination", "/long")
            .with_header("id", "1"),
    )
    .unwrap();
    let delivered = round_trip(&mut raw, "/long");
    assert_eq!(delivered.len(), 1, "{delivered:?}");
    assert_eq!(delivered[0].command(), Command::Message);
    assert_eq!(delivered[0].header("subscription"), Some("1"));
}

/// The labels on a `SEND` are held to the relabel rule as additions: a
/// peer attaches an integrity label only under an endorsement for it, and
/// a set the rule refuses is never interned. Confidentiality labels stay
/// free to attach, from `anonymous` too.
#[test]
fn integrity_labels_on_send_need_an_endorsement() {
    use safeweb_broker::wire::LABELS_HEADER;
    use safeweb_labels::{LabelSet, Privilege};

    let server = start_server();
    let connect = |login: Option<&str>| {
        let mut raw = TcpTransport::connect(&server.addr().to_string()).unwrap();
        raw.set_read_timeout(Some(WAIT)).unwrap();
        let mut connect = Frame::new(Command::Connect);
        if let Some(login) = login {
            connect.push_header("login", login);
        }
        raw.send_frame(&connect).unwrap();
        assert_eq!(
            raw.recv_frame().unwrap().unwrap().command(),
            Command::Connected
        );
        raw
    };
    // The server's answer to a receipted SEND: RECEIPT or ERROR.
    let send = |login: Option<&str>, labels: &str| {
        let mut raw = connect(login);
        raw.send_frame(
            &Frame::new(Command::Send)
                .with_header("destination", "/forge")
                .with_header(LABELS_HEADER, labels)
                .with_header("receipt", "r"),
        )
        .unwrap();
        raw.recv_frame().unwrap().expect("an answer")
    };
    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::clearance(Label::conf("forge.example", "case/1")));
    let observed = server
        .broker()
        .subscribe("forge-observer", "1", "/forge", None, clearance);
    // The sets the other tests here send, so they cannot move the count.
    LabelSet::from_iter([Label::conf("ecric.org.uk", "mdt/a")]);

    let before = LabelSet::interned_count();
    for (login, forged) in [
        (None, "label:int:forge.example/by-anonymous"),
        (Some("producer"), "label:int:forge.example/by-producer"),
    ] {
        let answer = send(login, forged);
        assert_eq!(answer.command(), Command::Error, "{login:?}: {answer:?}");
        let message = answer.header("message").unwrap_or("");
        assert!(message.contains("endorsement denied"), "{message}");
        let labels = LabelSet::parse_wire(forged).unwrap();
        assert_eq!(
            LabelSet::intern_within(labels, 0),
            None,
            "{login:?}'s refused set was interned"
        );
    }
    assert_eq!(LabelSet::interned_count(), before);

    let endorsed = "label:int:forge.example/by-endorser";
    let public = "label:conf:forge.example/case/1";
    for (login, labels) in [(Some("endorser"), endorsed), (None, public)] {
        let answer = send(login, labels);
        assert_eq!(answer.command(), Command::Receipt, "{login:?}: {answer:?}");
    }
    let delivered: Vec<String> = (0..2)
        .map(|_| {
            let delivery = observed.recv_timeout(WAIT).unwrap();
            delivery.event.labels().to_wire()
        })
        .collect();
    assert_eq!(delivered, [endorsed, public]);
    assert!(observed.try_recv().is_err(), "a refused SEND was delivered");
}
