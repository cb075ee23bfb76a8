//! Integration tests: full client ↔ TCP server ↔ broker flows, including
//! label filtering across the network and failure handling.

use std::time::{Duration, Instant};

use safeweb_broker::{Broker, BrokerServer, ClientError, EventClient};
use safeweb_events::Event;
use safeweb_labels::{Label, Policy};

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
    "
    .parse()
    .unwrap()
}

fn start_server() -> BrokerServer {
    BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap()
}

/// Polls `cond` until it holds; fails after 10 s.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Waits until the server holds exactly `n` subscriptions: a client's
/// SUBSCRIBE returns once the frame is written, not once it took effect.
fn wait_for_subscriptions(server: &BrokerServer, n: usize) {
    wait_for(
        || server.broker().subscription_count() == n,
        &format!("{n} subscriptions"),
    );
}

#[test]
fn end_to_end_publish_subscribe() {
    let server = start_server();
    let addr = server.addr().to_string();

    let mut consumer = EventClient::connect(&addr, "mdt_a").unwrap();
    consumer.subscribe("/patient_report", None).unwrap();
    wait_for_subscriptions(&server, 1);

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    let event = Event::new("/patient_report")
        .unwrap()
        .with_attr("type", "cancer")
        .with_payload("record")
        .with_labels([Label::conf("ecric.org.uk", "mdt/a")]);
    producer.publish(&event).unwrap();

    let delivery = consumer.next_delivery().unwrap();
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
    let addr = server.addr().to_string();

    let mut nosy = EventClient::connect(&addr, "nosy").unwrap();
    nosy.subscribe("/patient_report", None).unwrap();
    let mut cleared = EventClient::connect(&addr, "mdt_a").unwrap();
    cleared.subscribe("/patient_report", None).unwrap();
    wait_for_subscriptions(&server, 2);

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(
            &Event::new("/patient_report")
                .unwrap()
                .with_labels([Label::conf("ecric.org.uk", "mdt/a")]),
        )
        .unwrap();

    // The cleared client receives it; the nosy one times out.
    assert!(cleared.next_delivery().is_ok());
    let got = nosy
        .next_delivery_timeout(Duration::from_millis(200))
        .unwrap();
    assert!(
        got.is_none(),
        "uncleared subscriber must not receive labelled events"
    );
}

#[test]
fn selector_filtering_over_network() {
    let server = start_server();
    let addr = server.addr().to_string();

    let mut consumer = EventClient::connect(&addr, "producer").unwrap();
    consumer
        .subscribe("/patient_report", Some("type = 'cancer'"))
        .unwrap();
    wait_for_subscriptions(&server, 1);

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
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
    let d = consumer.next_delivery().unwrap();
    assert_eq!(d.event.attr("type"), Some("cancer"));
}

#[test]
fn bad_selector_produces_broker_error() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut client = EventClient::connect(&addr, "producer").unwrap();
    client.subscribe("/t", Some("type = = 'x'")).unwrap();
    match client.next_delivery() {
        Err(ClientError::Broker(msg)) => assert!(msg.contains("selector"), "{msg}"),
        other => panic!("expected broker error, got {other:?}"),
    }
}

#[test]
fn unsubscribe_stops_flow() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut consumer = EventClient::connect(&addr, "producer").unwrap();
    let sub = consumer.subscribe("/t", None).unwrap();
    wait_for_subscriptions(&server, 1);
    consumer.unsubscribe(&sub).unwrap();
    wait_for_subscriptions(&server, 0);

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(&Event::new("/t").unwrap().with_labels([]))
        .unwrap();
    let got = consumer
        .next_delivery_timeout(Duration::from_millis(200))
        .unwrap();
    assert!(got.is_none());
}

#[test]
fn disconnect_cleans_up_subscriptions() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut consumer = EventClient::connect(&addr, "mdt_a").unwrap();
    consumer.subscribe("/t", None).unwrap();
    wait_for_subscriptions(&server, 1);
    consumer.disconnect().unwrap();
    wait_for_subscriptions(&server, 0);
}

use safeweb_reactor::sys::os_thread_count as thread_count;

#[test]
fn idle_subscribers_do_not_cost_threads() {
    let server = start_server();
    let addr = server.addr().to_string();

    let mut active = EventClient::connect(&addr, "mdt_a").unwrap();
    active.subscribe("/patient_report", None).unwrap();

    let before = thread_count();
    let idle: Vec<EventClient> = (0..100)
        .map(|_| {
            let mut c = EventClient::connect(&addr, "nosy").unwrap();
            c.subscribe("/patient_report", None).unwrap();
            c
        })
        .collect();
    wait_for_subscriptions(&server, 101);

    // The seed spent ≥3 threads per connection; the reactor holds them
    // as registered fds. Allow generous slack for unrelated test threads.
    let after = thread_count();
    assert!(
        after < before + 20,
        "100 idle subscribers grew threads {before} -> {after}"
    );

    // The crowd being parked must not break delivery to a live consumer.
    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(
            &Event::new("/patient_report")
                .unwrap()
                .with_labels([Label::conf("ecric.org.uk", "mdt/a")]),
        )
        .unwrap();
    assert!(active.next_delivery().is_ok());
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
    let addr = server.addr().to_string();
    for _ in 0..50 {
        let s = std::net::TcpStream::connect(server.addr()).unwrap();
        drop(s);
    }
    wait_for(
        || server.active_connections() == 0,
        "the burst to be torn down",
    );

    let mut consumer = EventClient::connect(&addr, "mdt_a").unwrap();
    consumer.subscribe("/t", None).unwrap();
    wait_for_subscriptions(&server, 1);
    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(&Event::new("/t").unwrap().with_labels([]))
        .unwrap();
    assert!(consumer.next_delivery().is_ok());
}

#[test]
fn slow_consumer_is_disconnected_not_buffered_unboundedly() {
    use safeweb_stomp::{Command, Frame, TcpTransport};

    let server = start_server();
    let addr = server.addr().to_string();

    // A raw subscriber that never reads deliveries.
    let mut slow = TcpTransport::connect(&addr).unwrap();
    slow.send_frame(&Frame::new(Command::Connect).with_header("login", "producer"))
        .unwrap();
    assert_eq!(
        slow.recv_frame().unwrap().unwrap().command(),
        Command::Connected
    );
    slow.send_frame(
        &Frame::new(Command::Subscribe)
            .with_header("destination", "/flood")
            .with_header("id", "1"),
    )
    .unwrap();
    wait_for_subscriptions(&server, 1);

    // Flood well past the outbound cap without the subscriber reading.
    let mut producer = EventClient::connect(&addr, "producer").unwrap();
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
    wait_for_subscriptions(&server, 0);
}

#[test]
fn multiple_subscriptions_are_disambiguated_by_id() {
    let server = start_server();
    let addr = server.addr().to_string();
    let mut consumer = EventClient::connect(&addr, "producer").unwrap();
    let sub_a = consumer.subscribe("/a", None).unwrap();
    let sub_b = consumer.subscribe("/b", None).unwrap();
    assert_ne!(sub_a, sub_b);
    wait_for_subscriptions(&server, 2);

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(&Event::new("/b").unwrap().with_labels([]))
        .unwrap();
    let d = consumer.next_delivery().unwrap();
    assert_eq!(d.subscription_id, sub_b);
}

/// Sends a receipted SEND to `topic` and returns every frame the server
/// sent before its RECEIPT. One connection's frames take effect in
/// order, so the receipt means every earlier frame has.
fn round_trip(raw: &mut safeweb_stomp::TcpTransport, topic: &str) -> Vec<safeweb_stomp::Frame> {
    use safeweb_stomp::{Command, Frame};
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
    use safeweb_stomp::{Command, Frame, TcpTransport};

    let server = start_server();
    let mut raw = TcpTransport::connect(&server.addr().to_string()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.send_frame(&Frame::new(Command::Connect).with_header("login", "producer"))
        .unwrap();
    assert_eq!(
        raw.recv_frame().unwrap().unwrap().command(),
        Command::Connected
    );
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
    use safeweb_stomp::{Command, Frame, TcpTransport};

    let server = start_server();
    let mut raw = TcpTransport::connect(&server.addr().to_string()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.send_frame(&Frame::new(Command::Connect).with_header("login", "producer"))
        .unwrap();
    assert_eq!(
        raw.recv_frame().unwrap().unwrap().command(),
        Command::Connected
    );

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
