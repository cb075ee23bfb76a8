//! The engine's networked bus edge: a `RemoteBus` hands every `MESSAGE`
//! to the unit's sink on its one reader thread, so subscriptions cost no
//! threads and a full unit inbox pushes back on the socket instead of
//! piling up in a channel. Every request waits for the broker's answer,
//! so a refusal reaches its caller.

use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use safeweb::broker::{Broker, BrokerServer, Delivery};
use safeweb::engine::{
    Engine, EngineError, EngineOptions, EventBus, Relabel, RemoteBus, SchedulerOptions, UnitError,
    UnitSpec,
};
use safeweb::events::{Event, LabelledEvent};
use safeweb::labels::{Label, Policy, PrivilegeSet};
use safeweb::stomp::{Command, Frame, TcpTransport};

/// Every test spawns servers and threads; a thread count is only
/// meaningful while nothing else in this binary runs.
static SERIAL: Mutex<()> = Mutex::new(());

/// How long a test waits for a delivery or an answer before failing.
const WAIT: Duration = Duration::from_secs(10);

/// `listener` may attach no integrity label: the broker refuses its
/// `SEND`s that carry one.
fn policy() -> Policy {
    "unit listener {\n}\n".parse().unwrap()
}

/// The engine's scheduler name; its workers are `remote-bus-test-worker-<i>`,
/// which the kernel truncates to this.
const SCHEDULER: &str = "remote-bus-test";

fn engine_options(workers: usize, inbox_cap: usize) -> EngineOptions {
    EngineOptions {
        scheduler: SchedulerOptions {
            workers,
            inbox_cap,
            burst: 4,
            name: SCHEDULER.to_string(),
            ..SchedulerOptions::default()
        },
        ..EngineOptions::default()
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The kernel keeps a thread name's first 15 bytes: a `RemoteBus`
/// reader, `safeweb-remote-bus-reader`, reads as this.
const READER_THREAD: &str = "safeweb-remote-";

/// Threads of this process whose (kernel-truncated) name starts with
/// `prefix`. Counted by name, because the test harness starts and ends
/// its own threads while a test runs: the next test's thread may already
/// be waiting on `SERIAL`.
fn threads_named(prefix: &str) -> usize {
    let named = |task: &std::fs::DirEntry| {
        std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|name| name.trim_end().starts_with(prefix))
    };
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| tasks.flatten().filter(|task| named(task)).count())
        .unwrap_or(0)
}

fn reader_threads() -> usize {
    threads_named(READER_THREAD)
}

/// N remote subscriptions add the pool's workers plus one reader thread —
/// no thread per subscription. Only the threads this bus and this engine
/// start are counted: the reader and the scheduler's workers, by name.
#[test]
fn remote_subscriptions_share_one_reader_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 2;
    const SUBSCRIPTIONS: usize = 32;

    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let ours = || reader_threads() + threads_named(SCHEDULER);
    let before = ours();
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let mut unit = UnitSpec::new("listener");
    for i in 0..SUBSCRIPTIONS {
        unit = unit.subscribe(&format!("/many/{i}"), None, |_jail, _event| Ok(()));
    }
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(WORKERS, 64));
    engine.add_unit(unit).unwrap();

    let handle = engine.start().unwrap();
    let added = ours().saturating_sub(before);
    assert!(
        added <= WORKERS + 1,
        "{SUBSCRIPTIONS} remote subscriptions grew {added} threads; expected {WORKERS} workers + 1 reader"
    );
    handle.stop();
}

/// A burst far larger than the unit's inbox arrives completely and in
/// order: the reader blocks in the sink while the inbox is full, and the
/// rest of the burst waits in the socket and the server's outbox.
#[test]
fn remote_burst_through_a_small_inbox_arrives_complete_and_in_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BURST: usize = 500;

    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let seen = Arc::new(Mutex::new(Vec::with_capacity(BURST)));
    // The unit holds its first event until the whole burst is published,
    // so the inbox (cap 8) is certainly full while the burst is in flight.
    let gate = Arc::new(AtomicBool::new(false));
    let (sink_seen, open) = (Arc::clone(&seen), Arc::clone(&gate));
    let unit = UnitSpec::new("listener").subscribe("/burst", None, move |_jail, event| {
        while !open.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seq: usize = event.attr("seq").unwrap().parse().unwrap();
        sink_seen.lock().unwrap().push(seq);
        Ok(())
    });
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(2, 8));
    engine.add_unit(unit).unwrap();
    let handle = engine.start().unwrap();
    assert_eq!(server.broker().subscription_count(), 1);

    for seq in 0..BURST {
        server.broker().publish(
            &Event::new("/burst")
                .unwrap()
                .with_attr("seq", &seq.to_string())
                .with_labels([]),
        );
    }
    gate.store(true, Ordering::SeqCst);
    wait_for(|| seen.lock().unwrap().len() == BURST, "the whole burst");

    assert_eq!(*seen.lock().unwrap(), (0..BURST).collect::<Vec<_>>());
    assert!(handle.stop().is_empty());
    assert_eq!(server.broker().stats().delivered(), BURST as u64);
}

fn channel_sink(
    bus: &RemoteBus,
    topic: &str,
    selector: Option<&str>,
) -> Result<mpsc::Receiver<Delivery>, EngineError> {
    let (tx, rx) = mpsc::channel();
    let sink = Box::new(move |delivery| tx.send(delivery).is_ok());
    bus.subscribe("", "", topic, selector, PrivilegeSet::new(), sink)?;
    Ok(rx)
}

fn event(topic: &str, kind: &str, labels: Vec<Label>) -> LabelledEvent {
    let event = Event::new(topic).unwrap().with_attr("kind", kind);
    event.with_labels(labels)
}

/// A `SUBSCRIBE` the broker refuses is an error for its caller, and the
/// reader keeps serving the subscriptions made before it.
#[test]
fn a_refused_subscription_is_an_error_and_earlier_ones_keep_delivering() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let earlier = channel_sink(&bus, "/kept", None).unwrap();

    match channel_sink(&bus, "/refused", Some("type = = 'x'")) {
        Err(EngineError::Bus(message)) => assert!(message.contains("selector"), "{message}"),
        other => panic!("a bad selector was accepted: {:?}", other.map(|_| ())),
    }
    assert_eq!(server.broker().subscription_count(), 1);

    server.broker().publish(&event("/kept", "after", vec![]));
    let delivery = earlier.recv_timeout(WAIT).expect("the reader stopped");
    assert_eq!(delivery.event.attr("kind"), Some("after"));
}

/// A unit's publish that the jail admits but the broker refuses (an
/// integrity label the unit may not endorse on the wire) is recorded as
/// one violation, and the unit's next allowed publish is delivered.
#[test]
fn a_publish_the_broker_refuses_is_a_violation_and_the_next_is_delivered() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let observed = (server.broker()).subscribe("observer", "1", "/out", None, PrivilegeSet::new());
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    // The unit republishes each input with its labels: keeping an input's
    // integrity label needs no endorsement in the jail, but on the wire
    // every label of a SEND is an addition.
    let unit = UnitSpec::new("listener").subscribe("/in", None, |jail, event| {
        let kind = event.attr("kind").unwrap_or("");
        let out = Event::new("/out").unwrap().with_attr("kind", kind);
        jail.publish(out, Relabel::keep())
    });
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(1, 8));
    engine.add_unit(unit).unwrap();
    let handle = engine.start().unwrap();

    let endorsed = vec![Label::int("e", "checked")];
    server.broker().publish(&event("/in", "forged", endorsed));
    server.broker().publish(&event("/in", "public", vec![]));

    let delivery = observed.recv_timeout(WAIT).expect("the allowed publish");
    assert_eq!(delivery.event.attr("kind"), Some("public"));
    let violations = handle.stop();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        matches!(&violations[0].error, UnitError::Application(m) if m.contains("endorsement denied")),
        "{violations:?}"
    );
    assert!(
        observed.try_recv().is_err(),
        "a refused publish was delivered"
    );
}

/// A batch whose last `SEND` the broker refuses returns that refusal:
/// the `ERROR` answers the batch's receipt, so the publisher does not
/// wait for a `RECEIPT` that never comes.
#[test]
fn a_batch_whose_last_send_is_refused_is_an_error_and_does_not_hang() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let observed = (server.broker()).subscribe("observer", "1", "/t", None, PrivilegeSet::new());
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let forged = || event("/t", "forged", vec![Label::int("e", "checked")]);
    let batches = [
        vec![event("/t", "first", vec![]), forged()],
        vec![forged(), event("/t", "second", vec![])],
    ];
    for batch in batches {
        let (done, result) = mpsc::channel();
        let publisher = bus.clone();
        std::thread::spawn(move || done.send(publisher.publish_batch(batch)));
        let result = result.recv_timeout(WAIT).expect("publish_batch hung");
        assert!(
            matches!(&result, Err(EngineError::Bus(m)) if m.contains("endorsement denied")),
            "{result:?}"
        );
    }
    let kinds: Vec<String> = (0..2)
        .map(|_| {
            observed
                .recv_timeout(WAIT)
                .unwrap()
                .event
                .attr("kind")
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(kinds, ["first", "second"]);
    assert!(observed.try_recv().is_err(), "a refused SEND was delivered");
}

/// Dropping the last handle closes both connections and ends the
/// reader: nothing of the bus outlives it.
#[test]
fn dropping_the_last_handle_closes_both_connections_and_ends_the_reader() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let before = reader_threads();
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let deliveries = channel_sink(&bus, "/t", None).unwrap();
    assert_eq!(server.active_connections(), 2);
    assert_eq!(reader_threads(), before + 1);

    let clone = bus.clone();
    drop(bus);
    server.broker().publish(&event("/t", "still open", vec![]));
    assert!(
        deliveries.recv_timeout(WAIT).is_ok(),
        "a clone keeps the bus"
    );
    drop(clone);
    wait_for(
        || server.active_connections() == 0,
        "both connections to close",
    );
    wait_for(|| reader_threads() == before, "the reader to end");
    wait_for(
        || server.broker().subscription_count() == 0,
        "the subscription to go",
    );
}

/// A broker that accepts both of a bus's connections and answers their
/// `CONNECT`s, then reads and never answers. Each `SEND` it reads is
/// reported on the returned channel.
fn mute_broker() -> (String, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (sent, sends) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::new(stream);
            let connect = conn.recv_frame().unwrap().unwrap();
            assert_eq!(connect.command(), Command::Connect);
            conn.send_frame(&Frame::new(Command::Connected)).unwrap();
            let sent = sent.clone();
            std::thread::spawn(move || {
                while let Ok(Some(frame)) = conn.recv_frame() {
                    if frame.command() == Command::Send {
                        let _ = sent.send(());
                    }
                }
            });
        }
    });
    (addr, sends)
}

/// Aborts the process with `what` unless the returned sender is dropped
/// within `limit`: a wedge fails the binary instead of hanging it.
fn watchdog(limit: Duration, what: &'static str) -> mpsc::Sender<()> {
    let (disarm, armed) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // Straight to stderr: the harness's capture would drop it.
            let _ = writeln!(
                std::io::stderr(),
                "watchdog: {what} after {limit:?}; aborting"
            );
            std::process::abort();
        }
    });
    disarm
}

/// A broker that keeps its sockets open and never answers cannot wedge
/// `stop`: closing the bus wakes the worker blocked on the answer, and
/// the publish it was waiting for is a violation.
#[test]
fn stop_returns_while_the_broker_never_answers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = watchdog(Duration::from_secs(10), "stop wedged on a mute broker");
    let (addr, sends) = mute_broker();
    let bus = RemoteBus::connect(&addr, "listener").unwrap();
    let unit = UnitSpec::new("listener").every(Duration::from_millis(5), |jail| {
        let tick = Event::new("/tick").unwrap().with_attr("kind", "tick");
        jail.publish(tick, Relabel::keep())
    });
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(1, 8));
    engine.add_unit(unit).unwrap();
    let handle = engine.start().unwrap();
    sends.recv_timeout(WAIT).expect("the unit never published");

    let started = Instant::now();
    let violations = handle.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    assert!(
        violations.iter().any(|v| matches!(
            &v.error,
            UnitError::Application(m) if m.contains("publish failed")
        )),
        "{violations:?}"
    );
}

/// A peer that accepts the connection and never answers its `CONNECT`
/// cannot hold `RemoteBus::connect`: the log-in read has a deadline.
#[test]
fn connect_gives_up_on_a_peer_that_never_answers_the_log_in() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = watchdog(Duration::from_secs(10), "connect wedged on a silent peer");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (release, held) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let (_stream, _) = listener.accept().unwrap();
        // Holds the connection open, silent, until the test ends.
        let _ = held.recv();
    });

    let started = Instant::now();
    let refused = RemoteBus::connect(&addr, "listener").err();
    let took = started.elapsed();
    assert!(
        matches!(&refused, Some(EngineError::Bus(m)) if m.contains("log-in")),
        "{refused:?}"
    );
    assert!(
        took < RemoteBus::LOGIN_TIMEOUT + Duration::from_secs(1),
        "connect took {took:?}"
    );
    drop(release);
}

/// A broker that reads a batch's `SEND`s and then closes the publishing
/// connection without a `RECEIPT` fails that publish: the unit records
/// one violation, and `stop` returns.
#[test]
fn a_broker_closing_mid_batch_is_one_violation_and_stop_returns() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _watchdog = watchdog(Duration::from_secs(10), "stop wedged on a closed publisher");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (read, batches) = mpsc::channel();
    std::thread::spawn(move || {
        // `connect` logs the publishing connection in first.
        let mut legs = (0..2).map(|_| {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = TcpTransport::new(stream);
            let connect = conn.recv_frame().unwrap().unwrap();
            assert_eq!(connect.command(), Command::Connect);
            conn.send_frame(&Frame::new(Command::Connected)).unwrap();
            conn
        });
        let mut publisher = legs.next().unwrap();
        let mut subscriber = legs.next().unwrap();
        let mut sends = 0;
        while let Ok(Some(frame)) = publisher.recv_frame() {
            if frame.command() == Command::Send {
                sends += 1;
                if frame.header("receipt").is_some() {
                    break;
                }
            }
        }
        drop(publisher);
        let _ = read.send(sends);
        // The subscription connection stays open and silent.
        while let Ok(Some(_)) = subscriber.recv_frame() {}
    });
    let bus = RemoteBus::connect(&addr, "listener").unwrap();
    let mut published = false;
    let unit = UnitSpec::new("listener").every(Duration::from_millis(5), move |jail| {
        if std::mem::replace(&mut published, true) {
            return Ok(());
        }
        for kind in ["first", "second"] {
            let tick = Event::new("/tick").unwrap().with_attr("kind", kind);
            jail.publish(tick, Relabel::keep())?;
        }
        Ok(())
    });
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(1, 8));
    engine.add_unit(unit).unwrap();
    let handle = engine.start().unwrap();
    let sends = batches.recv_timeout(WAIT).expect("the batch never arrived");
    assert_eq!(sends, 2, "one batch of both publishes");

    let started = Instant::now();
    let violations = handle.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stop took {took:?}");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(
        matches!(&violations[0].error, UnitError::Application(m) if m.contains("publish failed")),
        "{violations:?}"
    );
}
