//! The engine's networked bus edge: a `RemoteBus` hands every `MESSAGE`
//! to the unit's sink on its one reader thread, so subscriptions cost no
//! threads and a full unit inbox pushes back on the socket instead of
//! piling up in a channel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use safeweb::broker::{Broker, BrokerServer};
use safeweb::engine::{Engine, EngineOptions, RemoteBus, SchedulerOptions, UnitSpec};
use safeweb::events::Event;
use safeweb::labels::Policy;

/// Both tests spawn servers and pools; the thread count is only
/// meaningful while nothing else in this binary runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn policy() -> Policy {
    "unit listener {\n}\n".parse().unwrap()
}

fn engine_options(workers: usize, inbox_cap: usize) -> EngineOptions {
    EngineOptions {
        scheduler: SchedulerOptions {
            workers,
            inbox_cap,
            burst: 4,
            name: "remote-bus-test".to_string(),
            ..SchedulerOptions::default()
        },
        ..EngineOptions::default()
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| tasks.count())
        .unwrap_or(0)
}

/// N remote subscriptions add the pool's workers plus one reader thread —
/// no thread per subscription.
#[test]
fn remote_subscriptions_share_one_reader_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const WORKERS: usize = 2;
    const SUBSCRIPTIONS: usize = 32;

    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
    let mut unit = UnitSpec::new("listener");
    for i in 0..SUBSCRIPTIONS {
        unit = unit.subscribe(&format!("/many/{i}"), None, |_jail, _event| Ok(()));
    }
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(engine_options(WORKERS, 64));
    engine.add_unit(unit).unwrap();

    let before = os_threads();
    let handle = engine.start().unwrap();
    let added = os_threads().saturating_sub(before);
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
    wait_for(
        || server.broker().subscription_count() == 1,
        "the subscription to register",
    );

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
