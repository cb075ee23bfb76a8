//! Engine-on-scheduler integration: the guarantees the worker-pool
//! engine must keep — panic isolation, inbox backpressure that
//! never stalls unrelated units, graceful draining shutdown, and a
//! thread count independent of the unit count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use safeweb_broker::Broker;
use safeweb_engine::{Engine, EngineOptions, SchedulerOptions, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_labels::Policy;

fn policy(text: &str) -> Policy {
    text.parse().unwrap()
}

fn scheduled(workers: usize, inbox_cap: usize, burst: usize) -> EngineOptions {
    EngineOptions {
        scheduler: SchedulerOptions {
            workers,
            inbox_cap,
            burst,
            name: "sched-itest".to_string(),
            ..Default::default()
        },
        ..EngineOptions::default()
    }
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A unit that panics mid-callback is poisoned, its worker survives,
/// every other unit keeps processing, and the panic surfaces from
/// [`safeweb_engine::EngineHandle::stop`] as [`UnitError::Panicked`].
#[test]
fn panicking_unit_is_isolated_and_surfaced_in_stop() {
    let broker = Broker::new();
    let policy = policy("unit bomber {\n}\nunit steady {\n}\n");
    let mut engine = Engine::new(Arc::new(broker.clone()), policy).with_options(scheduled(2, 8, 4));
    engine
        .add_unit(
            UnitSpec::new("bomber").subscribe("/in", None, |_jail, event| {
                if event.attr("arm") == Some("yes") {
                    panic!("wired to the doorknob");
                }
                Ok(())
            }),
        )
        .unwrap();
    let steady_count = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&steady_count);
    engine
        .add_unit(
            UnitSpec::new("steady").subscribe("/in", None, move |_jail, _event| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    broker.publish(
        &Event::new("/in")
            .unwrap()
            .with_attr("arm", "yes")
            .with_labels([]),
    );
    wait_for(
        || !handle.violations().is_empty(),
        "the contained panic to be visible",
    );

    // The pool keeps running: later events still reach the other unit.
    for _ in 0..10 {
        broker.publish(&Event::new("/in").unwrap().with_labels([]));
    }
    wait_for(
        || steady_count.load(Ordering::SeqCst) >= 11,
        "the steady unit to keep processing",
    );

    let violations = handle.stop();
    let panic = violations
        .iter()
        .find(|v| matches!(v.error, UnitError::Panicked(_)))
        .expect("stop must surface the contained panic");
    assert_eq!(panic.unit, "bomber");
    let UnitError::Panicked(message) = &panic.error else {
        unreachable!("matched above");
    };
    assert_eq!(message, "wired to the doorknob");
}

/// A panic part-way through one activation's burst must not swallow
/// what the burst already produced: events admitted by the jail before
/// the panic still reach the broker, then the unit is poisoned.
#[test]
fn panic_mid_burst_still_flushes_admitted_events() {
    let broker = Broker::new();
    let policy = policy("unit relay {\n}\n");
    // One worker with a generous burst, so the staged messages drain in
    // a single activation.
    let mut engine =
        Engine::new(Arc::new(broker.clone()), policy).with_options(scheduled(1, 64, 16));
    engine
        .add_unit(
            UnitSpec::new("relay").subscribe("/in", None, |jail, event| {
                match event.attr("do") {
                    Some("warmup") => std::thread::sleep(Duration::from_millis(150)),
                    Some("emit") => {
                        jail.publish(
                            Event::new("/out").map_err(|e| UnitError::BadEvent(e.to_string()))?,
                            safeweb_engine::Relabel::keep(),
                        )?;
                    }
                    _ => panic!("burst bomb"),
                }
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    let rx = broker.subscribe(
        "observer",
        "1",
        "/out",
        None,
        safeweb_labels::PrivilegeSet::new(),
    );

    // The warmup occupies activation 1; "emit" and the bomb queue up
    // behind it and drain together in activation 2.
    for step in ["warmup", "emit", "boom"] {
        broker.publish(
            &Event::new("/in")
                .unwrap()
                .with_attr("do", step)
                .with_labels([]),
        );
    }

    // The admitted event must arrive even though the same burst panicked.
    rx.recv_timeout(Duration::from_secs(5))
        .expect("the pre-panic emission was lost");
    let violations = handle.stop();
    assert!(
        violations
            .iter()
            .any(|v| matches!(&v.error, UnitError::Panicked(m) if m == "burst bomb")),
        "panic not surfaced: {violations:?}"
    );
}

/// A slow unit whose inbox sits at `inbox_cap` pushes back on its
/// publisher (the bus blocks instead of buffering unboundedly) while an
/// unrelated unit on another worker keeps flowing; once the slow unit
/// drains, the blocked publisher completes and nothing is lost.
#[test]
fn slow_unit_at_inbox_cap_backpressures_without_stalling_others() {
    const CAP: usize = 4;
    const SLOW_EVENTS: usize = 24;

    let broker = Broker::new();
    let policy = policy("unit slow {\n}\nunit fast {\n}\n");
    let mut engine =
        Engine::new(Arc::new(broker.clone()), policy).with_options(scheduled(2, CAP, 2));

    let gate = Arc::new(AtomicBool::new(false));
    let slow_count = Arc::new(AtomicUsize::new(0));
    let (open, slow_counter) = (Arc::clone(&gate), Arc::clone(&slow_count));
    engine
        .add_unit(
            UnitSpec::new("slow").subscribe("/slow", None, move |_jail, _event| {
                while !open.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                slow_counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    let fast_count = Arc::new(AtomicUsize::new(0));
    let fast_counter = Arc::clone(&fast_count);
    engine
        .add_unit(
            UnitSpec::new("fast").subscribe("/fast", None, move |_jail, _event| {
                fast_counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    // A dedicated publisher floods the stalled unit: it must block at
    // the inbox cap, well short of finishing.
    let flood_broker = broker.clone();
    let publisher = std::thread::spawn(move || {
        for i in 0..SLOW_EVENTS {
            flood_broker.publish(
                &Event::new("/slow")
                    .unwrap()
                    .with_attr("i", &i.to_string())
                    .with_labels([]),
            );
        }
    });
    wait_for(
        || broker.stats().delivered() >= CAP as u64,
        "the flood to reach the cap",
    );
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !publisher.is_finished(),
        "publisher should be blocked by the slow unit's bounded inbox"
    );

    // Unrelated traffic keeps flowing from another thread while that
    // publisher sits blocked.
    for _ in 0..20 {
        broker.publish(&Event::new("/fast").unwrap().with_labels([]));
    }
    wait_for(
        || fast_count.load(Ordering::SeqCst) >= 20,
        "the fast unit to process during the stall",
    );
    assert!(!publisher.is_finished(), "publisher must still be blocked");

    // Open the gate: the backlog drains, the publisher unblocks, and
    // every accepted event is processed exactly once.
    gate.store(true, Ordering::SeqCst);
    publisher.join().expect("publisher");
    wait_for(
        || slow_count.load(Ordering::SeqCst) >= SLOW_EVENTS,
        "the slow backlog to drain",
    );
    let violations = handle.stop();
    assert_eq!(slow_count.load(Ordering::SeqCst), SLOW_EVENTS);
    assert!(
        violations.is_empty(),
        "unexpected violations: {violations:?}"
    );
}

/// Graceful shutdown: everything the bus already accepted into unit
/// inboxes is processed before the workers join.
#[test]
fn stop_drains_in_flight_events() {
    let broker = Broker::new();
    let policy = policy("unit sink {\n}\n");
    let mut engine =
        Engine::new(Arc::new(broker.clone()), policy).with_options(scheduled(1, 256, 8));
    let count = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&count);
    engine
        .add_unit(
            UnitSpec::new("sink").subscribe("/in", None, move |_jail, _event| {
                std::thread::sleep(Duration::from_micros(200));
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    for _ in 0..100 {
        broker.publish(&Event::new("/in").unwrap().with_labels([]));
    }
    // Stop immediately: the publishes above all reached the inbox
    // (publish is synchronous into it), so all 100 must still be
    // processed by the draining shutdown.
    handle.stop();
    assert_eq!(count.load(Ordering::SeqCst), 100);
}

/// OS threads currently in this process, from `/proc/self/status`.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// The scheduled engine's thread count comes from `workers`, not from
/// how many units exist: 400 units on a two-worker pool adds two
/// threads (plus nothing else — no timers here).
#[test]
fn thread_count_is_independent_of_unit_count() {
    let broker = Broker::new();
    let mut engine =
        Engine::new(Arc::new(broker.clone()), Policy::new()).with_options(scheduled(2, 64, 8));
    let count = Arc::new(AtomicUsize::new(0));
    for i in 0..400 {
        let counter = Arc::clone(&count);
        engine
            .add_unit(UnitSpec::new(&format!("unit-{i}")).subscribe(
                &format!("/topic/{i}"),
                None,
                move |_jail, _event| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
            ))
            .unwrap();
    }
    let before = os_threads();
    let handle = engine.start().unwrap();
    let added = os_threads().saturating_sub(before);
    assert!(
        added <= 3,
        "400 scheduled units grew {added} threads; expected the 2 workers"
    );
    // And they are all live: one event each, all processed.
    for i in 0..400 {
        broker.publish(&Event::new(&format!("/topic/{i}")).unwrap().with_labels([]));
    }
    wait_for(
        || count.load(Ordering::SeqCst) >= 400,
        "every unit to process its event",
    );
    handle.stop();
}
