//! Engine-on-scheduler integration: the guarantees the worker-pool
//! engine must keep — panic isolation, inbox backpressure that
//! never stalls unrelated units, graceful draining shutdown, and a
//! thread count independent of the unit count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use safeweb_broker::Broker;
use safeweb_engine::{Engine, EngineOptions, Relabel, SchedulerOptions, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_labels::{Label, Policy, Privilege, PrivilegeKind, PrivilegeSet};

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

/// Holds the calling unit callback until the broker has delivered `n`
/// events in all. Every event published to the unit before that queues
/// behind the held activation, so the next activation drains them
/// together: a single-activation harness that waits on the broker's own
/// delivery count instead of a sleep.
fn hold_until_delivered(broker: &Broker, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.stats().delivered() < n {
        assert!(
            Instant::now() < deadline,
            "only {} of {n} deliveries",
            broker.stats().delivered()
        );
        std::thread::yield_now();
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
/// the panic still reach the broker — exactly those that survive, built
/// then, a superseded keyed event neither built nor flushed — then the
/// unit is poisoned. A builder that panics at that flush is recorded
/// beside the callback's panic, not in its place.
#[test]
fn panic_mid_burst_still_flushes_admitted_events() {
    let relay = relay_unit();
    // The gate holds activation 1 until the rest are queued behind it;
    // they drain together in activation 2.
    relay.hold(5);
    relay.send(&[
        &[("v", "emit")],
        &[("key", "k"), ("v", "1")],
        &[("key", "k"), ("v", "2")],
        &[("key", "p"), ("v", "x"), ("panic", "yes")],
        &[("do", "boom")],
    ]);

    // The admitted events must arrive even though the same burst panicked.
    let flushed: Vec<String> = (0..2)
        .map(|_| {
            let delivery = relay
                .rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a pre-panic emission was lost");
            delivery.event.attr("v").unwrap_or("").to_string()
        })
        .collect();
    assert_eq!(flushed, ["emit", "2"]);
    let violations = relay.handle.stop();
    for bomb in ["burst bomb", "builder bomb"] {
        assert!(
            violations
                .iter()
                .any(|v| matches!(&v.error, UnitError::Panicked(m) if m == bomb)),
            "{bomb} not surfaced: {violations:?}"
        );
    }
    assert!(
        relay.rx.try_recv().is_err(),
        "a superseded event was flushed on the panic path"
    );
    assert_eq!(relay.builds.load(Ordering::SeqCst), 2, "builds run");
}

/// A one-worker engine running the `relay` unit, an observer of
/// everything it publishes under `/out/*` (cleared for every label of
/// authority `e`), the number of keyed builders it has run, and whether
/// a gate holds its activation.
struct Relay {
    broker: Broker,
    handle: safeweb_engine::EngineHandle,
    rx: std::sync::mpsc::Receiver<safeweb_broker::Delivery>,
    builds: Arc<AtomicUsize>,
    gated: std::sync::mpsc::Receiver<()>,
}

impl Relay {
    /// Sends a gate holding the unit until the broker has delivered `n`
    /// events, and returns once the gate's callback runs: its activation
    /// has drained the inbox, so everything sent afterwards queues for
    /// the next activation.
    fn hold(&self, n: usize) {
        self.send(&[&[("do", "gate"), ("n", &n.to_string())]]);
        self.gated
            .recv_timeout(Duration::from_secs(10))
            .expect("the gate never held");
    }

    /// Publishes one `/in` event per entry of `events`, each with the
    /// given attributes, unlabelled.
    fn send(&self, events: &[&[(&str, &str)]]) {
        for attrs in events {
            let mut event = Event::new("/in").unwrap();
            for (k, v) in *attrs {
                event.set_attr(k, v).unwrap();
            }
            self.broker.publish(&event.with_labels([]));
        }
    }
}

/// Starts the `relay` unit. Per event it does what the attributes say:
/// `do=gate` holds the activation until the broker has delivered `n`
/// events (`hold_until_delivered`), `do=boom` panics, and any other
/// event is published to `/out/b` when `topic=b` and to `/out/a`
/// otherwise, carrying its `v` attribute, the trace it was published
/// under as `trace`, and the extra label `label:conf:e/<label>` when
/// given (an integrity label it may not add when `deny` is given). With
/// a `key` it is published with `Jail::publish_latest`, by a builder
/// that counts its runs, fails when `fail` is given, panics when `panic`
/// is given and builds on `/out/stray` when `stray` is given; without,
/// with `Jail::publish`.
fn relay_unit() -> Relay {
    let broker = Broker::new();
    let policy = policy("unit relay {\n}\n");
    // One worker with a generous burst, so the held messages drain in a
    // single activation.
    let mut engine =
        Engine::new(Arc::new(broker.clone()), policy).with_options(scheduled(1, 64, 16));
    let gate = broker.clone();
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    let (holding, gated) = std::sync::mpsc::channel();
    engine
        .add_unit(
            UnitSpec::new("relay").subscribe("/in", None, move |jail, event| {
                match event.attr("do") {
                    Some("gate") => {
                        let n = event.attr("n").and_then(|n| n.parse().ok()).unwrap_or(0);
                        holding.send(()).expect("the harness waits for the gate");
                        hold_until_delivered(&gate, n);
                        return Ok(());
                    }
                    Some("boom") => panic!("burst bomb"),
                    _ => {}
                }
                let topic = match event.attr("topic") {
                    Some("b") => "/out/b",
                    _ => "/out/a",
                };
                let built_on = match event.attr("stray") {
                    Some(_) => "/out/stray",
                    None => topic,
                };
                let out = Event::new(built_on)
                    .map_err(|e| UnitError::BadEvent(e.to_string()))?
                    .with_attr("v", event.attr("v").unwrap_or(""))
                    .with_attr("trace", &safeweb_obs::current_trace().to_string());
                let mut relabel = Relabel::keep();
                if let Some(label) = event.attr("label") {
                    relabel = relabel.add(Label::conf("e", label));
                }
                if event.attr("deny").is_some() {
                    relabel = relabel.add(Label::int("e", "endorsed"));
                }
                let Some(key) = event.attr("key") else {
                    return jail.publish(out, relabel);
                };
                let fail = event.attr("fail").is_some();
                let bomb = event.attr("panic").is_some();
                let counter = Arc::clone(&counter);
                jail.publish_latest(key, topic, relabel, move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    assert!(!bomb, "builder bomb");
                    if fail {
                        return Err(UnitError::Application("build failed".to_string()));
                    }
                    Ok(out)
                })
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::new(
        PrivilegeKind::Clearance,
        "label:conf:e/*".parse().unwrap(),
    ));
    let rx = broker.subscribe("observer", "1", "/out/*", None, clearance);
    Relay {
        broker,
        handle,
        rx,
        builds,
        gated,
    }
}

/// What one activation of the relay unit flushed.
#[derive(Debug)]
struct Activation {
    /// What it published, in order, as `(topic, v, label count)`.
    published: Vec<(String, String, usize)>,
    /// Keyed builders it ran.
    builds: usize,
    /// The engine's violations at stop.
    violations: Vec<safeweb_engine::Violation>,
}

/// Runs `events` through the relay unit in one activation, held by a
/// leading gate, up to the `v=end` marker the harness appends. Every
/// published event must carry the trace it was published under.
fn one_activation(events: &[&[(&str, &str)]]) -> Activation {
    let relay = relay_unit();
    relay.hold(events.len() + 2);
    relay.send(events);
    relay.send(&[&[("v", "end")]]);
    let mut published = Vec::new();
    loop {
        let delivery = relay
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the activation never flushed its end marker");
        let event = &delivery.event;
        assert!(event.trace_id().is_set());
        assert_eq!(
            Some(event.trace_id().to_string().as_str()),
            event.attr("trace"),
            "an event left with a trace other than its publish's"
        );
        let v = event.attr("v").unwrap_or("").to_string();
        if v == "end" {
            break;
        }
        published.push((event.topic().to_string(), v, event.labels().len()));
    }
    let builds = relay.builds.load(Ordering::SeqCst);
    Activation {
        published,
        builds,
        violations: relay.handle.stop(),
    }
}

fn published(items: &[(&str, &str, usize)]) -> Vec<(String, String, usize)> {
    items
        .iter()
        .map(|(topic, v, labels)| (topic.to_string(), v.to_string(), *labels))
        .collect()
}

/// Under one key, topic and label set only the last value is built and
/// flushed, in its own place: after everything published before it. A
/// superseded builder never runs.
#[test]
fn keyed_publishes_collapse_to_the_last_in_its_place() {
    let activation = one_activation(&[
        &[("key", "k"), ("v", "1")],
        &[("v", "r1")],
        &[("key", "k"), ("v", "2")],
        &[("v", "r2")],
        &[("key", "k"), ("v", "3")],
        &[("key", "j"), ("v", "x")],
    ]);
    assert_eq!(
        activation.published,
        published(&[
            ("/out/a", "r1", 0),
            ("/out/a", "r2", 0),
            ("/out/a", "3", 0),
            ("/out/a", "x", 0),
        ])
    );
    assert_eq!(activation.builds, 2, "a superseded builder ran");
    assert!(activation.violations.is_empty());
}

/// Events under one key that differ in label set or topic are all kept:
/// dropping one would change what some subscriber may see.
#[test]
fn keyed_publishes_with_other_labels_or_topics_are_kept() {
    let activation = one_activation(&[
        &[("key", "k"), ("v", "1")],
        &[("key", "k"), ("v", "2"), ("label", "x")],
        &[("key", "k"), ("v", "3")],
        &[("key", "k"), ("v", "4"), ("topic", "b")],
        &[("key", "k"), ("v", "5"), ("topic", "b")],
    ]);
    assert_eq!(
        activation.published,
        published(&[
            ("/out/a", "1", 0),
            ("/out/a", "2", 1),
            ("/out/a", "3", 0),
            ("/out/b", "5", 0),
        ])
    );
    assert_eq!(activation.builds, 4);
    assert!(activation.violations.is_empty());
}

/// Unkeyed publishes never collapse, however alike they are.
#[test]
fn unkeyed_publishes_never_collapse() {
    let activation = one_activation(&[&[("v", "same")], &[("v", "same")], &[("v", "same")]]);
    assert_eq!(activation.published, published(&[("/out/a", "same", 0); 3]));
    assert!(activation.violations.is_empty());
}

/// A survivor is built at flush, outside its callback, yet carries the
/// trace of its own publish (`one_activation` checks every event), not
/// the superseded one's and not one the broker mints at flush.
#[test]
fn a_survivor_carries_the_trace_of_its_publish() {
    let activation = one_activation(&[&[("key", "k"), ("v", "1")], &[("key", "k"), ("v", "2")]]);
    assert_eq!(activation.published, published(&[("/out/a", "2", 0)]));
    assert_eq!(activation.builds, 1);
    assert!(activation.violations.is_empty());
}

/// A keyed publish whose relabel is refused runs no builder and
/// supersedes nothing: the value before it is still flushed.
#[test]
fn a_refused_keyed_publish_supersedes_nothing() {
    let activation = one_activation(&[
        &[("key", "k"), ("v", "1")],
        &[("key", "k"), ("v", "2"), ("deny", "yes")],
    ]);
    assert_eq!(activation.published, published(&[("/out/a", "1", 0)]));
    assert_eq!(activation.builds, 1);
    assert!(
        matches!(
            activation.violations.as_slice(),
            [v] if matches!(v.error, UnitError::EndorsementDenied(_))
        ),
        "{:?}",
        activation.violations
    );
}

/// A builder that fails, panics or builds on another topic than its
/// publish named is one violation each at flush; every other event of
/// the activation still flushes, in order.
#[test]
fn a_failing_builder_is_one_violation_and_the_rest_flush() {
    let activation = one_activation(&[
        &[("v", "r1")],
        &[("key", "k"), ("v", "1"), ("fail", "yes")],
        &[("key", "j"), ("v", "2")],
        &[("key", "p"), ("v", "3"), ("panic", "yes")],
        &[("key", "s"), ("v", "4"), ("stray", "yes")],
        &[("v", "r2")],
    ]);
    assert_eq!(
        activation.published,
        published(&[("/out/a", "r1", 0), ("/out/a", "2", 0), ("/out/a", "r2", 0)])
    );
    assert_eq!(activation.builds, 4);
    assert_eq!(
        activation
            .violations
            .iter()
            .map(|v| (v.unit.as_str(), &v.error))
            .collect::<Vec<_>>(),
        [
            ("relay", &UnitError::Application("build failed".to_string())),
            ("relay", &UnitError::Panicked("builder bomb".to_string())),
            (
                "relay",
                &UnitError::BadEvent("built on /out/stray for /out/a".to_string())
            ),
        ]
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
