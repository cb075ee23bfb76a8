//! Integration tests for the engine: units exchanging labelled events
//! through the embedded broker, privilege enforcement end to end, and the
//! paper's Listing 1 example.

use std::sync::Arc;
use std::time::{Duration, Instant};

use safeweb_broker::Broker;
use safeweb_engine::{Engine, EngineOptions, Relabel, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_labels::{Label, Policy, Privilege, PrivilegeSet};

fn policy(text: &str) -> Policy {
    text.parse().unwrap()
}

/// Waits until `cond` is true or panics after 5 seconds.
fn wait_for(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for condition");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn unit_processes_and_republishes_with_labels() {
    let broker = Broker::new();
    let policy = policy(
        "
        unit doubler {
            clearance label:conf:e/*
        }
        ",
    );
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("doubler").subscribe("/in", None, |jail, event| {
                let n: i64 = event.attr("n").unwrap_or("0").parse().unwrap_or(0);
                jail.publish(
                    Event::new("/out")
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .with_attr("n", &(n * 2).to_string()),
                    Relabel::keep(),
                )
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    // An external observer with clearance watches /out.
    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::clearance(Label::conf("e", "p/1")));
    let rx = broker.subscribe("observer", "1", "/out", None, clearance);

    broker.publish(
        &Event::new("/in")
            .unwrap()
            .with_attr("n", "21")
            .with_labels([Label::conf("e", "p/1")]),
    );

    let delivery = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(delivery.event.attr("n"), Some("42"));
    // Labels stuck to the derived event.
    assert!(delivery.event.labels().contains(&Label::conf("e", "p/1")));
    handle.stop();
}

#[test]
fn uncleared_unit_never_sees_labelled_events() {
    let broker = Broker::new();
    let policy = policy("unit spy {\n}\n"); // no clearance at all
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    engine
        .add_unit(
            UnitSpec::new("spy").subscribe("/secret", None, move |_jail, _event| {
                seen2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    broker.publish(
        &Event::new("/secret")
            .unwrap()
            .with_labels([Label::conf("e", "p/1")]),
    );
    // Public event on the same topic *is* delivered.
    broker.publish(&Event::new("/secret").unwrap().with_labels([]));

    wait_for(|| seen.load(std::sync::atomic::Ordering::SeqCst) == 1);
    assert_eq!(broker.stats().label_filtered(), 1);
    handle.stop();
}

#[test]
fn declassification_without_privilege_is_suppressed_and_recorded() {
    let broker = Broker::new();
    let policy = policy(
        "
        unit leaky {
            clearance label:conf:e/*
        }
        ",
    );
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("leaky").subscribe("/in", None, |jail, _event| {
                // Bug: tries to strip all labels without privilege.
                jail.publish(
                    Event::new("/public").map_err(|e| UnitError::BadEvent(e.to_string()))?,
                    Relabel::keep().remove_all(),
                )
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    let rx = broker.subscribe("observer", "1", "/public", None, PrivilegeSet::new());
    broker.publish(
        &Event::new("/in")
            .unwrap()
            .with_labels([Label::conf("e", "p/1")]),
    );

    wait_for(|| !handle.violations().is_empty());
    let violations = handle.violations();
    assert!(matches!(
        violations[0].error,
        UnitError::DeclassificationDenied(_)
    ));
    assert_eq!(violations[0].unit, "leaky");
    // Nothing leaked to /public.
    assert!(rx.try_recv().is_err());
    handle.stop();
}

#[test]
fn privileged_unit_declassifies_for_storage() {
    let broker = Broker::new();
    let policy = policy(
        "
        unit storage {
            privileged
            clearance label:conf:e/*
        }
        ",
    );
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("storage").subscribe("/in", None, |jail, event| {
                // Privileged: may perform I/O and relabel.
                let _io = jail.io()?;
                jail.publish(
                    Event::new("/stored")
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .with_attr("from", event.attr("n").unwrap_or("-")),
                    Relabel::keep().remove_all().add(Label::conf("e", "mdt/a")),
                )
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    let rx = broker.subscribe("observer", "1", "/stored", None, clearance);

    broker.publish(
        &Event::new("/in")
            .unwrap()
            .with_attr("n", "7")
            .with_labels([Label::conf("e", "patient/7")]),
    );
    let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(d.event.labels().to_wire(), "label:conf:e/mdt/a");
    assert!(handle.violations().is_empty());
    handle.stop();
}

#[test]
fn listing1_daily_patient_list() {
    // The paper's Listing 1: accumulate patient ids from /patient_report,
    // then on /next_day publish the list relabelled as the patient-list
    // aggregate.
    let broker = Broker::new();
    let policy = policy(
        "
        unit daily_list {
            clearance label:conf:ecric.org.uk/*
            declassify label:conf:ecric.org.uk/patient/*
        }
        ",
    );
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("daily_list")
                .subscribe("/patient_report", Some("type = 'cancer'"), |jail, event| {
                    let mut list = jail.get("patient_list").unwrap_or_default();
                    if !list.is_empty() {
                        list.push(',');
                    }
                    list.push_str(event.attr("patient_id").unwrap_or("?"));
                    jail.set("patient_list", list, Relabel::keep())
                })
                .subscribe("/next_day", None, |jail, _event| {
                    let list = jail.get("patient_list").unwrap_or_default();
                    jail.publish(
                        Event::new("/daily_report")
                            .map_err(|e| UnitError::BadEvent(e.to_string()))?
                            .with_payload(list),
                        Relabel::keep()
                            .remove_all()
                            .add(Label::conf("ecric.org.uk", "patient_list")),
                    )
                }),
        )
        .unwrap();
    let handle = engine.start().unwrap();

    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::clearance(Label::conf(
        "ecric.org.uk",
        "patient_list",
    )));
    let rx = broker.subscribe("portal", "1", "/daily_report", None, clearance);

    for (id, typ) in [("1", "cancer"), ("2", "benign"), ("3", "cancer")] {
        broker.publish(
            &Event::new("/patient_report")
                .unwrap()
                .with_attr("type", typ)
                .with_attr("patient_id", id)
                .with_labels([Label::conf("ecric.org.uk", &format!("patient/{id}"))]),
        );
    }
    // No wait before the rollover: `publish` runs the unit's sink before
    // it returns, and both subscriptions feed the unit's one FIFO inbox,
    // so the two cancer reports (the benign one is selector-filtered) are
    // folded in before `/next_day` runs.
    broker.publish(&Event::new("/next_day").unwrap().with_labels([]));

    let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(d.event.event().payload(), Some("1,3"));
    assert_eq!(
        d.event.labels().to_wire(),
        "label:conf:ecric.org.uk/patient_list"
    );
    assert!(handle.violations().is_empty());
    handle.stop();
}

#[test]
fn timer_units_fire_with_empty_labels() {
    let broker = Broker::new();
    let policy = policy("unit ticker {\n privileged \n}\n");
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("ticker").every(Duration::from_millis(20), |jail| {
                assert!(jail.labels().is_empty());
                jail.publish(
                    Event::new("/tick").map_err(|e| UnitError::BadEvent(e.to_string()))?,
                    Relabel::keep(),
                )
            }),
        )
        .unwrap();
    let rx = broker.subscribe("obs", "1", "/tick", None, PrivilegeSet::new());
    let handle = engine.start().unwrap();
    let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(d.event.labels().is_empty());
    handle.stop();
}

#[test]
fn label_tracking_off_is_baseline_mode() {
    let broker = Broker::new();
    let policy = policy("unit echo {\n clearance label:conf:e/* \n}\n");
    let mut engine = Engine::new(Arc::new(broker.clone()), policy).with_options(EngineOptions {
        label_tracking: false,
        ..EngineOptions::default()
    });
    engine
        .add_unit(
            UnitSpec::new("echo").subscribe("/in", None, |jail, _event| {
                jail.publish(
                    Event::new("/out").map_err(|e| UnitError::BadEvent(e.to_string()))?,
                    Relabel::keep(),
                )
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    let rx = broker.subscribe("obs", "1", "/out", None, PrivilegeSet::new());
    broker.publish(
        &Event::new("/in")
            .unwrap()
            .with_labels([Label::conf("e", "p/1")]),
    );
    let d = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    // Baseline mode: labels are not propagated (this is the measured
    // no-tracking configuration, not a security mode).
    assert!(d.event.labels().is_empty());
    handle.stop();
}

#[test]
fn duplicate_unit_rejected() {
    let broker = Broker::new();
    let mut engine = Engine::new(Arc::new(broker), Policy::new());
    engine.add_unit(UnitSpec::new("u")).unwrap();
    assert!(engine.add_unit(UnitSpec::new("u")).is_err());
}
