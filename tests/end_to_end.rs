//! Repository-level integration tests spanning every tier over real
//! sockets: STOMP broker server ↔ engine (remote bus) ↔ document store ↔
//! HTTP frontend, plus the S1 unidirectionality properties.

use std::sync::Arc;
use std::time::Duration;

use safeweb::broker::{Broker, BrokerServer};
use safeweb::docstore::{DocStore, Replicator};
use safeweb::engine::{Engine, Relabel, RemoteBus, UnitError, UnitSpec};
use safeweb::events::Event;
use safeweb::http::{client, Method, Request};
use safeweb::labels::{Label, LabelSet, Policy, Privilege, PrivilegeSet};
use safeweb::web::{AuthConfig, Ctx, SResponse, SafeWebApp, UserStore};
use safeweb::{Zone, ZoneTopology};

/// The full pipeline with a *networked* broker: producer unit → TCP STOMP
/// broker → jailed transform unit → storage into a DocStore → replication
/// → HTTP frontend, ending with the label check against two users.
#[test]
fn networked_pipeline_end_to_end() {
    let policy: Policy = "
        unit importer {
            privileged
        }
        unit enricher {
            clearance label:conf:e/*
        }
        unit storage {
            privileged
            clearance label:conf:e/*
        }
    "
    .parse()
    .unwrap();

    let broker = Broker::new();
    let server = BrokerServer::bind("127.0.0.1:0", broker.clone(), policy.clone()).unwrap();
    let addr = server.addr().to_string();

    // Intranet side: storage DB + DMZ replica.
    let app_db = DocStore::new("intranet");
    app_db.create_view("by_mid", "mdt_id");
    let dmz = DocStore::new("dmz");
    dmz.create_view("by_mid", "mdt_id");
    dmz.set_read_only(true);

    // Engine connects to the broker over TCP (remote bus), like the
    // paper's deployment where the engine and broker are separate
    // processes.
    let bus = RemoteBus::connect(&addr, "enricher").unwrap();
    let mut engine = Engine::new(Arc::new(bus), policy.clone());
    engine
        .add_unit(
            UnitSpec::new("enricher").subscribe("/raw", None, |jail, event| {
                let upper = event.attr("name").unwrap_or("").to_uppercase();
                jail.publish(
                    Event::new("/enriched")
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .with_attr("mdt_id", event.attr("mdt_id").unwrap_or("?"))
                        .with_attr("name", &upper)
                        .with_payload(format!(
                            "{{\"mdt_id\":\"{}\",\"name\":\"{}\"}}",
                            event.attr("mdt_id").unwrap_or("?"),
                            upper
                        )),
                    Relabel::keep(),
                )
            }),
        )
        .unwrap();
    let storage_bus = RemoteBus::connect(&addr, "storage").unwrap();
    let storage_db = app_db.clone();
    let mut storage_engine = Engine::new(Arc::new(storage_bus), policy.clone());
    storage_engine
        .add_unit(
            UnitSpec::new("storage").subscribe("/enriched", None, move |jail, event| {
                let _io = jail.io()?;
                let body = safeweb::json::Value::parse(event.payload().unwrap_or("{}"))
                    .map_err(|e| UnitError::BadEvent(e.to_string()))?;
                storage_db
                    .put(
                        &format!("rec-{}", event.attr("name").unwrap_or("x")),
                        body,
                        *jail.labels(),
                        None,
                    )
                    .map_err(|e| UnitError::Application(e.to_string()))?;
                Ok(())
            }),
        )
        .unwrap();
    let h1 = engine.start().unwrap();
    let h2 = storage_engine.start().unwrap();
    // A unit's SUBSCRIBE returns once the frame is written; wait until
    // the broker holds both before publishing.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while broker.subscription_count() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "units never subscribed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The importer publishes one labelled record over TCP.
    let importer = RemoteBus::connect(&addr, "importer").unwrap();
    use safeweb::engine::EventBus;
    importer
        .publish(
            &Event::new("/raw")
                .unwrap()
                .with_attr("mdt_id", "a")
                .with_attr("name", "ann")
                .with_labels([Label::conf("e", "mdt/a")]),
        )
        .unwrap();

    // Wait for the doc to land, then replicate to the DMZ.
    assert!(
        app_db.wait_until(Duration::from_secs(10), |db| !db.is_empty()),
        "pipeline stalled"
    );
    let mut replicator = Replicator::new(app_db.clone(), dmz.clone());
    replicator.run_once();
    let doc = dmz.get("rec-ANN").expect("replicated");
    assert!(doc.labels().contains(&Label::conf("e", "mdt/a")));

    // Frontend over the DMZ replica.
    let users = UserStore::new(
        safeweb::relstore::Database::new("web"),
        AuthConfig {
            hash_iterations: 500,
        },
    );
    let mut cleared = PrivilegeSet::new();
    cleared.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    users.create_user("member", "pw", &cleared, false).unwrap();
    users
        .create_user("outsider", "pw", &PrivilegeSet::new(), false)
        .unwrap();

    let mut app = SafeWebApp::new(users, dmz.clone());
    app.get("/records/:mid", |ctx: &Ctx<'_>| {
        SResponse::json_array(&ctx.records_by("by_mid", ctx.param_raw("mid").unwrap_or("")))
    });
    let http =
        safeweb::http::HttpServer::bind("127.0.0.1:0", Arc::new(app).into_handler()).unwrap();
    let http_addr = http.addr().to_string();

    let ok = client::send(
        &http_addr,
        Request::new(Method::Get, "/records/a").with_basic_auth("member", "pw"),
    )
    .unwrap();
    assert_eq!(ok.status(), 200);
    assert!(ok.body_str().unwrap().contains("ANN"));

    let denied = client::send(
        &http_addr,
        Request::new(Method::Get, "/records/a").with_basic_auth("outsider", "pw"),
    )
    .unwrap();
    assert_eq!(denied.status(), 403);
    assert!(!denied.body_str().unwrap().contains("ANN"));

    assert!(h1.violations().is_empty());
    assert!(h2.violations().is_empty());
    h1.stop();
    h2.stop();
}

/// `RemoteBus::subscribe` routes each subscription before it releases the
/// subscriber connection, so the reader thread can never read a
/// `MESSAGE` for a subscription it has no route for. Each event here is
/// published the moment the server has registered its subscription —
/// possibly while `engine.start()` is still wiring the next one — and
/// every one must reach the unit.
#[test]
fn remote_subscriptions_route_before_their_first_delivery() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const TOPICS: usize = 8;
    let policy: Policy = "unit listener {\n}\n".parse().unwrap();
    for _round in 0..20 {
        let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy.clone()).unwrap();
        let broker = server.broker().clone();
        let bus = RemoteBus::connect(&server.addr().to_string(), "listener").unwrap();
        let received = Arc::new(AtomicUsize::new(0));
        let mut unit = UnitSpec::new("listener");
        for t in 0..TOPICS {
            let counter = Arc::clone(&received);
            unit = unit.subscribe(&format!("/race/{t}"), None, move |_jail, _event| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        let mut engine = Engine::new(Arc::new(bus), policy.clone());
        engine.add_unit(unit).unwrap();

        // Subscriptions register in wiring order, so the k-th registered
        // one is `/race/k`.
        let publisher = std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            for t in 0..TOPICS {
                while broker.subscription_count() <= t {
                    assert!(std::time::Instant::now() < deadline, "subscribe stalled");
                    std::thread::yield_now();
                }
                broker.publish(&Event::new(&format!("/race/{t}")).unwrap().with_labels([]));
            }
        });
        let handle = engine.start().unwrap();
        publisher.join().unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while received.load(Ordering::SeqCst) < TOPICS {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {TOPICS} early events delivered",
                received.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(handle.stop().is_empty());
    }
}

/// S1: the deployment's data paths are one-way. The DMZ replica rejects
/// writes, replication never flows backwards, and the firewall matrix
/// forbids DMZ→Intranet and External→Intranet.
#[test]
fn s1_unidirectional_data_flow() {
    let fw = ZoneTopology::ecric();
    assert!(fw.check(Zone::Dmz, Zone::Intranet).is_err());
    assert!(fw.check(Zone::External, Zone::Intranet).is_err());
    assert!(fw.check(Zone::Intranet, Zone::Dmz).is_ok());

    let intranet = DocStore::new("intranet");
    let dmz = DocStore::new("dmz");
    dmz.set_read_only(true);

    // Frontend-style write to the replica: refused.
    assert!(dmz
        .put("x", safeweb::json::Value::object(), LabelSet::new(), None)
        .is_err());

    // Pollute the DMZ via the internal path, then replicate forward: the
    // Intranet instance must never receive it.
    intranet
        .put(
            "legit",
            safeweb::json::Value::object(),
            LabelSet::new(),
            None,
        )
        .unwrap();
    let mut rep = Replicator::new(intranet.clone(), dmz.clone());
    rep.run_once();
    assert!(dmz.get("legit").is_some());
    assert!(intranet.get("legit").is_some());
    assert_eq!(intranet.ids(), vec!["legit".to_string()]);
}

/// S2 at the unit level: a buggy unit that tries to exfiltrate labelled
/// data to a public topic is stopped by the jail, and the violation is
/// observable.
#[test]
fn s2_buggy_unit_cannot_leak() {
    let policy: Policy = "unit logger {\n clearance label:conf:e/*\n}"
        .parse()
        .unwrap();
    let broker = Broker::new();
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    engine
        .add_unit(
            UnitSpec::new("logger").subscribe("/sensitive", None, |jail, event| {
                // The §3.1 example: a logging function that would write
                // confidential records to an externally readable log topic.
                jail.publish(
                    Event::new("/public_log")
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .with_attr("line", event.attr("data").unwrap_or("")),
                    Relabel::keep().remove_all(), // bug: strips labels
                )
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    let log_reader = broker.subscribe("log", "1", "/public_log", None, PrivilegeSet::new());

    broker.publish(
        &Event::new("/sensitive")
            .unwrap()
            .with_attr("data", "patient record")
            .with_labels([Label::conf("e", "patient/1")]),
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.violations().is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "violation never recorded"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(log_reader.try_recv().is_err(), "leak reached the log");
    handle.stop();
}
