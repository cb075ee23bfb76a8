//! Failure-injection tests: malformed protocol input, dropped
//! connections, interrupted replication and broken policy files must
//! degrade safely (fail closed), never disclose data, and never wedge the
//! system.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use safeweb::broker::{Broker, BrokerServer, EventClient};
use safeweb::docstore::{DocStore, Replicator};
use safeweb::events::Event;
use safeweb::labels::{LabelSet, Policy};

fn policy() -> Policy {
    "unit producer {\n clearance label:conf:e/*\n}"
        .parse()
        .unwrap()
}

#[test]
fn broker_survives_garbage_bytes() {
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let addr = server.addr();

    // Blast raw garbage at the broker.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\x00\xff\x13GARBAGE\n\n\x00more trash")
            .unwrap();
        let _ = s.read(&mut [0u8; 128]);
    }
    // Send a frame with an unknown command after CONNECT.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"CONNECT\nlogin:producer\n\n\x00").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"TELEPORT\n\n\x00").unwrap();
        let mut buf = vec![0u8; 1024];
        let _ = s.read(&mut buf);
    }

    // The broker still serves well-formed clients.
    let mut consumer = EventClient::connect(&addr.to_string(), "producer").unwrap();
    consumer.subscribe("/t", None).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut producer = EventClient::connect(&addr.to_string(), "producer").unwrap();
    producer
        .publish(&Event::new("/t").unwrap().with_labels([]))
        .unwrap();
    assert!(consumer.next_delivery().is_ok());
}

#[test]
fn broker_cleans_up_after_abrupt_disconnect() {
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let addr = server.addr().to_string();
    {
        let mut c = EventClient::connect(&addr, "producer").unwrap();
        c.subscribe("/t", None).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.broker().subscription_count(), 1);
        // Drop without DISCONNECT.
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.broker().subscription_count() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "subscriptions not cleaned up after abrupt disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn http_server_survives_malformed_requests() {
    use std::sync::Arc;
    let server = safeweb::http::HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(|_req| safeweb::http::Response::text("ok")),
    )
    .unwrap();
    let addr = server.addr();

    for garbage in [
        b"NONSENSE\r\n\r\n".as_slice(),
        b"GET\r\n\r\n".as_slice(),
        b"GET / HTTP/9.9\r\n\r\n".as_slice(),
        b"GET / HTTP/1.1\r\nbroken header\r\n\r\n".as_slice(),
        b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n".as_slice(),
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(garbage).unwrap();
        let mut buf = String::new();
        let _ = s.read_to_string(&mut buf);
        assert!(
            buf.starts_with("HTTP/1.1 4"),
            "expected 4xx for {garbage:?}, got {buf:?}"
        );
    }

    // Still healthy afterwards.
    let resp = safeweb::http::client::get(&addr.to_string(), "/").unwrap();
    assert_eq!(resp.status(), 200);
}

#[test]
fn replication_resumes_after_interruption() {
    let src = DocStore::new("src");
    let dst = DocStore::new("dst");
    for i in 0..5 {
        src.put(
            &format!("d{i}"),
            safeweb::json::Value::object(),
            LabelSet::new(),
            None,
        )
        .unwrap();
    }
    let mut rep = Replicator::new(src.clone(), dst.clone());
    rep.run_once();
    assert_eq!(dst.len(), 5);

    // "Crash": drop the replicator (losing nothing durable), write more,
    // then resume with a fresh replicator from scratch — convergence must
    // still hold because replication is idempotent.
    drop(rep);
    for i in 5..8 {
        src.put(
            &format!("d{i}"),
            safeweb::json::Value::object(),
            LabelSet::new(),
            None,
        )
        .unwrap();
    }
    let mut rep2 = Replicator::new(src.clone(), dst.clone());
    rep2.run_once();
    assert_eq!(dst.len(), 8);
    assert_eq!(src.ids(), dst.ids());
}

#[test]
fn malformed_policy_files_are_rejected_not_misread() {
    // Fail closed: a policy that does not parse must never be half-loaded.
    for bad in [
        "unit x {",                               // unterminated
        "user u {\n privileged \n}",              // users cannot be privileged
        "unit x {\n teleport label:conf:a/b \n}", // unknown privilege
        "unit x {\n clearance garbage \n}",       // bad label
        "unit x {\n}\nunit x {\n}",               // duplicate
    ] {
        assert!(
            bad.parse::<Policy>().is_err(),
            "accepted bad policy: {bad:?}"
        );
    }
}

#[test]
fn unknown_login_gets_no_privileges_not_an_error() {
    // A unit login absent from the policy connects fine but holds no
    // clearance: fail-closed semantics over the network.
    let server = BrokerServer::bind("127.0.0.1:0", Broker::new(), policy()).unwrap();
    let addr = server.addr().to_string();
    let mut ghost = EventClient::connect(&addr, "ghost").unwrap();
    ghost.subscribe("/t", None).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut producer = EventClient::connect(&addr, "producer").unwrap();
    producer
        .publish(
            &Event::new("/t")
                .unwrap()
                .with_labels([safeweb::labels::Label::conf("e", "secret")]),
        )
        .unwrap();
    // Labelled event: not delivered to the ghost.
    assert!(ghost
        .next_delivery_timeout(Duration::from_millis(200))
        .unwrap()
        .is_none());
    // Public event: delivered.
    producer
        .publish(&Event::new("/t").unwrap().with_labels([]))
        .unwrap();
    assert!(ghost.next_delivery().is_ok());
}

#[test]
fn case_event_without_mdt_is_refused_not_stored() {
    use safeweb::engine::{UnitError, Violation};
    use safeweb::events::LabelledEvent;
    use safeweb::json::Value;
    use safeweb::mdt::labels::mdt_label;
    use safeweb::mdt::registry::RegistryConfig;
    use safeweb::mdt::units::{MDT_RECORD_TOPIC, PATIENT_REPORT_TOPIC};
    use safeweb::mdt::{MdtPortal, PortalConfig};

    let portal = MdtPortal::build(PortalConfig {
        registry: RegistryConfig {
            regions: 1,
            hospitals_per_region: 1,
            mdts_per_hospital: 2,
            patients_per_mdt: 3,
            seed: 5,
        },
        auth_iterations: 500,
        replication_interval: Duration::from_millis(20),
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(30));
    let deployment = portal.deployment();
    let app_db = deployment.app_db();
    let ids = |db: &DocStore| -> Vec<String> {
        db.scan_prefix("")
            .iter()
            .map(|d| d.id().to_string())
            .collect()
    };
    let ids_before = ids(app_db);
    let violations_before = deployment.engine_violations().len();

    let server = BrokerServer::bind(
        "127.0.0.1:0",
        deployment.broker().clone(),
        deployment.policy().clone(),
    )
    .unwrap();
    let mut producer = EventClient::connect(&server.addr().to_string(), "data_producer").unwrap();
    let mdt = &portal.mdts()[0];
    let record_id = format!("record-{}-1", mdt.name);
    assert!(
        app_db.get(&record_id).is_some(),
        "patient 1 is in {}",
        mdt.name
    );
    let update = |marker: i64, region: &str, with_mdt: bool| {
        let mut event = Event::new(PATIENT_REPORT_TOPIC).unwrap();
        for (k, v) in [
            ("kind", "tumour"),
            ("type", "cancer"),
            ("case_id", "1"),
            ("hospital_id", &mdt.hospital_id.to_string()),
            ("region_id", region),
        ] {
            event.set_attr(k, v).unwrap();
        }
        if with_mdt {
            event.set_attr("mdt", &mdt.name).unwrap();
        }
        event
            .with_payload(format!("{{\"marker\":{marker}}}"))
            .with_labels([mdt_label(&mdt.name)])
    };
    let region = mdt.region_id.to_string();
    // Sends `malformed`, then two well-formed updates on the same
    // connection, so every unit sees the malformed events first. The
    // second update starts only after the activations that refused them,
    // and with them the recorded violations, have finished.
    let mut marker = 0;
    let mut send_then_settle = |malformed: &[LabelledEvent]| {
        for event in malformed {
            producer.publish(event).unwrap();
        }
        for _ in 0..2 {
            marker += 1;
            producer.publish(&update(marker, &region, true)).unwrap();
            let settled = app_db.wait_until(Duration::from_secs(30), |db| {
                db.get(&record_id)
                    .is_some_and(|d| d.body().get("marker").and_then(Value::as_i64) == Some(marker))
            });
            assert!(settled, "update {marker} never landed");
        }
        deployment.engine_violations()[violations_before..].to_vec()
    };

    // A case event without `mdt`: refused by the aggregator.
    let refused = send_then_settle(&[update(0, &region, false)]);
    assert_eq!(refused.len(), 1, "{refused:?}");
    assert!(matches!(
        &refused[0],
        Violation { unit, error: UnitError::BadEvent(reason) }
            if unit == "data_aggregator" && reason.contains("mdt")
    ));
    // A region that is not a number, and a record sent straight to the
    // storage unit without `mdt`: refused by the unit that reads them.
    let mut record = Event::new(MDT_RECORD_TOPIC).unwrap();
    record.set_attr("case_id", "1").unwrap();
    let record = record
        .with_payload("{}")
        .with_labels([mdt_label(&mdt.name)]);
    let refused = send_then_settle(&[update(0, "north", true), record]);
    // The two units record their refusals in either order.
    let mut refusers: Vec<&str> = refused[1..].iter().map(|v| v.unit.as_str()).collect();
    refusers.sort_unstable();
    assert_eq!(refusers, ["data_aggregator", "data_storage"]);
    assert!(refused
        .iter()
        .all(|v| matches!(v.error, UnitError::BadEvent(_))));
    assert_eq!(
        ids(app_db),
        ids_before,
        "a malformed event added a document"
    );
}
