//! Integration tests for the deployment builder: the Figure 1 wiring as a
//! unit — units publish through the broker, the storage path lands in the
//! Intranet DB, replication mirrors into the read-only DMZ replica, and
//! the frontend created by the deployment enforces labels.

use std::time::{Duration, Instant};

use safeweb_core::docstore::StoreError;
use safeweb_core::{SafeWebBuilder, SafeWebDeployment, Zone};
use safeweb_engine::{Relabel, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_http::{Method, Request};
use safeweb_labels::{Label, Privilege, PrivilegeSet};
use safeweb_web::{Ctx, SResponse};

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "condition never became true");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The DMZ replica refuses a direct write and stores nothing.
fn assert_dmz_refuses_writes(deployment: &SafeWebDeployment) {
    let dmz = deployment.dmz_db();
    let seq = dmz.seq();
    let put = dmz.put(
        "dmz-write",
        safeweb_json::jobject! {"kind" => "forged"},
        safeweb_labels::LabelSet::new(),
        None,
    );
    assert!(matches!(put, Err(StoreError::ReadOnly)), "{put:?}");
    assert_eq!(dmz.seq(), seq);
}

/// Views are indexed only where they are read: the DMZ replica serves
/// every declared view, and the Intranet store, which nothing queries,
/// keeps no index and reports each view as unknown.
fn assert_views_only_on_the_replica(
    deployment: &SafeWebDeployment,
    views: &[(&'static str, &str, usize)],
) {
    for &(view, key, hits) in views {
        let key = safeweb_json::Value::from(key);
        let served = deployment.dmz_db().query_view(view, &key);
        assert_eq!(served.map(|docs| docs.len()).ok(), Some(hits), "{view}");
        let unknown = deployment.app_db().query_view(view, &key);
        assert!(
            matches!(&unknown, Err(StoreError::UnknownView(name)) if name == view),
            "{view}: {unknown:?}"
        );
    }
}

#[test]
fn full_wiring_and_replication() {
    let deployment = SafeWebBuilder::new()
        .policy(
            "
            unit storage {\n privileged \n clearance label:conf:e/* \n}
            "
            .parse()
            .unwrap(),
        )
        .replication_interval(Duration::from_millis(15))
        .auth_config(safeweb_web::AuthConfig { hash_iterations: 300 })
        .app_view("by_kind", "kind")
        .app_view("by_n", "n")
        .unit_with_app_db(|db| {
            UnitSpec::new("storage").subscribe("/result", None, move |jail, event| {
                let _io = jail.io()?;
                db.put(
                    &format!("r-{}", event.attr("n").unwrap_or("0")),
                    safeweb_json::jobject! {"kind" => "result", "n" => event.attr("n").unwrap_or("0")},
                    *jail.labels(),
                    None,
                )
                .map_err(|e| UnitError::Application(e.to_string()))?;
                Ok(())
            })
        })
        .build()
        .expect("deployment starts");

    // Publish a labelled result through the broker.
    deployment.broker().publish(
        &Event::new("/result")
            .unwrap()
            .with_attr("n", "1")
            .with_labels([Label::conf("e", "mdt/a")]),
    );

    // It lands in the Intranet DB and replicates into the DMZ replica.
    assert!(deployment
        .app_db()
        .wait_until(Duration::from_secs(10), |db| db.len() == 1));
    assert!(deployment
        .dmz_db()
        .wait_until(Duration::from_secs(10), |db| db.len() == 1));
    let doc = deployment.dmz_db().get("r-1").unwrap();
    assert!(doc.labels().contains(&Label::conf("e", "mdt/a")));
    assert_dmz_refuses_writes(&deployment);
    assert_views_only_on_the_replica(&deployment, &[("by_kind", "result", 1), ("by_n", "1", 1)]);

    // A frontend bound to the deployment enforces the stored labels.
    let mut cleared = PrivilegeSet::new();
    cleared.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    deployment
        .users()
        .create_user("member", "pw", &cleared, false)
        .unwrap();
    deployment
        .users()
        .create_user("outsider", "pw", &PrivilegeSet::new(), false)
        .unwrap();

    let mut app = deployment.new_frontend();
    app.get("/results", |ctx: &Ctx<'_>| {
        SResponse::json_array(&ctx.records_by("by_kind", "result"))
    });

    let ok = app.handle(&Request::new(Method::Get, "/results").with_basic_auth("member", "pw"));
    assert_eq!(ok.status(), 200);
    assert!(ok.body_str().unwrap().contains("result"));
    let denied =
        app.handle(&Request::new(Method::Get, "/results").with_basic_auth("outsider", "pw"));
    assert_eq!(denied.status(), 403);

    assert!(deployment.engine_violations().is_empty());
}

#[test]
fn builder_rejects_duplicate_units() {
    let result = SafeWebBuilder::new()
        .unit(UnitSpec::new("u"))
        .unit(UnitSpec::new("u"))
        .build();
    assert!(result.is_err());
}

#[test]
fn topology_is_ecric_shaped() {
    let deployment = SafeWebBuilder::new().build().unwrap();
    let fw = deployment.topology();
    assert!(fw.is_allowed(Zone::Intranet, Zone::Dmz));
    assert!(!fw.is_allowed(Zone::Dmz, Zone::Intranet));
    assert!(!fw.is_allowed(Zone::External, Zone::Intranet));
}

#[test]
fn stop_is_idempotent_and_runs_on_drop() {
    let mut deployment = SafeWebBuilder::new()
        .unit(UnitSpec::new("noop").subscribe("/t", None, |_jail, _event| Ok(())))
        .build()
        .unwrap();
    deployment.stop();
    deployment.stop(); // second call is a no-op
    drop(deployment); // drop after stop must not panic
}

/// Durable mode: a deployment restarted on the same data directory
/// recovers both stores, keeps the replica's views queryable (rebuilt
/// from its recovered documents; the Intranet store still has none),
/// and resumes replication from the persisted
/// checkpoint instead of re-transferring the history.
#[test]
fn durable_deployment_recovers_and_resumes_replication() {
    let dir = std::env::temp_dir().join(format!("safeweb-core-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let build = || {
        SafeWebBuilder::new()
            .data_dir(dir.clone())
            .replication_interval(Duration::from_millis(10))
            .auth_config(safeweb_web::AuthConfig {
                hash_iterations: 300,
            })
            .app_view("by_kind", "kind")
            .app_view("by_id", "id")
            .build()
            .expect("durable deployment starts")
    };

    let first_seq;
    {
        let deployment = build();
        assert!(deployment.is_durable());
        deployment
            .app_db()
            .put(
                "r-1",
                safeweb_json::jobject! {"kind" => "result", "id" => "r-1"},
                safeweb_labels::LabelSet::new(),
                None,
            )
            .unwrap();
        assert!(deployment
            .dmz_db()
            .wait_until(Duration::from_secs(10), |db| db.len() == 1));
        assert_views_only_on_the_replica(&deployment, &[("by_kind", "result", 1)]);
        first_seq = deployment.app_db().seq();
        // The checkpoint is logged in the replica's commit of the run
        // (or in a checkpoint-only commit), and every commit signals.
        assert!(deployment
            .dmz_db()
            .wait_until(Duration::from_secs(10), |db| {
                db.replication_checkpoint_persisted() == Some(first_seq)
            }));
    } // deployment dropped: engine + replication stop, stores close

    let deployment = build();
    // Both stores recovered, and the replica's view indexes rebuilt.
    assert_eq!(deployment.app_db().len(), 1);
    assert_eq!(deployment.dmz_db().len(), 1);
    assert_views_only_on_the_replica(
        &deployment,
        &[("by_kind", "result", 1), ("by_id", "r-1", 1)],
    );
    assert_dmz_refuses_writes(&deployment);
    let replica_seq = deployment.dmz_db().seq();

    // New writes replicate incrementally: the replica's sequence number
    // advances by exactly one document, proving nothing was re-pushed.
    deployment
        .app_db()
        .put(
            "r-2",
            safeweb_json::jobject! {"kind" => "result"},
            safeweb_labels::LabelSet::new(),
            None,
        )
        .unwrap();
    assert!(deployment
        .dmz_db()
        .wait_until(Duration::from_secs(10), |db| db.get("r-2").is_some()));
    assert_eq!(deployment.dmz_db().seq(), replica_seq + 1);
    drop(deployment);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jailed_unit_cannot_leak_through_deployment() {
    let deployment = SafeWebBuilder::new()
        .policy(
            "unit leaky {\n clearance label:conf:e/* \n}"
                .parse()
                .unwrap(),
        )
        .unit(
            UnitSpec::new("leaky").subscribe("/in", None, |jail, _event| {
                jail.publish(
                    Event::new("/out").map_err(|e| UnitError::BadEvent(e.to_string()))?,
                    Relabel::keep().remove_all(), // bug: tries to declassify
                )
            }),
        )
        .build()
        .unwrap();
    let rx = deployment
        .broker()
        .subscribe("obs", "1", "/out", None, PrivilegeSet::new());
    deployment.broker().publish(
        &Event::new("/in")
            .unwrap()
            .with_labels([Label::conf("e", "p/1")]),
    );
    wait_until(Duration::from_secs(10), || {
        !deployment.engine_violations().is_empty()
    });
    assert!(rx.try_recv().is_err(), "nothing must reach /out");
}
