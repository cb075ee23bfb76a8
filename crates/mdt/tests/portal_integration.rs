//! End-to-end tests of the MDT portal: the full pipeline (registry →
//! producer → broker → aggregator → storage → replication → DMZ → HTTP
//! frontend) and the P1 policy matrix.

use std::time::Duration;

use safeweb_events::Event;
use safeweb_http::{Method, Request};
use safeweb_json::{jobject, Value};
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::units::{ProducerConfig, PATIENT_REPORT_TOPIC};
use safeweb_mdt::{password_for, MdtPortal, PortalConfig, VulnClass, VulnConfig};

fn small_portal() -> MdtPortal {
    let portal = MdtPortal::build(PortalConfig {
        registry: small_registry(),
        auth_iterations: 500,
        replication_interval: Duration::from_millis(20),
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(30));
    portal
}

fn get(app: &safeweb_web::SafeWebApp, path: &str, user: &str) -> (u16, String) {
    let resp =
        app.handle(&Request::new(Method::Get, path).with_basic_auth(user, &password_for(user)));
    (
        resp.status(),
        resp.body_str().unwrap_or_default().to_string(),
    )
}

#[test]
fn pipeline_delivers_labelled_records_to_dmz() {
    let portal = small_portal();
    // Every patient produced a record in the DMZ replica, with labels.
    let records = portal.deployment().dmz_db().scan_prefix("record-");
    assert_eq!(records.len(), 16);
    for doc in &records {
        assert!(
            !doc.labels().is_empty(),
            "stored record {} lost its labels",
            doc.id()
        );
    }
    // Metrics and regional aggregates exist too.
    assert!(!portal
        .deployment()
        .dmz_db()
        .scan_prefix("metrics-")
        .is_empty());
    assert!(!portal
        .deployment()
        .dmz_db()
        .scan_prefix("regional-")
        .is_empty());
    // No unit violated policy.
    assert!(portal.deployment().engine_violations().is_empty());
}

#[test]
fn p1_policy_matrix_over_http_pipeline() {
    let portal = small_portal();
    let app = portal.frontend(&VulnConfig::default());
    let mdts = portal.mdts().to_vec();
    // Layout with this config: mdts[0], mdts[1] share hospital in region
    // 0; mdts[2], mdts[3] in region 1.
    let (a, b, c) = (&mdts[0].name, &mdts[1].name, &mdts[2].name);
    assert_eq!(mdts[0].region_id, 0);
    assert_eq!(mdts[2].region_id, 1);

    // Own patient details: allowed.
    let (status, body) = get(&app, &format!("/records/{a}"), a);
    assert_eq!(status, 200);
    assert!(body.contains("\"case_id\""));

    // Another MDT's details: denied (application check, and the label
    // check behind it).
    let (status, _) = get(&app, &format!("/records/{a}"), b);
    assert_eq!(status, 403);
    let (status, _) = get(&app, &format!("/records/{a}"), c);
    assert_eq!(status, 403);

    // Front page renders for the owner.
    let (status, body) = get(&app, &format!("/mdt/{a}"), a);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("patient records"));

    // MDT-level aggregates: same-region MDT may read them...
    let (status, _) = get(&app, &format!("/metrics/{a}"), b);
    assert_eq!(status, 200);
    // ...an other-region MDT may not.
    let (status, _) = get(&app, &format!("/metrics/{a}"), c);
    assert_eq!(status, 403);

    // Regional aggregates: everyone.
    for user in [a, b, c] {
        let (status, body) = get(&app, "/aggregates/regional", user);
        assert_eq!(status, 200);
        assert!(body.contains("regional_metrics"));
    }

    // The comparison page (F3) renders for a member using same-region data.
    let (status, body) = get(&app, &format!("/compare/{a}"), a);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("Regional average"));

    // Unknown MDT 404s; unauthenticated requests 401.
    let (status, _) = get(&app, "/records/mdt-9-9-9", a);
    assert_eq!(status, 404);
    let resp = app.handle(&Request::new(Method::Get, &format!("/records/{a}")));
    assert_eq!(resp.status(), 401);
}

#[test]
fn admin_sees_everything() {
    let portal = small_portal();
    let app = portal.frontend(&VulnConfig::default());
    let a = &portal.mdts()[0].name;
    let resp = app.handle(
        &Request::new(Method::Get, &format!("/records/{a}")).with_basic_auth("admin", "admin-pw"),
    );
    assert_eq!(resp.status(), 200);
}

#[test]
fn served_over_real_http() {
    let portal = small_portal();
    let app = portal.frontend(&VulnConfig::default());
    let server = portal
        .deployment()
        .serve(app, "127.0.0.1:0")
        .expect("bind frontend");
    let addr = server.addr().to_string();
    let a = &portal.mdts()[0].name;
    let resp = safeweb_http::client::send(
        &addr,
        Request::new(Method::Get, &format!("/mdt/{a}")).with_basic_auth(a, &password_for(a)),
    )
    .expect("request");
    assert_eq!(resp.status(), 200);
    assert!(resp.body_str().unwrap().contains("patient records"));
}

#[test]
fn registry_import_keeps_the_pool_backlog_bounded() {
    // The benchmark's producer settings (200 cases every 5 ms) over a
    // 5 000-case registry. A tick fans out up to three events per case
    // inside the worker pool, where sends bypass the inbox cap, so only
    // tick admission bounds the backlog. Unbounded, the import queues
    // most of the registry at once (over 10 000 messages here).
    let batch = 200;
    let portal = MdtPortal::build(PortalConfig {
        registry: RegistryConfig {
            regions: 1,
            hospitals_per_region: 1,
            mdts_per_hospital: 50,
            patients_per_mdt: 100,
            seed: 3,
        },
        producer: ProducerConfig {
            interval: Duration::from_millis(5),
            batch,
        },
        auth_iterations: 500,
        ..PortalConfig::default()
    });
    let cases = portal.registry().count("patients").unwrap();
    let deployment = portal.deployment();
    let gauge = |name: &str| {
        deployment
            .metrics()
            .snapshot()
            .get(name)
            .and_then(Value::as_f64)
            .expect("scheduler gauge")
    };
    // Sampled on every commit to the DMZ replica while the portal waits
    // for the import to settle.
    let peak = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            deployment
                .dmz_db()
                .wait_until(Duration::from_secs(120), |db| {
                    peak = peak.max(gauge("sched.queued_messages"));
                    db.len() >= cases && db.count_prefix("record-") >= cases
                });
            peak
        });
        portal.wait_for_pipeline(Duration::from_secs(120));
        sampler.join().unwrap()
    });
    // A tick is admitted only while the producer is idle and the backlog
    // is under the cap; each aggregator event then fans out three storage
    // events. So the backlog never exceeds three times the cap plus one
    // tick (three events per case) — measured peaks stay near 2 000.
    let bound = 3.0 * (gauge("sched.inbox_cap") + (3 * batch) as f64);
    assert!(peak > 0.0, "the sampler saw the import");
    assert!(peak <= bound, "import backlog peaked at {peak} > {bound}");
}

fn small_registry() -> RegistryConfig {
    RegistryConfig {
        regions: 2,
        hospitals_per_region: 1,
        mdts_per_hospital: 2,
        patients_per_mdt: 4,
        seed: 11,
    }
}

#[test]
fn design_error_portal_settles_on_its_records() {
    // E9 keys cases across MDTs, so its aggregates need not match its
    // records and most events change none of them; the portal still
    // settles once every event reached a record.
    let portal = MdtPortal::build(PortalConfig {
        registry: small_registry(),
        vuln: VulnClass::DesignError.config(),
        auth_iterations: 500,
        replication_interval: Duration::from_millis(20),
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(30));
    assert_eq!(
        portal.deployment().dmz_db().count_prefix("record-"),
        portal.registry().count("patients").unwrap()
    );
}

#[test]
fn portal_settles_after_an_unchanged_case_is_resent() {
    let portal = small_portal();
    let deployment = portal.deployment();
    let dmz = deployment.dmz_db();
    let mdt = &portal.mdts()[0];
    let record = dmz
        .scan_prefix(&format!("record-{}-", mdt.name))
        .into_iter()
        .next()
        .expect("a record of the first MDT");
    let field = |name: &str| record.body().get(name).cloned().unwrap_or(Value::Null);
    let metrics_id = format!("metrics-{}", mdt.name);
    let metrics_before = dmz.get(&metrics_id).expect("metrics doc").body().to_json();

    // The producer's patient event for this case, sent again verbatim.
    let mut event = Event::new(PATIENT_REPORT_TOPIC).unwrap();
    for (k, v) in [
        ("kind", "patient"),
        ("type", "cancer"),
        ("case_id", field("case_id").as_str().unwrap()),
        ("mdt", mdt.name.as_str()),
        ("hospital_id", &mdt.hospital_id.to_string()),
        ("region_id", &mdt.region_id.to_string()),
        ("clinic", mdt.clinic.as_str()),
    ] {
        event.set_attr(k, v).unwrap();
    }
    let payload = jobject! { "name" => field("name"), "birth_year" => field("birth_year") };
    deployment.broker().publish(
        &event
            .with_payload(payload.to_json())
            .with_labels([mdt_label(&mdt.name)]),
    );
    let generation = record.rev().generation();
    assert!(dmz.wait_until(Duration::from_secs(30), |db| {
        db.get(record.id())
            .is_some_and(|doc| doc.rev().generation() > generation)
    }));

    portal.wait_for_pipeline(Duration::from_secs(30));
    let resent = dmz.get(record.id()).unwrap();
    assert_eq!(resent.body(), record.body(), "the resent case changed");
    assert_eq!(
        dmz.get(&metrics_id).unwrap().body().to_json(),
        metrics_before
    );
    assert!(deployment.engine_violations().is_empty());
}
