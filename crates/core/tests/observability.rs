//! Observability integration: one HTTP request's trace id stitches the
//! whole pipeline — frontend → broker → engine → docstore — back
//! together through the ops surface, and that surface is admin-gated.

use std::time::{Duration, Instant};

use safeweb_core::SafeWebBuilder;
use safeweb_engine::{UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_http::{client, Method, Request};
use safeweb_labels::{Label, Privilege, PrivilegeSet};
use safeweb_taint::SStr;
use safeweb_web::{Ctx, SResponse};

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "condition never became true");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A deployment whose frontend POST route publishes into the broker and
/// whose storage unit persists the result — the Figure 1 write path.
fn submission_deployment() -> safeweb_core::SafeWebDeployment {
    let deployment = SafeWebBuilder::new()
        .policy(
            "unit storage {\n privileged \n clearance label:conf:e/* \n}"
                .parse()
                .unwrap(),
        )
        .auth_config(safeweb_web::AuthConfig {
            hash_iterations: 300,
        })
        .replication_interval(Duration::from_millis(15))
        .unit_with_app_db(|db| {
            UnitSpec::new("storage").subscribe("/submit", None, move |jail, event| {
                let _io = jail.io()?;
                db.put(
                    &format!("s-{}", event.attr("n").unwrap_or("0")),
                    safeweb_json::jobject! {"kind" => "submission"},
                    *jail.labels(),
                    None,
                )
                .map_err(|e| UnitError::Application(e.to_string()))?;
                Ok(())
            })
        })
        .build()
        .expect("deployment starts");

    deployment
        .users()
        .create_user("operator", "pw", &PrivilegeSet::new(), false)
        .unwrap();
    let mut cleared = PrivilegeSet::new();
    cleared.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    deployment
        .users()
        .create_user("admin", "pw", &cleared, true)
        .unwrap();
    deployment
}

#[test]
fn one_request_reconstructs_as_an_ordered_span_chain() {
    let deployment = submission_deployment();

    let mut app = deployment.new_frontend();
    let broker = deployment.broker().clone();
    app.post("/submit", move |_ctx: &Ctx<'_>| {
        // Published under the request's ambient trace scope, so the
        // event (and everything downstream of it) carries the id.
        broker.publish(
            &Event::new("/submit")
                .unwrap()
                .with_attr("n", "1")
                .with_labels([Label::conf("e", "mdt/a")]),
        );
        SResponse::text(SStr::public("accepted"))
    });

    let response =
        app.handle(&Request::new(Method::Post, "/submit").with_basic_auth("operator", "pw"));
    assert_eq!(response.status(), 200);
    let trace_id = response
        .headers()
        .get("x-safeweb-trace")
        .expect("routed responses carry the trace header")
        .to_string();

    // The write path completes asynchronously (broker → engine →
    // store); the document landing means the docstore span exists.
    assert!(deployment
        .app_db()
        .wait_until(Duration::from_secs(10), |db| db.len() == 1));

    // Reconstruct through the ops surface, exactly as an operator would.
    let ops = deployment.serve_ops("127.0.0.1:0").expect("ops binds");
    let addr = ops.addr().to_string();
    let fetch = |user: &str| {
        client::send(
            &addr,
            Request::new(Method::Get, &format!("/__obs/trace/{trace_id}"))
                .with_basic_auth(user, "pw"),
        )
        .expect("ops request")
    };

    // The engine records its span just after the storage callback
    // returns, so poll until all four components appear.
    let mut components: Vec<String> = Vec::new();
    wait_until(Duration::from_secs(10), || {
        let response = fetch("admin");
        assert_eq!(response.status(), 200);
        let body = safeweb_json::Value::parse(response.body_str().unwrap()).unwrap();
        assert_eq!(
            body.get("trace").and_then(|t| t.as_str()),
            Some(trace_id.as_str())
        );
        // Spans arrive ordered by start time; keep first occurrence of
        // each component to read the causal chain.
        components.clear();
        for span in body.get("spans").and_then(|s| s.as_array()).unwrap() {
            let component = span.get("component").and_then(|c| c.as_str()).unwrap();
            if !components.iter().any(|c| c == component) {
                components.push(component.to_string());
            }
        }
        components.len() >= 4
    });
    assert_eq!(
        components,
        ["frontend", "broker", "engine", "docstore"],
        "the span chain reads in pipeline order"
    );

    drop(ops);
}

#[test]
fn ops_surface_denies_under_cleared_principals() {
    let deployment = submission_deployment();
    let ops = deployment.serve_ops("127.0.0.1:0").expect("ops binds");
    let addr = ops.addr().to_string();

    for path in ["/__obs/metrics", "/__obs/health", "/__obs/trace/1234"] {
        // Anonymous or a wrong password: 401 with the challenge, and no
        // telemetry in the body.
        for request in [
            Request::new(Method::Get, path),
            Request::new(Method::Get, path).with_basic_auth("admin", "wrong"),
        ] {
            let denied = client::send(&addr, request).unwrap();
            assert_eq!(denied.status(), 401, "{path} must demand credentials");
            assert_eq!(
                denied.headers().get("www-authenticate"),
                Some("Basic realm=\"SafeWeb ops\"")
            );
            assert!(!denied.body_str().unwrap_or_default().contains('{'));
        }

        // Authenticated but not admin: 403, same opacity.
        let peon = client::send(
            &addr,
            Request::new(Method::Get, path).with_basic_auth("operator", "pw"),
        )
        .unwrap();
        assert_eq!(peon.status(), 403, "{path} must require the admin bit");
        assert!(!peon.body_str().unwrap_or_default().contains('{'));
    }
}

#[test]
fn ops_metrics_and_health_render_for_admins() {
    let deployment = submission_deployment();
    deployment.broker().publish(
        &Event::new("/submit")
            .unwrap()
            .with_attr("n", "7")
            .with_labels([Label::conf("e", "mdt/a")]),
    );
    assert!(deployment
        .app_db()
        .wait_until(Duration::from_secs(10), |db| db.len() == 1));

    let ops = deployment.serve_ops("127.0.0.1:0").expect("ops binds");
    let addr = ops.addr().to_string();

    let metrics = client::send(
        &addr,
        Request::new(Method::Get, "/__obs/metrics").with_basic_auth("admin", "pw"),
    )
    .unwrap();
    assert_eq!(metrics.status(), 200);
    let body = safeweb_json::Value::parse(metrics.body_str().unwrap()).unwrap();
    assert!(
        body.get("broker.published")
            .and_then(|v| v.as_i64())
            .unwrap()
            >= 1,
        "broker counters are live in the deployment registry"
    );
    assert_eq!(
        body.get("broker.subscriptions").and_then(|v| v.as_f64()),
        Some(1.0),
        "the storage unit's one subscription is counted"
    );
    assert!(
        body.get("docstore.app.put_ns")
            .and_then(|h| h.get("count"))
            .and_then(|c| c.as_i64())
            .unwrap()
            >= 1,
        "the app store's put histogram recorded the write"
    );

    let health = client::send(
        &addr,
        Request::new(Method::Get, "/__obs/health").with_basic_auth("admin", "pw"),
    )
    .unwrap();
    assert_eq!(health.status(), 200);
    let body = safeweb_json::Value::parse(health.body_str().unwrap()).unwrap();
    assert_eq!(body.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert!(body.get("stores").and_then(|s| s.get("app")).is_some());
    assert!(body.get("queues").is_some());

    // Malformed and unknown trace ids fail closed.
    let bad = client::send(
        &addr,
        Request::new(Method::Get, "/__obs/trace/zzz").with_basic_auth("admin", "pw"),
    )
    .unwrap();
    assert_eq!(bad.status(), 400);
    let unknown = client::send(
        &addr,
        Request::new(Method::Get, "/__obs/trace/00000000000000ff").with_basic_auth("admin", "pw"),
    )
    .unwrap();
    assert_eq!(unknown.status(), 404);
}

/// The process-wide JSON key intern table reports its fill, which stays
/// within its cap.
#[test]
fn the_registry_reports_the_json_key_intern_table() {
    let deployment = submission_deployment();
    let snapshot = deployment.metrics().snapshot();
    let interned = snapshot
        .get("json.interned_keys")
        .and_then(safeweb_json::Value::as_f64)
        .expect("json.interned_keys is registered");
    assert!(interned >= 1.0, "{interned}");
    assert!(
        interned <= safeweb_json::INTERN_MAX_KEYS as f64,
        "{interned}"
    );
}
