//! The operator surface: `/__obs/metrics`, `/__obs/health` and
//! `/__obs/trace/:id`, served from a dedicated listener
//! ([`crate::SafeWebDeployment::serve_ops`]) that is never the public
//! frontend address.
//!
//! # Label safety
//!
//! Telemetry must not become a declassification side channel, so the
//! ops surface is doubly guarded:
//!
//! * **Clearance gate** — every route requires HTTP basic credentials
//!   for a user with the admin bit ([`safeweb_web::AuthenticatedUser`]);
//!   anonymous callers get `401`, authenticated non-admins `403`, and
//!   neither response carries telemetry.
//! * **Structural values only** — what the registry and tracer hold is
//!   restricted at the *recording* sites (machine-checked by the
//!   `telemetry-hygiene` lint rule): counts, durations, sequence
//!   numbers, interned label-set ids, static route/unit names. Document
//!   fields, payload bytes and principal-derived strings never reach a
//!   metric or span, so even an admin snapshot reveals structure, not
//!   secrets.

use std::sync::Arc;

use safeweb_docstore::{DocStore, WalSync};
use safeweb_http::{Handler, Request, Response};
use safeweb_json::Value;
use safeweb_obs::{tracer, MetricsRegistry, TraceId};
use safeweb_web::UserStore;

/// Everything the ops handler needs, cloned out of the deployment so
/// the handler is `'static`.
pub(crate) struct OpsState {
    pub(crate) metrics: MetricsRegistry,
    pub(crate) users: UserStore,
    pub(crate) app_db: DocStore,
    pub(crate) dmz_db: DocStore,
}

/// Builds the ops [`Handler`]: admin gate first, then route dispatch.
pub(crate) fn handler(state: OpsState) -> Handler {
    let state = Arc::new(state);
    Arc::new(move |request: Request| serve(&state, &request))
}

fn serve(state: &OpsState, request: &Request) -> Response {
    // The gate runs before any routing so probing route existence
    // needs credentials too.
    let user = request
        .basic_auth()
        .and_then(|(username, password)| state.users.authenticate(&username, &password));
    let Some(user) = user else {
        return Response::new(401)
            .with_header("www-authenticate", "Basic realm=\"SafeWeb ops\"")
            .with_body("authentication required");
    };
    if !user.is_admin {
        // Under-cleared principal: deny without leaking whether the
        // route exists or what it would have shown.
        return Response::new(403).with_body("admin clearance required");
    }

    let path = request.path();
    if path == "/__obs/metrics" {
        return Response::json(state.metrics.snapshot().to_json());
    }
    if path == "/__obs/health" {
        return Response::json(health(state).to_json());
    }
    if let Some(id) = path.strip_prefix("/__obs/trace/") {
        return trace(id);
    }
    Response::new(404).with_body("not found")
}

/// The `/__obs/health` body: WAL sync state and persistence errors per
/// store, replication lag in sequence numbers, and live queue depths
/// against their caps — enough to answer "is the pipeline keeping up
/// and is anything about to lose data".
fn health(state: &OpsState) -> Value {
    let mut out = Value::object();

    let mut stores = Value::object();
    for (name, store) in [("app", &state.app_db), ("dmz", &state.dmz_db)] {
        let mut s = Value::object();
        s.set("durable", store.is_durable());
        s.set(
            "wal_sync",
            match store.wal_sync() {
                Some(WalSync::Always) => Value::from("always"),
                Some(WalSync::OsBuffered) => Value::from("os-buffered"),
                None => Value::Null,
            },
        );
        // The error string is produced by the store itself (I/O error
        // text), never from document content.
        s.set(
            "persistence_error",
            match store.persistence_error() {
                Some(e) => Value::from(e),
                None => Value::Null,
            },
        );
        s.set("seq", store.seq() as i64);
        stores.set(name, s);
    }
    out.set("stores", stores);

    // Queue depths vs caps and replication lag come from the registry's
    // derived gauges, so health never reaches into subsystem internals.
    let snapshot = state.metrics.snapshot();
    let gauge = |name: &str| snapshot.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    let mut replication = Value::object();
    replication.set("lag_seqs", gauge("replication.lag_seqs") as i64);
    out.set("replication", replication);

    let mut queues = Value::object();
    queues.set(
        "sched_queued_messages",
        gauge("sched.queued_messages") as i64,
    );
    queues.set("sched_inbox_cap", gauge("sched.inbox_cap") as i64);
    queues.set(
        "frontend_outbox_bytes",
        gauge("frontend.outbox_bytes") as i64,
    );
    out.set("queues", queues);

    let degraded =
        state.app_db.persistence_error().is_some() || state.dmz_db.persistence_error().is_some();
    out.set("status", if degraded { "degraded" } else { "ok" });
    out
}

/// The `/__obs/trace/:id` body: every span recorded under the id,
/// ordered by start time — the stitched frontend → engine → broker →
/// store causal chain for one request.
fn trace(id: &str) -> Response {
    let Ok(id) = id.parse::<TraceId>() else {
        return Response::new(400).with_body("malformed trace id");
    };
    if !id.is_set() {
        return Response::new(400).with_body("malformed trace id");
    }
    let body = tracer().trace_json(id);
    let empty = body
        .get("spans")
        .and_then(|s| s.as_array())
        .map(|s| s.is_empty())
        .unwrap_or(true);
    if empty {
        return Response::new(404).with_body("trace not found");
    }
    Response::json(body.to_json())
}
