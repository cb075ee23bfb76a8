//! Allocation budget of a render-cache hit through `SafeWebApp::handle`,
//! counted per thread by `safeweb_reactor::sys::CountingAlloc` (this
//! binary only installs it). A hit still pays basic-auth decoding, the
//! `users` row fetch and the password check, routing, the trace id and
//! the response; what it must not pay is a second copy of its cache key,
//! a copy of the path per route tried, the route's parameters or a
//! render. One key is built per request, the cache looks it up by
//! reference, routing copies nothing and the parameters are built only
//! on a miss: 20 allocations; 26 while routing collected the path's
//! segments per route and built the parameters before the probe, 27
//! while the lookup also copied the key.

use safeweb_docstore::DocStore;
use safeweb_http::{Method, Request};
use safeweb_json::jobject;
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_reactor::sys::{thread_allocations, CountingAlloc};
use safeweb_relstore::Database;
use safeweb_taint::SStr;
use safeweb_web::{AuthConfig, Ctx, SResponse, SafeWebApp, UserStore};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one `/metrics/:mid` hit.
const HIT_BUDGET: u64 = 20;

/// A portal-shaped app: an uncached route registered ahead of the cached
/// `/metrics/:mid`, whose page is one labelled document.
fn app() -> SafeWebApp {
    let users = UserStore::new(
        Database::new("web"),
        AuthConfig {
            hash_iterations: 10,
        },
    );
    let mut privileges = PrivilegeSet::new();
    privileges.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    users
        .create_user("mdt_a", "pw", &privileges, false)
        .unwrap();

    let records = DocStore::new("app");
    records
        .put(
            "metrics-a",
            jobject! {"cases" => 12, "completeness" => 75.0},
            LabelSet::singleton(Label::conf("e", "mdt/a")),
            None,
        )
        .unwrap();

    let mut app = SafeWebApp::new(users, records);
    app.get("/mdt/:mid", |_: &Ctx<'_>| SResponse::html(SStr::public("")));
    app.get_cached("/metrics/:mid", |ctx: &Ctx<'_>| {
        let mid = ctx.param_raw("mid").unwrap_or("");
        match ctx.record(&format!("metrics-{mid}")) {
            Some(doc) => SResponse::json(doc.to_json_sstr()),
            None => SResponse::not_found(),
        }
    });
    app
}

#[test]
fn a_render_cache_hit_builds_its_key_once() {
    let app = app();
    let request = Request::new(Method::Get, "/metrics/a").with_basic_auth("mdt_a", "pw");
    let first = app.handle(&request);
    assert_eq!(first.status(), 200);
    // A first hit, so that whatever the hit path builds lazily once per
    // thread or process is not counted.
    app.handle(&request);

    let before = thread_allocations();
    let hit = app.handle(&request);
    let allocations = thread_allocations() - before;
    assert_eq!(hit.body(), first.body());
    assert_eq!(app.stats().render_cache_hits(), 2);
    assert!(
        allocations <= HIT_BUDGET,
        "a render-cache hit made {allocations} allocations, budget {HIT_BUDGET}"
    );
}
