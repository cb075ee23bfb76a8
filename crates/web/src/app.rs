//! The SafeWeb web frontend (§4.4, Figure 3): a Sinatra-like application
//! wrapper that authenticates every request, fetches the user's privileges
//! from the web database, runs the route handler over labelled data, and
//! **checks the response's labels against the user's privileges before
//! anything leaves the server**.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use safeweb_docstore::{DocStore, Document};
use safeweb_http::{url_encode, Method, Request, Response};
use safeweb_labels::PrivilegeSet;
use safeweb_obs::{record_span, trace_scope, Counter, Histogram, MetricsRegistry, TraceId};
use safeweb_taint::{SStr, SValue};

use crate::auth::{AuthenticatedUser, UserStore};
use crate::render_cache::{RenderCache, RenderedPage};
use crate::router::Router;
use crate::template::SDoc;

/// A labelled response produced by a route handler.
#[derive(Debug, Clone)]
pub struct SResponse {
    status: u16,
    content_type: &'static str,
    body: SStr,
}

impl SResponse {
    fn ok(content_type: &'static str, body: SStr) -> SResponse {
        SResponse {
            status: 200,
            content_type,
            body,
        }
    }

    /// 200 text/html.
    pub fn html(body: SStr) -> SResponse {
        SResponse::ok("text/html; charset=utf-8", body)
    }

    /// 200 application/json.
    pub fn json(body: SStr) -> SResponse {
        SResponse::ok("application/json", body)
    }

    /// 200 application/json: the documents as one array (the paper's
    /// Listing 2 `records.to_json`), each written by reference into the
    /// one labelled body.
    pub fn json_array(docs: &[SDoc]) -> SResponse {
        let mut body = SStr::public("[");
        for (i, doc) in docs.iter().enumerate() {
            if i > 0 {
                body.push_str(",");
            }
            doc.write_json(&mut body);
        }
        body.push_str("]");
        SResponse::json(body)
    }

    /// 200 text/plain.
    pub fn text(body: SStr) -> SResponse {
        SResponse::ok("text/plain; charset=utf-8", body)
    }

    /// A public (unlabelled) error page with the given status.
    pub fn error(status: u16, message: &str) -> SResponse {
        SResponse::text(SStr::public(message)).with_status(status)
    }

    /// 404.
    pub fn not_found() -> SResponse {
        SResponse::error(404, "not found")
    }

    /// Overrides the status code.
    pub fn with_status(mut self, status: u16) -> SResponse {
        self.status = status;
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The labelled body.
    pub fn body(&self) -> &SStr {
        &self.body
    }
}

/// Request context handed to route handlers.
pub struct Ctx<'a> {
    request: &'a Request,
    params: BTreeMap<String, String>,
    user: &'a AuthenticatedUser,
    records: &'a DocStore,
}

impl<'a> Ctx<'a> {
    /// The raw HTTP request.
    pub fn request(&self) -> &Request {
        self.request
    }

    /// A path parameter as a **user-tainted** labelled string: route
    /// parameters are user input and must be sanitised before echoing.
    pub fn param(&self, name: &str) -> Option<SStr> {
        self.params.get(name).map(|v| SStr::from_user(v.clone()))
    }

    /// A path parameter as a plain string, for use as a lookup key.
    pub fn param_raw(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    /// A query parameter as a user-tainted labelled string.
    pub fn query(&self, name: &str) -> Option<SStr> {
        self.request.query(name).map(SStr::from_user)
    }

    /// The authenticated user.
    pub fn user(&self) -> &AuthenticatedUser {
        self.user
    }

    /// The user's privileges (fetched from the web database in step 1).
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.user.privileges
    }

    /// Queries a view of the application database, returning **labelled**
    /// documents: this is §4.4 step 2, where "SafeWeb's taint tracking
    /// library transparently adds the labels produced by units in the
    /// backend to the data fetched from the application database".
    ///
    /// Views are incrementally indexed by the store, so this is a lookup
    /// whose cost scales with the result set, not the database size.
    ///
    /// Nothing is copied: each [`SDoc`] is the store's own reference-counted
    /// document with its label set beside it, and stays valid (and
    /// unchanged — documents are immutable, a write makes a new one)
    /// however the store moves on. Field access borrows from it.
    ///
    /// The view name is query *structure* and must be a
    /// [`safeweb_safeq::TrustedLiteral`] — in practice a `&'static str`
    /// written by the application author. The key is plain data (matched
    /// structurally against the index), so user input is safe there.
    pub fn records_by(
        &self,
        view: impl Into<safeweb_safeq::TrustedLiteral>,
        key: &str,
    ) -> Vec<SDoc> {
        self.records
            .query_view(view, &safeweb_json::Value::from(key))
            .unwrap_or_default()
            .into_iter()
            .map(labelled)
            .collect()
    }

    /// Fetches one labelled document by id — like [`Ctx::records_by`], the
    /// store's own allocation, shared.
    pub fn record(&self, id: &str) -> Option<SDoc> {
        self.records.get(id).map(labelled)
    }
}

/// §4.4 step 2: the labels the backend stored beside a document travel
/// with it into the handler.
fn labelled(doc: Document) -> SDoc {
    let labels = *doc.labels();
    SValue::with_label_set(doc, labels)
}

/// A route handler.
pub type RouteHandler = Arc<dyn Fn(&Ctx<'_>) -> SResponse + Send + Sync>;

/// Frontend options.
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// When `false`, the response label check is skipped — the paper's
    /// §5.3 "without taint tracking" baseline. Never disable in production.
    /// The render cache holds only *released* bodies, so it is off too:
    /// routes registered with [`SafeWebApp::get_cached`] render every
    /// request.
    pub label_checking: bool,
}

impl Default for FrontendOptions {
    fn default() -> FrontendOptions {
        FrontendOptions {
            label_checking: true,
        }
    }
}

/// Cumulative per-phase timing counters (nanoseconds), reproducing the
/// Figure 5 frontend breakdown.
///
/// A thin view over [`safeweb_obs`] counters: each field is a shared
/// handle, so [`SafeWebApp::attach_metrics`] can surface the same
/// counters in a [`MetricsRegistry`] without double counting. Counter
/// increments are relaxed; the accessors read with acquire ordering, so
/// a reader observing one phase's total also observes every increment
/// that preceded it.
#[derive(Debug, Default)]
pub struct FrontendStats {
    requests: Counter,
    auth_ns: Counter,
    privilege_fetch_ns: Counter,
    handler_ns: Counter,
    label_check_ns: Counter,
    denied: Counter,
    render_cache_hits: Counter,
    render_cache_misses: Counter,
}

impl FrontendStats {
    /// Requests served (after routing).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Total time verifying passwords.
    pub fn auth_ns(&self) -> u64 {
        self.auth_ns.get()
    }

    /// Total time fetching users/privileges from the web database.
    pub fn privilege_fetch_ns(&self) -> u64 {
        self.privilege_fetch_ns.get()
    }

    /// Total time in route handlers (template rendering etc.).
    pub fn handler_ns(&self) -> u64 {
        self.handler_ns.get()
    }

    /// Total time checking response labels: the user-taint test and the
    /// one `flows_to` on the page's label union. The released body moves
    /// into the response, so no copy of it is timed here.
    pub fn label_check_ns(&self) -> u64 {
        self.label_check_ns.get()
    }

    /// Responses aborted by the label check — each one is a contained
    /// policy violation.
    pub fn denied(&self) -> u64 {
        self.denied.get()
    }

    /// Requests on cacheable routes served from the per-clearance render
    /// cache (no handler run, no re-check).
    pub fn render_cache_hits(&self) -> u64 {
        self.render_cache_hits.get()
    }

    /// Requests on cacheable routes that had to render (cold entry, store
    /// advanced, or evicted).
    pub fn render_cache_misses(&self) -> u64 {
        self.render_cache_misses.get()
    }
}

/// The SafeWeb application: routes plus the enforcement middleware.
pub struct SafeWebApp {
    router: Router,
    handlers: Vec<RouteHandler>,
    /// Parallel to `handlers`: whether the route opted into the
    /// per-clearance render cache via [`SafeWebApp::get_cached`].
    cacheable: Vec<bool>,
    /// Parallel to `handlers`: end-to-end request latency per route.
    route_ns: Vec<Histogram>,
    /// Parallel to `handlers`: the metric-safe route name ("get
    /// /records/:mid") — the author-written pattern, never the concrete
    /// request path, so parameter values cannot leak into span names.
    route_names: Vec<String>,
    users: UserStore,
    records: DocStore,
    options: FrontendOptions,
    stats: Arc<FrontendStats>,
    render_cache: RenderCache,
}

impl SafeWebApp {
    /// Creates an application over the given user store and application
    /// database (the read-only DMZ replica in the deployed topology).
    pub fn new(users: UserStore, records: DocStore) -> SafeWebApp {
        SafeWebApp {
            router: Router::new(),
            handlers: Vec::new(),
            cacheable: Vec::new(),
            route_ns: Vec::new(),
            route_names: Vec::new(),
            users,
            records,
            options: FrontendOptions::default(),
            stats: Arc::new(FrontendStats::default()),
            render_cache: RenderCache::new(),
        }
    }

    /// Overrides options (baseline benchmarking only).
    pub fn with_options(mut self, options: FrontendOptions) -> SafeWebApp {
        self.options = options;
        self
    }

    /// Registers a GET route.
    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Ctx<'_>) -> SResponse + Send + Sync + 'static,
    ) {
        self.add_route(Method::Get, pattern, handler);
    }

    /// Registers a GET route whose rendered pages may be shared across
    /// users **with equal privilege sets** via the per-clearance render
    /// cache.
    ///
    /// Opting in is a promise about the handler: its output must be a
    /// function of the request path and query, the caller's privileges, and
    /// the document store only — never of the username or other per-user
    /// state (no `ctx.user().username`-dependent branching). The cache key
    /// is `(route, path+query, PrivilegeSetId)` and entries are tagged with
    /// the store's change sequence, so two users hit the same entry iff
    /// their interned privilege sets are *identical* and the store has not
    /// advanced. Only responses that passed the boundary label check (200,
    /// untainted, released for that exact clearance) are ever stored.
    pub fn get_cached(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Ctx<'_>) -> SResponse + Send + Sync + 'static,
    ) {
        self.add_route(Method::Get, pattern, handler);
        *self
            .cacheable
            .last_mut()
            .expect("add_route pushed a handler") = true;
    }

    /// Registers a POST route.
    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(&Ctx<'_>) -> SResponse + Send + Sync + 'static,
    ) {
        self.add_route(Method::Post, pattern, handler);
    }

    fn add_route(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(&Ctx<'_>) -> SResponse + Send + Sync + 'static,
    ) {
        let idx = self.handlers.len();
        self.handlers.push(Arc::new(handler));
        self.cacheable.push(false);
        self.route_ns.push(Histogram::new());
        let verb = match method {
            Method::Get => "get",
            Method::Post => "post",
            _ => "other",
        };
        self.route_names.push(format!("{verb} {pattern}"));
        self.router.add(method, pattern, idx);
    }

    /// Per-phase timing counters.
    pub fn stats(&self) -> Arc<FrontendStats> {
        Arc::clone(&self.stats)
    }

    /// Wires the frontend's telemetry into `registry`: the Figure 5
    /// phase counters (`web.requests`, `web.auth_ns`,
    /// `web.privilege_fetch_ns`, `web.handler_ns`, `web.label_check_ns`,
    /// `web.denied`), one `web.route_ns.<name>` latency histogram per
    /// registered route (named by the author-written pattern), and —
    /// only while label checking (and so the render cache) is on — the
    /// cache counters plus a derived `web.render_cache.hit_rate` gauge. A
    /// cache-disabled frontend registers *no* cache metrics, so its
    /// snapshots cannot report stale zeros as live cache behaviour.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter("web.requests", &self.stats.requests);
        registry.register_counter("web.auth_ns", &self.stats.auth_ns);
        registry.register_counter("web.privilege_fetch_ns", &self.stats.privilege_fetch_ns);
        registry.register_counter("web.handler_ns", &self.stats.handler_ns);
        registry.register_counter("web.label_check_ns", &self.stats.label_check_ns);
        registry.register_counter("web.denied", &self.stats.denied);
        for (name, histogram) in self.route_names.iter().zip(&self.route_ns) {
            registry.register_histogram(&format!("web.route_ns.{name}"), histogram);
        }
        if self.options.label_checking {
            let hits = self.stats.render_cache_hits.clone();
            let misses = self.stats.render_cache_misses.clone();
            registry.register_counter("web.render_cache.hits", &hits);
            registry.register_counter("web.render_cache.misses", &misses);
            registry.register_derived("web.render_cache.hit_rate", move || {
                // Read misses before hits: a racing request bumps hits
                // only after its miss, so the ratio can understate but
                // never exceed 1.
                let m = misses.get();
                let h = hits.get();
                let total = h + m;
                if total == 0 {
                    0.0
                } else {
                    h as f64 / total as f64
                }
            });
        } else {
            registry.unregister("web.render_cache.hits");
            registry.unregister("web.render_cache.misses");
            registry.unregister("web.render_cache.hit_rate");
        }
    }

    /// Serves one request through the full middleware pipeline
    /// (Figure 3 steps 1–4).
    ///
    /// Every routed request is traced: a fresh [`TraceId`] becomes the
    /// ambient scope for the handler (so events it publishes and
    /// documents it writes inherit it), a `frontend` span named by the
    /// route *pattern* is recorded, and the id is echoed back in the
    /// `x-safeweb-trace` response header for `/__obs/trace/:id` lookups.
    pub fn handle(&self, request: &Request) -> Response {
        // Route first: unknown paths 404 without burning auth time.
        let Some((handler_idx, params)) = self.router.route(request.method(), request.path())
        else {
            return Response::new(404).with_body("not found");
        };
        let trace = TraceId::mint();
        let _scope = trace_scope(trace);
        let span_start = safeweb_obs::now_ns();
        let response = self.serve(handler_idx, params, request);
        self.route_ns[handler_idx].observe(safeweb_obs::now_ns().saturating_sub(span_start));
        record_span(
            "frontend",
            &self.route_names[handler_idx],
            trace,
            span_start,
            None,
        );
        response.with_header("x-safeweb-trace", trace.to_string())
    }

    /// The middleware pipeline proper, running under the request's trace
    /// scope.
    fn serve(
        &self,
        handler_idx: usize,
        params: BTreeMap<String, String>,
        request: &Request,
    ) -> Response {
        self.stats.requests.inc();

        // Step 1: authenticate and fetch privileges.
        let Some((username, password)) = request.basic_auth() else {
            return Response::new(401)
                .with_header("www-authenticate", "Basic realm=\"SafeWeb\"")
                .with_body("authentication required");
        };
        let fetch_start = Instant::now();
        let row = self.users.lookup(&username);
        self.stats
            .privilege_fetch_ns
            .add(fetch_start.elapsed().as_nanos() as u64);

        let auth_start = Instant::now();
        let user = row.and_then(|row| self.users.verify_row(&row, &password));
        self.stats
            .auth_ns
            .add(auth_start.elapsed().as_nanos() as u64);
        let Some(user) = user else {
            return Response::new(401)
                .with_header("www-authenticate", "Basic realm=\"SafeWeb\"")
                .with_body("bad credentials");
        };

        // Per-clearance render cache (opt-in routes only, and only while
        // label checking is on — the cached body is the *released* one).
        // The seq is read before the handler runs; if the store advances
        // mid-render the entry is born stale, which is the safe direction.
        let cache_route = self.options.label_checking && self.cacheable[handler_idx];
        let (path_query, seq) = if cache_route {
            // The raw path plus the *re-encoded* query pairs: a decoded
            // `&` or `=` inside a name or value must not read as a
            // separator, or two requests a handler tells apart would
            // share an entry.
            let mut key = request.path().to_string();
            let mut sep = '?';
            for (name, value) in request.query_params() {
                key.push(sep);
                key.push_str(&url_encode(name));
                key.push('=');
                key.push_str(&url_encode(value));
                sep = '&';
            }
            (key, self.records.seq())
        } else {
            (String::new(), 0)
        };
        if cache_route {
            if let Some(page) =
                self.render_cache
                    .get(handler_idx, &path_query, user.privileges.id(), seq)
            {
                self.stats.render_cache_hits.inc();
                return Response::new(page.status)
                    .with_header("content-type", page.content_type)
                    .with_body(page.body);
            }
            self.stats.render_cache_misses.inc();
        }

        // Steps 2–3: run the handler over labelled data.
        let ctx = Ctx {
            request,
            params,
            user: &user,
            records: &self.records,
        };
        let handler_start = Instant::now();
        let sresponse = (self.handlers[handler_idx])(&ctx);
        self.stats
            .handler_ns
            .add(handler_start.elapsed().as_nanos() as u64);

        // Step 4: the label check at the boundary. The body is checked
        // once, on the union of everything rendered into it, and then
        // moved — not copied — towards the wire.
        let SResponse {
            status,
            content_type,
            body,
        } = sresponse;
        let check_start = Instant::now();
        let released = if !self.options.label_checking {
            // The §5.3 baseline: inspection, not release — a copy, where
            // the checked path below moves.
            Ok(body.as_str().to_string())
        } else if body.is_user_tainted() {
            Err(Response::new(500).with_body("response contains unsanitised user input"))
        } else {
            // The error page must not leak which labels blocked.
            body.release(&user.privileges)
                .map_err(|_| Response::new(403).with_body("access denied by security policy"))
        };
        self.stats
            .label_check_ns
            .add(check_start.elapsed().as_nanos() as u64);
        let released = match released {
            Ok(released) => released,
            Err(denial) => {
                self.stats.denied.inc();
                return denial;
            }
        };

        // Cache only fully released 200s, keyed by the exact clearance the
        // label check just ran against.
        if cache_route && status == 200 {
            self.render_cache.put(
                handler_idx,
                &path_query,
                user.privileges.id(),
                seq,
                RenderedPage {
                    status,
                    content_type,
                    body: released.clone(),
                },
            );
        }

        Response::new(status)
            .with_header("content-type", content_type)
            .with_body(released)
    }

    /// Adapts the app into an [`safeweb_http::Handler`] for serving.
    pub fn into_handler(self: Arc<SafeWebApp>) -> safeweb_http::Handler {
        Arc::new(move |request: Request| self.handle(&request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthConfig;
    use safeweb_json::jobject;
    use safeweb_labels::{Label, LabelSet, Privilege};
    use safeweb_relstore::Database;

    /// An app over one record of MDT `a`, listed at `/records/:mid` (a
    /// cached route when `cached`), with three users: `mdt_a`, `peer_a`
    /// (distinct username, same interned clearance) and uncleared `nosy`.
    fn setup_app(cached: bool) -> (SafeWebApp, DocStore) {
        let users = UserStore::new(
            Database::new("web"),
            AuthConfig {
                hash_iterations: 500,
            },
        );
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
        users.create_user("mdt_a", "pw", &privs, false).unwrap();
        users.create_user("peer_a", "pw", &privs, false).unwrap();
        users
            .create_user("nosy", "pw", &PrivilegeSet::new(), false)
            .unwrap();

        let records = DocStore::new("app");
        records.create_view("by_mid", "mdt_id");
        records
            .put(
                "rec-1",
                jobject! {"mdt_id" => "a", "patient" => "Ann"},
                LabelSet::singleton(Label::conf("e", "mdt/a")),
                None,
            )
            .unwrap();

        let mut app = SafeWebApp::new(users, records.clone());
        if cached {
            app.get_cached("/records/:mid", list_records);
        } else {
            app.get("/records/:mid", list_records);
        }
        (app, records)
    }

    fn setup() -> (SafeWebApp, DocStore) {
        setup_app(false)
    }

    fn setup_cached() -> (SafeWebApp, DocStore) {
        setup_app(true)
    }

    /// The MDT's records as JSON, after the (sanitised) `x` query
    /// parameter — so the page depends on the query.
    fn list_records(ctx: &Ctx<'_>) -> SResponse {
        let mut body = SStr::public("");
        if let Some(x) = ctx.query("x") {
            body.push_html_escaped(x.as_str(), x.labels());
        }
        for doc in ctx.records_by("by_mid", ctx.param_raw("mid").unwrap_or("")) {
            doc.write_json(&mut body);
        }
        SResponse::json(body)
    }

    fn req(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_basic_auth(user, "pw")
    }

    #[test]
    fn cleared_user_reads_records() {
        let (app, _) = setup();
        let resp = app.handle(&req("/records/a", "mdt_a"));
        assert_eq!(resp.status(), 200);
        assert!(resp.body_str().unwrap().contains("Ann"));
    }

    #[test]
    fn uncleared_user_gets_403_without_detail() {
        let (app, _) = setup();
        let resp = app.handle(&req("/records/a", "nosy"));
        assert_eq!(resp.status(), 403);
        let body = resp.body_str().unwrap();
        assert!(
            !body.contains("mdt"),
            "error page must not leak labels: {body}"
        );
        assert_eq!(app.stats().denied(), 1);
    }

    #[test]
    fn missing_or_bad_credentials_get_401() {
        let (app, _) = setup();
        let resp = app.handle(&Request::new(Method::Get, "/records/a"));
        assert_eq!(resp.status(), 401);
        assert!(resp.headers().get("www-authenticate").is_some());
        let resp =
            app.handle(&Request::new(Method::Get, "/records/a").with_basic_auth("mdt_a", "wrong"));
        assert_eq!(resp.status(), 401);
    }

    #[test]
    fn unknown_route_is_404_before_auth() {
        let (app, _) = setup();
        let resp = app.handle(&Request::new(Method::Get, "/nowhere"));
        assert_eq!(resp.status(), 404);
        assert_eq!(app.stats().requests(), 0);
    }

    #[test]
    fn user_tainted_response_is_blocked() {
        let users = UserStore::new(
            Database::new("web"),
            AuthConfig {
                hash_iterations: 500,
            },
        );
        users
            .create_user("u", "pw", &PrivilegeSet::new(), false)
            .unwrap();
        let mut app = SafeWebApp::new(users, DocStore::new("app"));
        app.get("/echo", |ctx: &Ctx<'_>| {
            // Bug: echoes raw user input without sanitising.
            SResponse::html(ctx.query("q").unwrap_or_else(|| SStr::public("")))
        });
        let resp = app.handle(
            &Request::new(Method::Get, "/echo?q=<script>x</script>").with_basic_auth("u", "pw"),
        );
        assert_eq!(resp.status(), 500);
        assert!(!resp.body_str().unwrap().contains("<script>"));
    }

    #[test]
    fn label_checking_off_is_baseline_mode() {
        let (app, _) = setup();
        let app = app.with_options(FrontendOptions {
            label_checking: false,
        });
        // Baseline: even the uncleared user gets data (measured config only).
        let resp = app.handle(&req("/records/a", "nosy"));
        assert_eq!(resp.status(), 200);
    }

    #[test]
    fn cached_route_shares_pages_across_equal_clearances() {
        let (app, _) = setup_cached();
        let first = app.handle(&req("/records/a", "mdt_a"));
        assert_eq!(first.status(), 200);
        // Same user again: hit.
        let second = app.handle(&req("/records/a", "mdt_a"));
        assert_eq!(second.status(), 200);
        assert_eq!(second.body_str().unwrap(), first.body_str().unwrap());
        // Different user, *equal* privilege set: also a hit.
        let peer = app.handle(&req("/records/a", "peer_a"));
        assert_eq!(peer.status(), 200);
        assert_eq!(peer.body_str().unwrap(), first.body_str().unwrap());
        let stats = app.stats();
        assert_eq!(stats.render_cache_misses(), 1);
        assert_eq!(stats.render_cache_hits(), 2);
    }

    #[test]
    fn cached_route_never_crosses_clearances() {
        let (app, _) = setup_cached();
        // Warm the cache as the cleared user.
        assert_eq!(app.handle(&req("/records/a", "mdt_a")).status(), 200);
        // The uncleared user must still be denied — a denial is never
        // cached, and the cleared user's page is under a different key.
        let resp = app.handle(&req("/records/a", "nosy"));
        assert_eq!(resp.status(), 403);
        assert!(!resp.body_str().unwrap().contains("Ann"));
        // And the denial must not have poisoned the cleared user's entry.
        let again = app.handle(&req("/records/a", "mdt_a"));
        assert_eq!(again.status(), 200);
        assert!(again.body_str().unwrap().contains("Ann"));
    }

    #[test]
    fn cached_route_keys_on_the_query_as_the_handler_sees_it() {
        let (app, _) = setup_cached();
        // Two parameters, and one parameter whose *value* holds `&` and
        // `=`: joined undecoded they would read the same.
        let two = app.handle(&req("/records/a?x=1&y=2", "mdt_a"));
        let one = app.handle(&req("/records/a?x=1%26y%3D2", "peer_a"));
        assert!(two.body_str().unwrap().starts_with("1{"));
        assert!(
            one.body_str().unwrap().starts_with("1&amp;y=2{"),
            "a peer's page for another query was served: {:?}",
            one.body_str()
        );
        assert_eq!(app.stats().render_cache_hits(), 0);
        // Each is still a hit for itself.
        let again = app.handle(&req("/records/a?x=1%26y%3D2", "mdt_a"));
        assert_eq!(again.body_str(), one.body_str());
        assert_eq!(app.stats().render_cache_hits(), 1);
    }

    #[test]
    fn cached_route_invalidates_when_store_advances() {
        let (app, records) = setup_cached();
        let first = app.handle(&req("/records/a", "mdt_a"));
        assert!(first.body_str().unwrap().contains("Ann"));
        let rev = records.get("rec-1").unwrap().rev().clone();
        records
            .put(
                "rec-1",
                jobject! {"mdt_id" => "a", "patient" => "Bea"},
                LabelSet::singleton(Label::conf("e", "mdt/a")),
                Some(&rev),
            )
            .unwrap();
        let second = app.handle(&req("/records/a", "mdt_a"));
        assert!(
            second.body_str().unwrap().contains("Bea"),
            "store advanced, cache entry must be stale"
        );
        let stats = app.stats();
        assert_eq!(stats.render_cache_hits(), 0);
        assert_eq!(stats.render_cache_misses(), 2);
    }

    #[test]
    fn render_caching_can_be_disabled() {
        // Label checking off is the one condition that turns the cache
        // off: cached routes render every request and count nothing.
        let (app, _) = setup_cached();
        let app = app.with_options(FrontendOptions {
            label_checking: false,
        });
        app.handle(&req("/records/a", "mdt_a"));
        app.handle(&req("/records/a", "mdt_a"));
        let stats = app.stats();
        assert_eq!(stats.render_cache_hits(), 0);
        assert_eq!(stats.render_cache_misses(), 0);
    }

    #[test]
    fn cache_disabled_frontend_registers_no_cache_metrics() {
        let (app, _) = setup_cached();
        let app = app.with_options(FrontendOptions {
            label_checking: false,
        });
        let registry = MetricsRegistry::new();
        app.attach_metrics(&registry);
        app.handle(&req("/records/a", "mdt_a"));
        let names = registry.names();
        assert!(
            names.iter().all(|n| !n.contains("render_cache")),
            "cache-disabled frontend must expose no cache metrics: {names:?}"
        );
        // The rest of the surface is still there.
        assert!(names.iter().any(|n| n == "web.requests"));
        assert_eq!(
            registry.snapshot().get("web.requests").unwrap().as_i64(),
            Some(1)
        );
    }

    #[test]
    fn cache_enabled_frontend_reports_hit_rate() {
        let (app, _) = setup_cached();
        let registry = MetricsRegistry::new();
        app.attach_metrics(&registry);
        app.handle(&req("/records/a", "mdt_a")); // miss
        app.handle(&req("/records/a", "mdt_a")); // hit
        app.handle(&req("/records/a", "mdt_a")); // hit
        let snap = registry.snapshot();
        assert_eq!(
            snap.get("web.render_cache.misses").unwrap().as_i64(),
            Some(1)
        );
        assert_eq!(snap.get("web.render_cache.hits").unwrap().as_i64(), Some(2));
        let rate = snap
            .get("web.render_cache.hit_rate")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((rate - 2.0 / 3.0).abs() < 1e-9, "hit rate {rate}");
    }

    #[test]
    fn responses_carry_the_trace_header() {
        let (app, _) = setup();
        let resp = app.handle(&req("/records/a", "mdt_a"));
        let id = resp.headers().get("x-safeweb-trace").expect("trace header");
        assert!(id.parse::<TraceId>().is_ok(), "unparseable trace id {id}");
        // Untraceable requests (no route) carry none.
        let resp = app.handle(&Request::new(Method::Get, "/nowhere"));
        assert!(resp.headers().get("x-safeweb-trace").is_none());
    }

    #[test]
    fn stats_accumulate() {
        let (app, _) = setup();
        app.handle(&req("/records/a", "mdt_a"));
        let stats = app.stats();
        assert_eq!(stats.requests(), 1);
        assert!(stats.auth_ns() > 0);
        assert!(stats.privilege_fetch_ns() > 0);
        assert!(stats.handler_ns() > 0);
    }
}
