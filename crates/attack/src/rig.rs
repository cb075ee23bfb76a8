//! The attack rig: a full Figure-4 topology (registry → units →
//! application database → DMZ replica → enforcing frontend) with canaries
//! planted behind the security boundary and query/render attack surfaces
//! installed, ready for campaign replay.
//!
//! The rig's extra routes come in two flavours:
//!
//! * **secure-by-construction** — `/find` (relstore [`QuerySpec`]),
//!   `/match` ([`Selector::bind`]) and `/greet` (escaping template
//!   interpolation) take user input only as *data*;
//! * **deliberately vulnerable** (gated by
//!   [`RigOptions::raw_routes`], the negative control) — `/find_raw`
//!   concatenates the query parameter into selector text and `/greet_raw`
//!   launders taint into a raw template splice, re-creating the string
//!   concatenation bugs the typed surfaces make unrepresentable.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use safeweb_http::{Method, Request, Response};
use safeweb_labels::LabelSet;
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::{password_for, MdtPortal, PortalConfig, VulnConfig};
use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Database, Filter, QuerySpec, Schema};
use safeweb_selector::Selector;
use safeweb_taint::SStr;
use safeweb_web::{Ctx, SResponse, SafeWebApp, TContext, Template};

use crate::oracle::CanarySet;

/// How to stand the rig up.
#[derive(Debug, Clone, Copy)]
pub struct RigOptions {
    /// Vulnerability injection for the portal routes (§5.2 classes).
    pub vuln: VulnConfig,
    /// Response label checking (`false` only for negative controls and
    /// enforcement-tax baselines).
    pub label_checking: bool,
    /// Install the deliberately vulnerable `_raw` routes.
    pub raw_routes: bool,
    /// Seed for canary tokens (campaigns add their own mutation seeds).
    pub seed: u64,
}

impl Default for RigOptions {
    fn default() -> RigOptions {
        RigOptions {
            vuln: VulnConfig::default(),
            label_checking: true,
            raw_routes: false,
            seed: crate::campaign::DEFAULT_SEED,
        }
    }
}

/// A running attack target.
pub struct AttackRig {
    portal: MdtPortal,
    app: Arc<SafeWebApp>,
    canaries: CanarySet,
    raw_routes: bool,
    attacker: String,
    attacker_password: String,
    victim: String,
    victim_patient_names: Vec<String>,
}

/// Canary documents planted in the victim MDT's replicated records.
const PLANTED_DOCS: usize = 3;
/// Canary rows in the victim's `accounts` table entries.
const PLANTED_ROWS: usize = 3;

impl AttackRig {
    /// Builds the topology, waits for the pipeline, plants canaries and
    /// installs the attack surfaces.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline does not settle (broken deployment).
    pub fn build(options: RigOptions) -> AttackRig {
        let portal = MdtPortal::build(PortalConfig {
            registry: RegistryConfig {
                regions: 1,
                hospitals_per_region: 1,
                mdts_per_hospital: 2,
                patients_per_mdt: 4,
                seed: 7,
            },
            vuln: options.vuln,
            auth_iterations: 600, // keep replay throughput high
            replication_interval: Duration::from_millis(20),
            ..PortalConfig::default()
        });
        portal.wait_for_pipeline(Duration::from_secs(30));

        let mdts = portal.mdts().to_vec();
        let victim = mdts[0].clone();
        let attacker = mdts[1].clone();
        let canaries = CanarySet::new(options.seed, PLANTED_DOCS + PLANTED_ROWS);

        // Canary case records, labelled as the victim MDT's patient data
        // and planted straight into the DMZ replica the frontend reads:
        // the label check is the only thing between them and a response.
        let dmz = portal.deployment().dmz_db();
        // The replica is read-only for the application (replication is
        // its only writer); planting goes around that, like an operator
        // seeding test fixtures, and restores the flag after.
        dmz.set_read_only(false);
        for i in 0..PLANTED_DOCS {
            dmz.put(
                &format!("record-canary-{i}"),
                safeweb_json::jobject! {
                    "kind" => "case_record",
                    "mdt_id" => victim.name.as_str(),
                    "name" => canaries.token(i),
                    "case_id" => format!("canary-case-{i}"),
                },
                LabelSet::singleton(mdt_label(&victim.name)),
                None,
            )
            .expect("canary documents are fresh");
        }
        dmz.set_read_only(true);

        // The `accounts` table the query surfaces search: victim rows hold
        // canary secrets; the attacker's own row holds nothing of value.
        let web_db = portal.deployment().users().database().clone();
        create_accounts(&web_db, &victim.name, &attacker.name, &canaries);

        let mut app = portal.frontend(&options.vuln);
        if !options.label_checking {
            app = app.with_options(safeweb_web::FrontendOptions {
                label_checking: false,
            });
        }
        install_attack_routes(&mut app, &web_db, options.raw_routes);

        let victim_patient_names = portal
            .registry()
            .select_eq("patients", "mdt_id", &CellValue::Int(victim.id))
            .expect("patients table exists")
            .into_iter()
            .filter_map(|row| row.text("name").map(str::to_string))
            .collect();

        let attacker_password = password_for(&attacker.name);
        AttackRig {
            portal,
            app: Arc::new(app),
            canaries,
            raw_routes: options.raw_routes,
            attacker: attacker.name,
            attacker_password,
            victim: victim.name,
            victim_patient_names,
        }
    }

    /// Drives one request through the frontend.
    pub fn handle(&self, request: &Request) -> Response {
        self.app.handle(request)
    }

    /// The frontend (shared with background load threads).
    pub fn app(&self) -> Arc<SafeWebApp> {
        Arc::clone(&self.app)
    }

    /// The underlying portal.
    pub fn portal(&self) -> &MdtPortal {
        &self.portal
    }

    /// The rig's canary set.
    pub fn canaries(&self) -> &CanarySet {
        &self.canaries
    }

    /// Whether the deliberately vulnerable routes are installed.
    pub fn raw_routes(&self) -> bool {
        self.raw_routes
    }

    /// The insider attacker's username (a legitimate member of the other
    /// MDT in the hospital).
    pub fn attacker(&self) -> &str {
        &self.attacker
    }

    /// The attacker's (valid) password.
    pub fn attacker_password(&self) -> &str {
        &self.attacker_password
    }

    /// The victim MDT name.
    pub fn victim(&self) -> &str {
        &self.victim
    }

    /// Patient names treated by the victim MDT (disclosure oracle).
    pub fn victim_patient_names(&self) -> &[String] {
        &self.victim_patient_names
    }

    /// Browses the cached portal views as the victim, so the victim's
    /// rendered pages sit warm in the per-clearance render cache. The
    /// cache-probe campaign calls this before replaying: a cache keyed
    /// without the clearance id would then serve these pages to the
    /// attacker.
    pub fn warm_victim_views(&self) {
        let password = password_for(&self.victim);
        for path in [
            format!("/board/{}", self.victim),
            format!("/metrics/{}", self.victim),
            format!("/compare/{}", self.victim),
        ] {
            let request = Request::new(Method::Get, &path).with_basic_auth(&self.victim, &password);
            let response = self.app.handle(&request);
            assert_eq!(
                response.status(),
                200,
                "victim cannot warm {path}: the rig pipeline has not produced metrics"
            );
        }
    }
}

fn create_accounts(db: &Database, victim: &str, attacker: &str, canaries: &CanarySet) {
    db.create_table(
        "accounts",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Text),
                ColumnDef::new("owner", ColumnType::Text),
                ColumnDef::new("secret", ColumnType::Text),
            ],
            "id",
        ),
    )
    .expect("accounts table is fresh");
    for i in 0..PLANTED_ROWS {
        db.insert(
            "accounts",
            vec![
                (i as i64).into(),
                format!("{victim}-card-{i}").into(),
                victim.to_string().into(),
                canaries.token(PLANTED_DOCS + i).to_string().into(),
            ],
        )
        .expect("fresh victim account rows");
    }
    db.insert(
        "accounts",
        vec![
            (PLANTED_ROWS as i64).into(),
            format!("{attacker}-note").into(),
            attacker.to_string().into(),
            "nothing-to-see".to_string().into(),
        ],
    )
    .expect("fresh attacker account row");
}

fn row_attrs(row: &safeweb_relstore::Row) -> BTreeMap<String, String> {
    ["name", "owner", "secret"]
        .iter()
        .filter_map(|col| row.text(col).map(|v| ((*col).to_string(), v.to_string())))
        .collect()
}

fn rows_to_json(rows: &[safeweb_relstore::Row]) -> SStr {
    let parts: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{{\"name\":{:?},\"owner\":{:?},\"secret\":{:?}}}",
                row.text("name").unwrap_or(""),
                row.text("owner").unwrap_or(""),
                row.text("secret").unwrap_or("")
            )
        })
        .collect();
    SStr::public(format!("[{}]", parts.join(",")))
}

fn attrs_to_json(rows: &[BTreeMap<String, String>]) -> SStr {
    let parts: Vec<String> = rows
        .iter()
        .map(|attrs| {
            format!(
                "{{\"name\":{:?},\"owner\":{:?},\"secret\":{:?}}}",
                attrs.get("name").map(String::as_str).unwrap_or(""),
                attrs.get("owner").map(String::as_str).unwrap_or(""),
                attrs.get("secret").map(String::as_str).unwrap_or("")
            )
        })
        .collect();
    SStr::public(format!("[{}]", parts.join(",")))
}

fn install_attack_routes(app: &mut SafeWebApp, web_db: &Database, raw_routes: bool) {
    // --- GET /find?name= — relstore QuerySpec, parameters bound ---------
    let db = web_db.clone();
    app.get("/find", move |ctx: &Ctx<'_>| {
        let name = ctx.query("name").unwrap_or_else(|| SStr::from_user(""));
        // The tainted value can only enter as a bound parameter; the
        // column/table names are compile-time literals.
        let spec = QuerySpec::table("accounts").filter(
            Filter::eq("name", &name).and(Filter::eq("owner", ctx.user().username.as_str())),
        );
        match db.select_spec(&spec) {
            Ok(rows) => SResponse::json(rows_to_json(&rows)),
            Err(e) => SResponse::error(400, &format!("query error: {e}")),
        }
    });

    // --- GET /match?name= — selector template, parameters bound ---------
    let db = web_db.clone();
    app.get("/match", move |ctx: &Ctx<'_>| {
        let name = ctx.query("name").unwrap_or_else(|| SStr::from_user(""));
        let sel = match Selector::bind(
            "name = ? AND owner = ?",
            &[(&name).into(), ctx.user().username.as_str().into()],
        ) {
            Ok(sel) => sel,
            Err(e) => return SResponse::error(400, &format!("selector error: {e}")),
        };
        let matched: Vec<BTreeMap<String, String>> = db
            .select("accounts", |row| sel.matches(&row_attrs(row)))
            .unwrap_or_default()
            .iter()
            .map(row_attrs)
            .collect();
        SResponse::json(attrs_to_json(&matched))
    });

    // --- GET /greet?name= — escaping template interpolation -------------
    let greet = Arc::new(Template::parse("<p>Hello, <%= name %>!</p>").expect("static template"));
    app.get("/greet", move |ctx: &Ctx<'_>| {
        let name = ctx.query("name").unwrap_or_else(|| SStr::from_user(""));
        let tctx = TContext::new().bind("name", name);
        match greet.render(&tctx) {
            Ok(body) => SResponse::html(body),
            Err(e) => SResponse::error(500, &format!("template error: {e}")),
        }
    });

    // --- POST /profile/note — a state-changing route (forgery target) ---
    app.post("/profile/note", move |_ctx: &Ctx<'_>| {
        SResponse::text(SStr::public("saved"))
    });

    // --- GET /board/:mid — per-clearance CACHED case board --------------
    // The cache-probe campaign's target. Deliberately no app-level access
    // check: the response carries the MDT's case records (canaries
    // included) labelled with that MDT's label, so the boundary label
    // check — and correct `(route, path, clearance)` cache keying — are
    // all that stand between the planted canaries and the attacker. The
    // handler depends only on the path and the store, which is the
    // `get_cached` contract.
    app.get_cached("/board/:mid", move |ctx: &Ctx<'_>| {
        SResponse::json_array(&ctx.records_by("by_mid", ctx.param_raw("mid").unwrap_or("")))
    });

    if !raw_routes {
        return;
    }

    // --- GET /find_raw?name= — NEGATIVE CONTROL: string concatenation ---
    // This is the bug class `QuerySpec`/`Selector::bind` exist to kill:
    // the tainted value is formatted into selector *text*, so a quote in
    // it rewrites the query structure.
    let db = web_db.clone();
    app.get("/find_raw", move |ctx: &Ctx<'_>| {
        let name = ctx.query("name").unwrap_or_else(|| SStr::from_user(""));
        let source = format!(
            "name = '{}' AND owner = '{}'",
            name.as_str(),
            ctx.user().username
        );
        match Selector::parse(&source) {
            Ok(sel) => {
                let matched: Vec<BTreeMap<String, String>> = db
                    .select("accounts", |row| sel.matches(&row_attrs(row)))
                    .unwrap_or_default()
                    .iter()
                    .map(row_attrs)
                    .collect();
                SResponse::json(attrs_to_json(&matched))
            }
            Err(e) => SResponse::error(400, &format!("selector error: {e}")),
        }
    });

    // --- GET /greet_raw?name= — NEGATIVE CONTROL: taint laundering ------
    let greet_raw =
        Arc::new(Template::parse("<p>Hello, <%= raw name %>!</p>").expect("static template"));
    app.get("/greet_raw", move |ctx: &Ctx<'_>| {
        let name = ctx.query("name").unwrap_or_else(|| SStr::from_user(""));
        // Laundering the taint bit defeats both the template safety net
        // and the response label check — the classic "I know better"
        // conversion the campaign must catch.
        let laundered = SStr::public(name.as_str().to_string());
        let tctx = TContext::new().bind("name", laundered);
        match greet_raw.render(&tctx) {
            Ok(body) => SResponse::html(body),
            Err(e) => SResponse::error(500, &format!("template error: {e}")),
        }
    });
}

/// Background legitimate traffic: member users browsing their own MDT
/// pages while a campaign replays, so enforcement is measured under load.
pub struct BackgroundLoad {
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl BackgroundLoad {
    /// Starts `threads` legitimate-browsing threads against the rig.
    pub fn start(rig: &AttackRig, threads: usize) -> BackgroundLoad {
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let mdts: Vec<String> = rig.portal().mdts().iter().map(|m| m.name.clone()).collect();
        let handles = (0..threads)
            .map(|i| {
                let app = rig.app();
                let stop = Arc::clone(&stop);
                let served = Arc::clone(&served);
                let own = mdts[i % mdts.len()].clone();
                let password = password_for(&own);
                std::thread::spawn(move || {
                    let targets = [
                        format!("/mdt/{own}"),
                        format!("/records/{own}"),
                        "/aggregates/regional".to_string(),
                    ];
                    let mut n = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let req = Request::new(Method::Get, &targets[n % targets.len()])
                            .with_basic_auth(&own, &password);
                        let resp = app.handle(&req);
                        if resp.status() == 200 {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        n += 1;
                    }
                })
            })
            .collect();
        let load = BackgroundLoad {
            stop,
            served,
            threads: handles,
        };
        // Don't return until traffic actually flows: a short campaign
        // (mostly router 404s) can otherwise finish before the first
        // legitimate request lands.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while load.served.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        load
    }

    /// Stops the load and returns how many legitimate requests succeeded.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.served.load(Ordering::Relaxed)
    }
}

impl Drop for BackgroundLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
