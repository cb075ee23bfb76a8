//! The MDT web portal: routes, templates and the end-to-end builder that
//! stands up the full Figure 4 deployment (registry → units → application
//! database → DMZ replica → enforcing web frontend).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use safeweb_core::{SafeWebBuilder, SafeWebDeployment};
use safeweb_docstore::{DocStore, Document};
use safeweb_engine::EngineOptions;
use safeweb_json::Value;
use safeweb_labels::Policy;
use safeweb_relstore::{ColumnDef, ColumnType, Database, Schema};
use safeweb_web::{AuthConfig, Ctx, SResponse, SafeWebApp, TContext, TValue, Template};

use crate::labels::mdt_user_privileges;
use crate::registry::{self, MdtInfo, RegistryConfig};
use crate::units::{
    data_aggregator, data_producer, data_storage, AggregatorConfig, ProducerConfig,
};
use crate::vuln::VulnConfig;

/// Password convention for generated MDT users (tests and examples).
pub fn password_for(mdt_name: &str) -> String {
    format!("pw-{mdt_name}")
}

/// Portal-wide configuration.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// Synthetic registry sizing.
    pub registry: RegistryConfig,
    /// Producer batching.
    pub producer: ProducerConfig,
    /// Injected vulnerabilities (§5.2); all off by default.
    pub vuln: VulnConfig,
    /// Password-hash cost (lower it in tests).
    pub auth_iterations: u32,
    /// Intranet→DMZ replication fallback period (replication itself runs
    /// on commit).
    pub replication_interval: Duration,
    /// When `false`, runs the paper's no-tracking baseline (§5.3 only).
    pub label_tracking: bool,
    /// When set, the application database and DMZ replica run durable
    /// (WAL + snapshots under this directory) and replication resumes
    /// from the replica's recovered checkpoint across restarts.
    pub data_dir: Option<PathBuf>,
}

impl Default for PortalConfig {
    fn default() -> PortalConfig {
        PortalConfig {
            registry: RegistryConfig::default(),
            producer: ProducerConfig::default(),
            vuln: VulnConfig::default(),
            auth_iterations: AuthConfig::default().hash_iterations,
            replication_interval: Duration::from_millis(50),
            label_tracking: true,
            data_dir: None,
        }
    }
}

/// The policy file of the MDT application (§4.1): generated from the MDT
/// list, it is part of the audited TCB.
pub fn mdt_policy(mdts: &[MdtInfo]) -> Policy {
    let mut text = String::new();
    text.push_str(
        "unit data_producer {\n    privileged\n}\n\
         unit data_aggregator {\n    clearance label:conf:ecric.org.uk/mdt/*\n    declassify label:conf:ecric.org.uk/mdt/*\n}\n\
         unit data_storage {\n    privileged\n    clearance label:conf:ecric.org.uk/*\n}\n",
    );
    let _ = mdts; // privileges are wildcard-based; users are per-MDT in the web DB
    text.parse().expect("generated policy is well-formed")
}

/// A running MDT portal.
pub struct MdtPortal {
    deployment: SafeWebDeployment,
    registry_db: Database,
    mdts: Vec<MdtInfo>,
    expected_records: usize,
    /// Events the producer publishes: one per patient, tumour and
    /// treatment (the generated registry has one tumour per patient and
    /// at most one treatment per tumour).
    expected_events: u64,
    /// `false` under the E9 design error, whose aggregates need not
    /// agree with the records.
    aggregates_follow_records: bool,
}

impl MdtPortal {
    /// Builds and starts the full pipeline.
    pub fn build(config: PortalConfig) -> MdtPortal {
        let registry_db = registry::generate(&config.registry);
        let mdts = registry::list_mdts(&registry_db);
        let expected_records = registry_db.count("patients").expect("patients table");
        let expected_events = ["patients", "tumours", "treatments"]
            .iter()
            .map(|t| registry_db.count(t).expect("registry table") as u64)
            .sum();

        let mut builder = SafeWebBuilder::new();
        if let Some(dir) = &config.data_dir {
            builder = builder.data_dir(dir.clone());
        }
        let deployment = builder
            .policy(mdt_policy(&mdts))
            .replication_interval(config.replication_interval)
            .auth_config(AuthConfig {
                hash_iterations: config.auth_iterations,
            })
            .engine_options(EngineOptions {
                label_tracking: config.label_tracking,
                ..EngineOptions::default()
            })
            .app_view("by_mid", "mdt_id")
            .app_view("by_kind", "kind")
            .app_view("metrics_by_region", "region_id")
            .unit(data_aggregator(AggregatorConfig {
                mix_hospitals: config.vuln.aggregator_mixes_hospitals,
            }))
            .unit(data_producer(
                registry_db.clone(),
                mdts.clone(),
                config.producer,
            ))
            .unit_with_app_db(data_storage)
            .build()
            .expect("deployment starts");

        // Provision web users: one account per MDT plus an admin.
        for mdt in &mdts {
            deployment
                .users()
                .create_user(
                    &mdt.name,
                    &password_for(&mdt.name),
                    &mdt_user_privileges(&mdt.name, mdt.region_id),
                    false,
                )
                .expect("fresh usernames");
        }
        deployment
            .users()
            .create_user("admin", "admin-pw", &admin_privileges(&mdts), true)
            .expect("fresh admin");

        // The application-level privileges table used by check_privileges
        // (the paper's Listing 3).
        let web_db = deployment.users().database().clone();
        create_app_privileges(&web_db, &mdts);

        MdtPortal {
            deployment,
            registry_db,
            mdts,
            expected_records,
            expected_events,
            aggregates_follow_records: !config.vuln.aggregator_mixes_hospitals,
        }
    }

    /// The underlying deployment.
    pub fn deployment(&self) -> &SafeWebDeployment {
        &self.deployment
    }

    /// The synthetic registry.
    pub fn registry(&self) -> &Database {
        &self.registry_db
    }

    /// MDTs in the registry.
    pub fn mdts(&self) -> &[MdtInfo] {
        &self.mdts
    }

    /// Blocks until the pipeline has settled (or panics after `timeout`).
    /// Settled means two things hold on the DMZ replica:
    ///
    /// * the records carry every event: a record for every patient, and
    ///   as many folded pieces as the producer published events. Each
    ///   event adds exactly one marker member to its own record — a
    ///   patient `birth_year`, a tumour `diagnosed`, a treatment
    ///   `treatment` — so the markers over all records count the events
    ///   folded in. Writes no longer do: within one activation only a
    ///   record's last version is stored (`units` module docs);
    /// * the aggregates agree with those records: every `metrics-<mdt>`
    ///   holds the `cases` and rounded `avg_completeness` computed from
    ///   that MDT's records, and every `regional-<region>` the same over
    ///   its region's records.
    ///
    /// Both come from one pass over the records. The second condition
    /// does not count aggregate writes, since an aggregate is written only
    /// when it changes. A portal built with the E9 design error
    /// (`VulnConfig::aggregator_mixes_hospitals`) keys cases across MDTs
    /// by construction, so its aggregates need not match its records; it
    /// settles on the first condition alone, which for it is a lower
    /// bound: a mixed record also carries the markers of the cases it
    /// collides with, so the count can be reached before the last
    /// events land. Wakes on the replica's commits, not on a timer.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline does not settle within `timeout`.
    pub fn wait_for_pipeline(&self, timeout: Duration) {
        let (records, events) = (self.expected_records, self.expected_events);
        let dmz = self.deployment.dmz_db();
        // Cheapest test first, since this runs on every commit: the O(1)
        // store size gates the record count, and only a complete record
        // set is worth tallying.
        let settled = dmz.wait_until(timeout, |db| {
            if db.len() < records || db.count_prefix("record-") < records {
                return false;
            }
            let records = db.scan_prefix("record-");
            RecordTally::of(&records).is_some_and(|tally| {
                tally.pieces >= events
                    && (!self.aggregates_follow_records || tally.aggregates_match(db))
            })
        });
        assert!(
            settled,
            "pipeline did not settle: {}/{records} records in DMZ",
            dmz.count_prefix("record-")
        );
    }

    /// Builds the portal's web application (routes + vulnerability
    /// injection per `vuln`).
    pub fn frontend(&self, vuln: &VulnConfig) -> SafeWebApp {
        let mut app = self.deployment.new_frontend();
        install_routes(
            &mut app,
            &self.mdts,
            self.deployment.users().database(),
            vuln,
        );
        app
    }
}

/// Members of which each producer event adds exactly one to its record.
const PIECE_MARKERS: [&str; 3] = ["birth_year", "diagnosed", "treatment"];

/// What the replica's records add up to, in one pass: the event pieces
/// they carry, and per MDT and per region the number of records and
/// their completeness sum — what the aggregator folds event by event.
struct RecordTally<'a> {
    pieces: u64,
    by_mdt: BTreeMap<&'a str, (i64, f64)>,
    by_region: BTreeMap<&'a str, (i64, f64)>,
}

impl<'a> RecordTally<'a> {
    /// `None` if a record lacks its `mdt_id` or `region_id`.
    fn of(records: &'a [Document]) -> Option<RecordTally<'a>> {
        let mut tally = RecordTally {
            pieces: 0,
            by_mdt: BTreeMap::new(),
            by_region: BTreeMap::new(),
        };
        for record in records {
            let body = record.body();
            tally.pieces += PIECE_MARKERS
                .iter()
                .filter(|m| body.get(m).is_some())
                .count() as u64;
            let completeness = body
                .get("completeness")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            for (groups, key) in [
                (&mut tally.by_mdt, "mdt_id"),
                (&mut tally.by_region, "region_id"),
            ] {
                let (cases, sum) = groups
                    .entry(body.get(key).and_then(Value::as_str)?)
                    .or_default();
                *cases += 1;
                *sum += completeness;
            }
        }
        Some(tally)
    }

    /// Whether every aggregate document in `db` holds what the records
    /// imply: the number of records and their rounded average
    /// completeness.
    fn aggregates_match(&self, db: &DocStore) -> bool {
        let holds = |id: String, &(cases, sum): &(i64, f64)| {
            db.get(&id).is_some_and(|doc| {
                let body = doc.body();
                body.get("cases").and_then(Value::as_i64) == Some(cases)
                    && body.get("avg_completeness").and_then(Value::as_f64)
                        == Some((sum / cases as f64).round())
            })
        };
        self.by_mdt
            .iter()
            .all(|(mdt, totals)| holds(format!("metrics-{mdt}"), totals))
            && self
                .by_region
                .iter()
                .all(|(region, totals)| holds(format!("regional-{region}"), totals))
    }
}

fn admin_privileges(mdts: &[MdtInfo]) -> safeweb_labels::PrivilegeSet {
    use safeweb_labels::{LabelPattern, Privilege, PrivilegeKind};
    let mut privs = safeweb_labels::PrivilegeSet::new();
    let everything: LabelPattern = "label:conf:ecric.org.uk/*".parse().expect("valid pattern");
    privs.grant(Privilege::new(PrivilegeKind::Clearance, everything));
    let _ = mdts;
    privs
}

fn create_app_privileges(web_db: &Database, mdts: &[MdtInfo]) {
    let _ = web_db.create_table(
        "app_privileges",
        Schema::new(
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("username", ColumnType::Text),
                ColumnDef::new("hospital_id", ColumnType::Int),
                ColumnDef::new("clinic", ColumnType::Text),
            ],
            "id",
        ),
    );
    for (i, mdt) in mdts.iter().enumerate() {
        web_db
            .insert(
                "app_privileges",
                vec![
                    (i as i64).into(),
                    mdt.name.clone().into(),
                    mdt.hospital_id.into(),
                    mdt.clinic.clone().into(),
                ],
            )
            .expect("fresh app privilege rows");
    }
}

/// The paper's Listing 3: the application-level access check the MDT
/// portal performs *before* fetching records. SafeWeb's point is that
/// bugs here (or its complete omission) cannot disclose data — the label
/// check is the safety net.
fn check_privileges(
    web_db: &Database,
    username: &str,
    is_admin: bool,
    mdt: &MdtInfo,
    vuln: &VulnConfig,
) -> bool {
    if is_admin {
        return true;
    }
    let rows = web_db
        .select("app_privileges", |row| {
            let name_matches = if vuln.case_insensitive_lookup {
                // E7 injection point (Listing 3 line 5): `User.find_by_name`
                // made case-insensitive, so `MDT1` inherits the membership
                // rows of `mdt1`.
                row.text("username")
                    .is_some_and(|u| u.eq_ignore_ascii_case(username))
            } else {
                row.text("username") == Some(username)
            };
            name_matches
                && row.int("hospital_id") == Some(mdt.hospital_id)
                // E8 injection point (Listing 3 line 7): the correct check
                // also matches the clinic; dropping it lets any MDT of the
                // same hospital through the *application* check.
                && (vuln.inappropriate_check || row.text("clinic") == Some(mdt.clinic.as_str()))
        })
        .unwrap_or_default();
    !rows.is_empty()
}

const FRONT_PAGE_TEMPLATE: &str = "<!doctype html>\n<html><head><title>MDT <%= mdt %></title></head>\n<body>\n<h1>MDT <%= mdt %> — patient records</h1>\n<p>Average completeness: <%= metrics.avg_completeness %>% over <%= metrics.cases %> cases</p>\n<table>\n<tr><th>Case</th><th>Name</th><th>Born</th><th>Site</th><th>Stage</th><th>Treatment</th><th>Completeness</th></tr>\n<% for r in records %><tr><td><%= r.case_id %></td><td><%= r.name %></td><td><%= r.birth_year %></td><td><%= r.site %></td><td><%= r.stage %></td><td><%= r.treatment %></td><td><%= r.completeness %></td></tr>\n<% end %></table>\n</body></html>\n";

const COMPARE_TEMPLATE: &str = "<!doctype html>\n<html><head><title>Compare <%= mdt %></title></head>\n<body>\n<h1>MDT <%= mdt %> in context (region <%= region %>)</h1>\n<table>\n<tr><th>MDT</th><th>Cases</th><th>Avg completeness</th></tr>\n<% for m in peers %><tr><td><%= m.mdt_id %></td><td><%= m.cases %></td><td><%= m.avg_completeness %></td></tr>\n<% end %></table>\n<p>Regional average: <%= regional.avg_completeness %>% over <%= regional.cases %> cases</p>\n</body></html>\n";

/// Renders a page, or a 500 naming the template error.
fn render_page(template: &Template, tctx: &TContext) -> SResponse {
    match template.render(tctx) {
        Ok(body) => SResponse::html(body),
        Err(e) => SResponse::error(500, &format!("template error: {e}")),
    }
}

fn install_routes(app: &mut SafeWebApp, mdts: &[MdtInfo], web_db: &Database, vuln: &VulnConfig) {
    let mdt_index: Arc<BTreeMap<String, MdtInfo>> =
        Arc::new(mdts.iter().map(|m| (m.name.clone(), m.clone())).collect());
    let front_template = Template::parse(FRONT_PAGE_TEMPLATE).expect("valid template");
    let compare_template = Template::parse(COMPARE_TEMPLATE).expect("valid template");

    // --- GET /records/:mid — the paper's Listing 2 -----------------------
    let idx = Arc::clone(&mdt_index);
    let db = web_db.clone();
    let vuln_records = *vuln;
    app.get("/records/:mid", move |ctx: &Ctx<'_>| {
        let mid = ctx.param_raw("mid").unwrap_or("");
        let Some(mdt) = idx.get(mid) else {
            return SResponse::not_found();
        };
        // E6 injection point: `return nil if !check_privileges(...)`.
        if !vuln_records.omitted_access_check
            && !check_privileges(
                &db,
                &ctx.user().username,
                ctx.user().is_admin,
                mdt,
                &vuln_records,
            )
        {
            return SResponse::error(403, "not a member of this MDT");
        }
        SResponse::json_array(&ctx.records_by("by_mid", mid))
    });

    // --- GET /mdt/:mid — the HTML front page (benchmark E1) --------------
    // The template walks the view's documents and the metrics document
    // themselves; no row is copied out of the store to be shown.
    let idx = Arc::clone(&mdt_index);
    let db = web_db.clone();
    let vuln_page = *vuln;
    app.get("/mdt/:mid", move |ctx: &Ctx<'_>| {
        let mid = ctx.param_raw("mid").unwrap_or("");
        let Some(mdt) = idx.get(mid) else {
            return SResponse::not_found();
        };
        if !vuln_page.omitted_access_check
            && !check_privileges(
                &db,
                &ctx.user().username,
                ctx.user().is_admin,
                mdt,
                &vuln_page,
            )
        {
            return SResponse::error(403, "not a member of this MDT");
        }
        let tctx = TContext::new()
            .bind("mdt", mid)
            .bind("records", TValue::Docs(ctx.records_by("by_mid", mid)))
            .bind(
                "metrics",
                TValue::Doc(ctx.record(&format!("metrics-{mid}"))),
            );
        render_page(&front_template, &tctx)
    });

    // --- GET /metrics/:mid — per-MDT aggregates (F2/F3) ------------------
    // Cached per clearance: the page is a pure function of the path and the
    // store; the boundary label check keys the cache by PrivilegeSetId.
    let idx = Arc::clone(&mdt_index);
    app.get_cached("/metrics/:mid", move |ctx: &Ctx<'_>| {
        let mid = ctx.param_raw("mid").unwrap_or("");
        if !idx.contains_key(mid) {
            return SResponse::not_found();
        }
        match ctx.record(&format!("metrics-{mid}")) {
            Some(doc) => SResponse::json(doc.to_json_sstr()),
            None => SResponse::error(404, "no metrics yet"),
        }
    });

    // --- GET /compare/:mid — region comparison page (F3) -----------------
    // Cached per clearance: the comparison page renders the same rows for
    // every user holding the same privilege set (all users of one MDT).
    let idx = Arc::clone(&mdt_index);
    app.get_cached("/compare/:mid", move |ctx: &Ctx<'_>| {
        let mid = ctx.param_raw("mid").unwrap_or("");
        let Some(mdt) = idx.get(mid) else {
            return SResponse::not_found();
        };
        let region = mdt.region_id.to_string();
        // The view also holds the region's records; only the MDT metrics
        // are shown, so only their labels reach the page. The comparison
        // reads the raw `kind` and nothing of it is displayed.
        let mut peers = ctx.records_by("metrics_by_region", &region);
        peers.retain(|p| p.value().get("kind").and_then(Value::as_str) == Some("mdt_metrics"));
        let tctx = TContext::new()
            .bind("mdt", mid)
            .bind("region", region.as_str())
            .bind("peers", TValue::Docs(peers))
            .bind(
                "regional",
                TValue::Doc(ctx.record(&format!("regional-{region}"))),
            );
        render_page(&compare_template, &tctx)
    });

    // --- GET /aggregates/regional — visible to every MDT (P1) ------------
    // Cached per clearance (pure function of the store; no user state).
    app.get_cached("/aggregates/regional", move |ctx: &Ctx<'_>| {
        SResponse::json_array(&ctx.records_by("by_kind", "regional_metrics"))
    });
}
