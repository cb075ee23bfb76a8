//! One-stop wiring of the full SafeWeb middleware (Figure 1): event
//! broker + processing engine in the Intranet, application database
//! replicated one-way into a read-only DMZ instance, and the enforcing
//! web frontend on top.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use safeweb_broker::{Broker, BrokerOptions};
use safeweb_docstore::{DocStore, ReplicationHandle};
use safeweb_engine::{Engine, EngineError, EngineHandle, EngineOptions, UnitSpec};
use safeweb_http::HttpServer;
use safeweb_labels::Policy;
use safeweb_obs::MetricsRegistry;
use safeweb_relstore::Database;
use safeweb_web::{AuthConfig, SafeWebApp, UserStore};

use crate::ops;
use crate::zones::{Zone, ZoneTopology};

/// Builder for a complete SafeWeb deployment.
///
/// ```no_run
/// use safeweb_core::SafeWebBuilder;
/// use safeweb_engine::UnitSpec;
///
/// let deployment = SafeWebBuilder::new()
///     .policy("unit importer {\n privileged \n}".parse()?)
///     .unit(UnitSpec::new("importer"))
///     .build()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SafeWebBuilder {
    policy: Policy,
    units: Vec<UnitSpec>,
    deferred_units: Vec<Box<dyn FnOnce(DocStore) -> UnitSpec>>,
    replication_interval: Duration,
    auth_config: AuthConfig,
    engine_options: EngineOptions,
    app_views: Vec<(String, String)>,
    data_dir: Option<PathBuf>,
}

impl Default for SafeWebBuilder {
    fn default() -> SafeWebBuilder {
        SafeWebBuilder::new()
    }
}

impl SafeWebBuilder {
    /// A builder with an empty policy and no units.
    pub fn new() -> SafeWebBuilder {
        SafeWebBuilder {
            policy: Policy::new(),
            units: Vec::new(),
            deferred_units: Vec::new(),
            replication_interval: Duration::from_millis(100),
            auth_config: AuthConfig::default(),
            engine_options: EngineOptions::default(),
            app_views: Vec::new(),
            data_dir: None,
        }
    }

    /// Sets the data-flow policy (unit and user privileges).
    pub fn policy(mut self, policy: Policy) -> SafeWebBuilder {
        self.policy = policy;
        self
    }

    /// Adds an event-processing unit.
    pub fn unit(mut self, unit: UnitSpec) -> SafeWebBuilder {
        self.units.push(unit);
        self
    }

    /// Adds a unit whose construction needs the Intranet application
    /// database (typically the privileged storage unit, which persists
    /// labelled results). The closure runs during [`SafeWebBuilder::build`]
    /// once the database exists.
    pub fn unit_with_app_db(
        mut self,
        make: impl FnOnce(DocStore) -> UnitSpec + 'static,
    ) -> SafeWebBuilder {
        self.deferred_units.push(Box::new(make));
        self
    }

    /// Sets the Intranet→DMZ replication fallback period (default
    /// 100 ms): replication runs on every commit, and at least this often.
    pub fn replication_interval(mut self, interval: Duration) -> SafeWebBuilder {
        self.replication_interval = interval;
        self
    }

    /// Sets the authentication configuration (hash cost).
    pub fn auth_config(mut self, config: AuthConfig) -> SafeWebBuilder {
        self.auth_config = config;
        self
    }

    /// Sets engine options (worker-pool sizing; label tracking for
    /// baseline benchmarking only).
    pub fn engine_options(mut self, options: EngineOptions) -> SafeWebBuilder {
        self.engine_options = options;
        self
    }

    /// Declares a view on the application database (replicated to the DMZ
    /// replica as well), e.g. `("by_mid", "mdt_id")`.
    pub fn app_view(mut self, view: &str, field: &str) -> SafeWebBuilder {
        self.app_views.push((view.to_string(), field.to_string()));
        self
    }

    /// Runs the deployment in **durable mode**: the Intranet application
    /// database and the DMZ replica persist under
    /// `dir/app-intranet` and `dir/app-dmz` through write-ahead logs with
    /// periodic snapshots, and Intranet→DMZ replication resumes from the
    /// replica's durably recorded checkpoint after a restart (no full
    /// re-transfer). Views are re-declared per build via
    /// [`SafeWebBuilder::app_view`] and rebuilt from the recovered
    /// documents.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> SafeWebBuilder {
        self.data_dir = Some(dir.into());
        self
    }

    /// Wires and starts everything: broker, engine (units subscribed),
    /// application database + read-only DMZ replica + periodic replication,
    /// and the web user store.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if a unit cannot be wired to the broker,
    /// or [`EngineError::Storage`] if durable mode
    /// ([`SafeWebBuilder::data_dir`]) cannot open or recover its stores.
    pub fn build(self) -> Result<SafeWebDeployment, EngineError> {
        let topology = ZoneTopology::ecric();

        // One registry for the whole deployment: every subsystem's
        // counters, histograms and derived gauges land here, and the
        // ops surface ([`SafeWebDeployment::serve_ops`]) snapshots it.
        let metrics = MetricsRegistry::new();
        let broker = Broker::with_metrics(BrokerOptions::default(), &metrics);

        // Application DB lives in the Intranet; replica in the DMZ.
        // Durable mode recovers both from their write-ahead logs.
        let (app_db, dmz_db) = match &self.data_dir {
            Some(dir) => {
                let open = |name: &str| {
                    DocStore::open(dir.join(name))
                        .map_err(|e| EngineError::Storage(format!("{name}: {e}")))
                };
                (open("app-intranet")?, open("app-dmz")?)
            }
            None => (DocStore::new("app-intranet"), DocStore::new("app-dmz")),
        };
        dmz_db.set_read_only(true);
        for (view, field) in &self.app_views {
            app_db.create_view(view, field);
            dmz_db.create_view(view, field);
        }
        app_db.attach_metrics(&metrics, "docstore.app");
        dmz_db.attach_metrics(&metrics, "docstore.dmz");

        // Replication pushes Intranet → DMZ; assert the firewall allows it.
        // A durable replica resumes from its recovered checkpoint instead
        // of re-transferring the whole history.
        topology
            .check(Zone::Intranet, Zone::Dmz)
            .expect("ECRIC topology always allows intranet→DMZ");
        let replication =
            ReplicationHandle::start(app_db.clone(), dmz_db.clone(), self.replication_interval);

        replication.attach_metrics(&metrics, "replication");

        // Replication lag in sequence numbers: how far the DMZ replica's
        // checkpoint trails the Intranet store. A count, never content.
        let lag_source = app_db.clone();
        let lag_checkpoint = replication.checkpoint_cell();
        metrics.register_derived("replication.lag_seqs", move || {
            lag_source
                .seq()
                .saturating_sub(lag_checkpoint.load(Ordering::SeqCst)) as f64
        });

        // The declassification audit trail is process-global (every
        // `SStr` declassify anywhere counts); surfacing it per
        // deployment keeps the audit pressure visible on the ops page.
        metrics.register_derived("safeq.declassify_count", || {
            safeweb_safeq::declassify_count() as f64
        });
        metrics.register_derived("safeq.declassify_dropped", || {
            safeweb_safeq::declassify_dropped() as f64
        });
        // The JSON object-key intern table is process-global too, and
        // bounded (`safeweb_json::INTERN_MAX_KEYS`): its fill, a count.
        metrics.register_derived("json.interned_keys", || {
            safeweb_json::interned_keys() as f64
        });

        let mut engine_options = self.engine_options;
        let sched = &mut engine_options.scheduler;
        if sched.metrics.is_none() {
            sched.metrics = Some(metrics.clone());
        }
        let mut engine =
            Engine::new(Arc::new(broker.clone()), self.policy.clone()).with_options(engine_options);
        for unit in self.units {
            engine.add_unit(unit)?;
        }
        for make in self.deferred_units {
            engine.add_unit(make(app_db.clone()))?;
        }
        let engine_handle = engine.start()?;

        let web_db = Database::new("web");
        let users = UserStore::new(web_db, self.auth_config);

        Ok(SafeWebDeployment {
            topology,
            broker,
            engine_handle: Some(engine_handle),
            app_db,
            dmz_db,
            replication: Some(replication),
            users,
            policy: self.policy,
            metrics,
        })
    }
}

/// A running SafeWeb deployment.
pub struct SafeWebDeployment {
    topology: ZoneTopology,
    broker: Broker,
    engine_handle: Option<EngineHandle>,
    app_db: DocStore,
    dmz_db: DocStore,
    replication: Option<ReplicationHandle>,
    users: UserStore,
    policy: Policy,
    metrics: MetricsRegistry,
}

impl SafeWebDeployment {
    /// The firewall topology in force.
    pub fn topology(&self) -> &ZoneTopology {
        &self.topology
    }

    /// The embedded event broker (Intranet).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The Intranet application database (writable by the storage unit).
    pub fn app_db(&self) -> &DocStore {
        &self.app_db
    }

    /// The DMZ replica (read-only; what the frontend sees).
    pub fn dmz_db(&self) -> &DocStore {
        &self.dmz_db
    }

    /// The web user/privilege store.
    pub fn users(&self) -> &UserStore {
        &self.users
    }

    /// The deployment's policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The Intranet→DMZ replication checkpoint after the most recent run,
    /// or `None` once replication has been stopped. In durable mode
    /// ([`SafeWebBuilder::data_dir`]) this is persisted through the DMZ
    /// replica's write-ahead log automatically and the next build resumes
    /// from it; an in-memory deployment's replica starts empty, so its
    /// replication starts from 0.
    pub fn replication_checkpoint(&self) -> Option<u64> {
        self.replication.as_ref().map(|r| r.checkpoint())
    }

    /// Whether the application database and DMZ replica persist to disk
    /// (the deployment was built with [`SafeWebBuilder::data_dir`]).
    pub fn is_durable(&self) -> bool {
        self.app_db.is_durable()
    }

    /// The deployment-wide metrics registry. Every subsystem reports
    /// here — broker (`broker.*`), scheduler (`sched.*`), document
    /// stores (`docstore.app.*` / `docstore.dmz.*`), replication
    /// (`replication.lag_seqs`, `.runs`, `.wakeups`, `.coalesced`,
    /// `.docs_per_run`),
    /// declassification audit (`safeq.*`), the JSON key intern table
    /// (`json.interned_keys`),
    /// and, once served, the frontend (`web.*`, `frontend.*`). Call
    /// [`safeweb_obs::MetricsRegistry::snapshot`] for one consistent
    /// JSON view, or serve it over HTTP with
    /// [`SafeWebDeployment::serve_ops`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Violations recorded by the engine so far.
    pub fn engine_violations(&self) -> Vec<safeweb_engine::Violation> {
        self.engine_handle
            .as_ref()
            .map(|h| h.violations())
            .unwrap_or_default()
    }

    /// Creates a frontend application bound to the DMZ replica and the
    /// user store; add routes, then pass to [`SafeWebDeployment::serve`].
    pub fn new_frontend(&self) -> SafeWebApp {
        // External users reach the DMZ; assert the direction is legal.
        self.topology
            .check(Zone::External, Zone::Dmz)
            .expect("ECRIC topology always allows external→DMZ");
        SafeWebApp::new(self.users.clone(), self.dmz_db.clone())
    }

    /// Serves a configured frontend over HTTP.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn serve(&self, app: SafeWebApp, addr: &str) -> std::io::Result<HttpServer> {
        app.attach_metrics(&self.metrics);
        let server = HttpServer::bind(addr, Arc::new(app).into_handler())?;
        server.attach_metrics(&self.metrics, "frontend");
        Ok(server)
    }

    /// Serves the operator surface on its **own** listener (never the
    /// public frontend address): `/__obs/metrics`, `/__obs/health` and
    /// `/__obs/trace/:id`. Every route requires HTTP basic credentials
    /// for an **admin** user from [`SafeWebDeployment::users`]; anyone
    /// else gets 401/403 and no body. See [`crate::ops`] for the
    /// label-safety contract of what these endpoints may expose.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn serve_ops(&self, addr: &str) -> std::io::Result<HttpServer> {
        let state = ops::OpsState {
            metrics: self.metrics.clone(),
            users: self.users.clone(),
            app_db: self.app_db.clone(),
            dmz_db: self.dmz_db.clone(),
        };
        HttpServer::bind(addr, ops::handler(state))
    }

    /// Stops the engine and replication (idempotent; also runs on drop).
    pub fn stop(&mut self) {
        if let Some(h) = self.engine_handle.take() {
            h.stop();
        }
        if let Some(r) = self.replication.take() {
            r.stop();
        }
    }
}

impl Drop for SafeWebDeployment {
    fn drop(&mut self) {
        self.stop();
    }
}
