//! The system under test: the paper's full Figure-4 topology in this
//! process — registry → producer → broker → jailed aggregator → storage
//! unit → durable Intranet store + WAL → replication → read-only DMZ
//! replica → HTTP frontend, plus a STOMP broker server for ingest.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use safeweb_broker::BrokerServer;
use safeweb_docstore::DocStore;
use safeweb_http::HttpServer;
use safeweb_mdt::units::ProducerConfig;
use safeweb_mdt::{MdtPortal, PortalConfig, VulnConfig};
use safeweb_web::{FrontendOptions, FrontendStats, SafeWebApp};

use crate::gen;

/// Password-hash cost, the same on every workload. Fixed once on the
/// reference box so that `web.auth_us` is ≈ 45 % of `web.handle_us` on
/// `page-render` (the Figure-5 share); never calibrated at run time.
pub const AUTH_ITERATIONS: u32 = 330_000;

/// Intranet→DMZ replication period. With `WalSync::OsBuffered` (the
/// deployment default, left untouched) this is what gates visibility.
pub const REPLICATION_INTERVAL: Duration = Duration::from_millis(10);

/// A directory under the build output that is removed when dropped. The
/// benchmark writes nowhere else.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn root() -> PathBuf {
        let exe = std::env::current_exe().expect("benchmark knows its own path");
        exe.parent()
            .expect("executable sits in a directory")
            .join("bench-scratch")
    }

    pub fn new(tag: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = ScratchDir::root().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One running deployment with its two servers. Fields drop in order:
/// servers, then the portal (engine and replication stop), then its data.
pub struct Rig {
    pub http: HttpServer,
    pub broker: BrokerServer,
    /// Phase counters of the *served* frontend.
    pub stats: Arc<FrontendStats>,
    pub portal: MdtPortal,
    enforcing: bool,
    _data: ScratchDir,
}

impl Rig {
    /// Builds the portal from `seed`, waits for the pipeline to settle
    /// and starts both servers. `enforcing: false` is the paper's §5.3
    /// baseline: no label tracking in the engine, no release check.
    pub fn start(seed: u64, enforcing: bool) -> Rig {
        let data = ScratchDir::new("data");
        let portal = MdtPortal::build(PortalConfig {
            registry: gen::registry(seed),
            producer: ProducerConfig {
                interval: Duration::from_millis(5),
                batch: 200,
            },
            vuln: VulnConfig::default(),
            auth_iterations: AUTH_ITERATIONS,
            replication_interval: REPLICATION_INTERVAL,
            label_tracking: enforcing,
            data_dir: Some(data.0.clone()),
            ..PortalConfig::default()
        });
        portal.wait_for_pipeline(Duration::from_secs(120));
        let deployment = portal.deployment();
        let app = Rig::frontend(&portal, enforcing);
        let stats = app.stats();
        let http = deployment
            .serve(app, "127.0.0.1:0")
            .expect("bind HTTP frontend on loopback");
        let broker = BrokerServer::bind(
            "127.0.0.1:0",
            deployment.broker().clone(),
            deployment.policy().clone(),
        )
        .expect("bind STOMP broker on loopback");
        Rig {
            http,
            broker,
            stats,
            portal,
            enforcing,
            _data: data,
        }
    }

    fn frontend(portal: &MdtPortal, enforcing: bool) -> SafeWebApp {
        portal
            .frontend(&VulnConfig::default())
            .with_options(FrontendOptions {
                label_checking: enforcing,
                ..FrontendOptions::default()
            })
    }

    /// A second, unserved frontend over the same stores, for calling
    /// `SafeWebApp::handle` directly.
    pub fn direct_frontend(&self) -> SafeWebApp {
        Rig::frontend(&self.portal, self.enforcing)
    }

    pub fn http_addr(&self) -> String {
        self.http.addr().to_string()
    }

    pub fn broker_addr(&self) -> String {
        self.broker.addr().to_string()
    }

    pub fn dmz(&self) -> &DocStore {
        self.portal.deployment().dmz_db()
    }

    pub fn app_db(&self) -> &DocStore {
        self.portal.deployment().app_db()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.http.shutdown();
        self.broker.shutdown();
    }
}
