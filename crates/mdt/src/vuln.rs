//! The §5.2 security study: inject the four CVE-derived vulnerability
//! classes into the MDT portal and verify that SafeWeb prevents the
//! disclosure each would otherwise cause.
//!
//! Each experiment runs three configurations:
//!
//! 1. **baseline** — the correct portal (expected: application check
//!    denies the attacker, 403);
//! 2. **protected** — the bug injected, SafeWeb enforcing (expected:
//!    the label check aborts the response, still no disclosure);
//! 3. **unprotected** — the bug injected *and* the label check disabled
//!    (expected: real disclosure — demonstrating that the bug is genuine
//!    and SafeWeb was the only thing standing).

use std::fmt;
use std::time::Duration;

use safeweb_http::{Method, Request};
use safeweb_relstore::CellValue;
use safeweb_web::SafeWebApp;

use crate::labels::mdt_user_privileges;
use crate::portal::{password_for, MdtPortal, PortalConfig};
use crate::registry::RegistryConfig;

/// Which implementation bugs to inject (all `false` = correct portal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VulnConfig {
    /// E6 *Omitted access checks* (cf. CVE-2011-0701, CVE-2010-2353,
    /// CVE-2010-0752): remove the `check_privileges` call from the records
    /// routes (Listing 2 line 5).
    pub omitted_access_check: bool,
    /// E7 *Errors in access checks* (cf. CVE-2011-0449, CVE-2010-3092,
    /// CVE-2010-4403): the user lookup in `check_privileges` ignores
    /// username case, so `MDT1` inherits `mdt1`'s membership.
    pub case_insensitive_lookup: bool,
    /// E8 *Inappropriate access checks* (cf. CVE-2010-4775,
    /// CVE-2009-2431): the check drops the clinic-equality condition
    /// (Listing 3 line 7), letting any MDT of the same hospital through.
    pub inappropriate_check: bool,
    /// E9 *Design errors* (cf. CVE-2011-0899, CVE-2010-3933): the
    /// aggregator ignores the MDT of origin when matching case events,
    /// producing records that mix data of different MDTs.
    pub aggregator_mixes_hospitals: bool,
}

/// The four §5.2 vulnerability classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VulnClass {
    /// E6.
    OmittedAccessCheck,
    /// E7.
    ErrorInAccessCheck,
    /// E8.
    InappropriateAccessCheck,
    /// E9.
    DesignError,
}

impl VulnClass {
    /// All four classes, in paper order.
    pub fn all() -> [VulnClass; 4] {
        [
            VulnClass::OmittedAccessCheck,
            VulnClass::ErrorInAccessCheck,
            VulnClass::InappropriateAccessCheck,
            VulnClass::DesignError,
        ]
    }

    /// The matching injection config.
    pub fn config(self) -> VulnConfig {
        match self {
            VulnClass::OmittedAccessCheck => VulnConfig {
                omitted_access_check: true,
                ..VulnConfig::default()
            },
            VulnClass::ErrorInAccessCheck => VulnConfig {
                case_insensitive_lookup: true,
                ..VulnConfig::default()
            },
            VulnClass::InappropriateAccessCheck => VulnConfig {
                inappropriate_check: true,
                ..VulnConfig::default()
            },
            VulnClass::DesignError => VulnConfig {
                aggregator_mixes_hospitals: true,
                ..VulnConfig::default()
            },
        }
    }

    /// The paper's name for the class.
    pub fn title(self) -> &'static str {
        match self {
            VulnClass::OmittedAccessCheck => "Omitted Access Checks",
            VulnClass::ErrorInAccessCheck => "Errors in Access Checks",
            VulnClass::InappropriateAccessCheck => "Inappropriate Access Checks",
            VulnClass::DesignError => "Design Errors",
        }
    }

    /// Representative CVE identifiers cited by the paper.
    pub fn cves(self) -> &'static [&'static str] {
        match self {
            VulnClass::OmittedAccessCheck => &["CVE-2011-0701", "CVE-2010-2353", "CVE-2010-0752"],
            VulnClass::ErrorInAccessCheck => &["CVE-2011-0449", "CVE-2010-3092", "CVE-2010-4403"],
            VulnClass::InappropriateAccessCheck => &["CVE-2010-4775", "CVE-2009-2431"],
            VulnClass::DesignError => &["CVE-2011-0899", "CVE-2010-3933"],
        }
    }
}

impl fmt::Display for VulnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.title())
    }
}

/// Outcome of one injection experiment.
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// The injected class.
    pub class: VulnClass,
    /// HTTP status without the vulnerability (baseline).
    pub baseline_status: u16,
    /// HTTP status with the bug injected and SafeWeb enforcing
    /// (≠200 = contained).
    pub protected_status: u16,
    /// HTTP status with the bug injected and the label check disabled.
    pub unprotected_status: u16,
    /// Whether the unprotected response actually disclosed another MDT's
    /// patient data (proves the bug is real).
    pub unprotected_leaked: bool,
}

impl StudyResult {
    /// SafeWeb contains the bug iff the protected run denies the response
    /// while the unprotected run demonstrates a real leak.
    pub fn contained(&self) -> bool {
        self.protected_status != 200 && self.unprotected_leaked
    }
}

/// A small registry so study runs stay fast: one hospital with two MDTs
/// (the E8 precondition) treating different clinics.
fn study_registry() -> RegistryConfig {
    RegistryConfig {
        regions: 1,
        hospitals_per_region: 1,
        mdts_per_hospital: 2,
        patients_per_mdt: 6,
        seed: 7,
    }
}

fn study_portal(vuln: VulnConfig, label_checking: bool) -> (MdtPortal, SafeWebApp) {
    let portal = MdtPortal::build(PortalConfig {
        registry: study_registry(),
        vuln,
        auth_iterations: 1_000, // keep the study fast
        replication_interval: Duration::from_millis(20),
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(30));
    let mut app = portal.frontend(&vuln);
    if !label_checking {
        app = app.with_options(safeweb_web::FrontendOptions {
            label_checking: false,
        });
    }
    (portal, app)
}

/// `victim`'s records requested with `attacker`'s credentials.
fn probe(app: &SafeWebApp, attacker: &str, password: &str, victim_mdt: &str) -> (u16, String) {
    let req = Request::new(Method::Get, &format!("/records/{victim_mdt}"))
        .with_basic_auth(attacker, password);
    let resp = app.handle(&req);
    (
        resp.status(),
        resp.body_str().unwrap_or_default().to_string(),
    )
}

/// Patient names treated by `mdt_id`, used as the disclosure oracle.
fn patient_names_of(portal: &MdtPortal, mdt_id: i64) -> Vec<String> {
    portal
        .registry()
        .select_eq("patients", "mdt_id", &CellValue::Int(mdt_id))
        .expect("patients table")
        .into_iter()
        .filter_map(|row| row.text("name").map(str::to_string))
        .collect()
}

fn leaked_any(body: &str, names: &[String]) -> bool {
    names.iter().any(|n| body.contains(n.as_str()))
}

/// Credentials the attacker uses; for E7 this provisions the paper's
/// `mdt1`/`MDT1` colliding pair in the fresh portal instance.
fn experiment_credentials(portal: &MdtPortal, class: VulnClass) -> (String, String) {
    let mdts = portal.mdts();
    let victim = &mdts[0];
    let attacker = &mdts[1];
    match class {
        VulnClass::ErrorInAccessCheck => {
            // A distinct account whose name is the upper-cased victim name
            // and whose *real* privileges are the attacker's. The buggy
            // case-insensitive membership lookup will hand it the victim's
            // membership rows, but the trusted privilege fetch still
            // returns the attacker's privileges — which is exactly the
            // privilege-sharing bug the paper injects.
            let twisted = victim.name.to_ascii_uppercase();
            let password = password_for(&twisted);
            portal
                .deployment()
                .users()
                .create_user(
                    &twisted,
                    &password,
                    &mdt_user_privileges(&attacker.name, attacker.region_id),
                    false,
                )
                .expect("twisted account is fresh");
            (twisted, password)
        }
        _ => (attacker.name.clone(), password_for(&attacker.name)),
    }
}

/// Runs the full study for one class.
pub fn run_experiment(class: VulnClass) -> StudyResult {
    match class {
        VulnClass::OmittedAccessCheck
        | VulnClass::ErrorInAccessCheck
        | VulnClass::InappropriateAccessCheck => run_frontend_experiment(class),
        VulnClass::DesignError => run_design_error_experiment(),
    }
}

fn run_frontend_experiment(class: VulnClass) -> StudyResult {
    // Baseline: correct portal; the attacker MDT asks for the victim's
    // records and the application check denies.
    let (portal, app) = study_portal(VulnConfig::default(), true);
    let victim = portal.mdts()[0].name.clone();
    let (attacker, password) = experiment_credentials(&portal, class);
    let (baseline_status, baseline_body) = probe(&app, &attacker, &password, &victim);
    let victim_names = patient_names_of(&portal, portal.mdts()[0].id);
    assert!(
        !leaked_any(&baseline_body, &victim_names),
        "baseline leaked: {baseline_body}"
    );
    drop(app);
    drop(portal);

    let vuln = class.config();

    // Protected: bug present, SafeWeb enforcing.
    let (portal, app) = study_portal(vuln, true);
    let victim = portal.mdts()[0].name.clone();
    let victim_names = patient_names_of(&portal, portal.mdts()[0].id);
    let (attacker, password) = experiment_credentials(&portal, class);
    let (protected_status, protected_body) = probe(&app, &attacker, &password, &victim);
    assert!(
        !leaked_any(&protected_body, &victim_names),
        "{class}: protected run leaked data: {protected_body}"
    );
    drop(app);
    drop(portal);

    // Unprotected: bug present, label check off — the leak manifests.
    let (portal, app) = study_portal(vuln, false);
    let victim = portal.mdts()[0].name.clone();
    let victim_names = patient_names_of(&portal, portal.mdts()[0].id);
    let (attacker, password) = experiment_credentials(&portal, class);
    let (unprotected_status, unprotected_body) = probe(&app, &attacker, &password, &victim);
    let unprotected_leaked = leaked_any(&unprotected_body, &victim_names);

    StudyResult {
        class,
        baseline_status,
        protected_status,
        unprotected_status,
        unprotected_leaked,
    }
}

fn run_design_error_experiment() -> StudyResult {
    // Baseline: correct aggregator; a member of MDT A reads their own
    // records — allowed, and no foreign patient appears.
    let (portal, app) = study_portal(VulnConfig::default(), true);
    let own = portal.mdts()[0].name.clone();
    let password = password_for(&own);
    let foreign_names = patient_names_of(&portal, portal.mdts()[1].id);
    let (baseline_status, baseline_body) = probe(&app, &own, &password, &own);
    assert_eq!(baseline_status, 200, "member must see own records");
    assert!(
        !leaked_any(&baseline_body, &foreign_names),
        "correct aggregator mixed records: {baseline_body}"
    );
    drop(app);
    drop(portal);

    let vuln = VulnClass::DesignError.config();

    // Protected: records now mix MDTs, so they carry both MDT labels and
    // "access is prevented because no MDT has the necessary privileges".
    let (portal, app) = study_portal(vuln, true);
    let own = portal.mdts()[0].name.clone();
    let password = password_for(&own);
    let foreign_names = patient_names_of(&portal, portal.mdts()[1].id);
    let (protected_status, protected_body) = probe(&app, &own, &password, &own);
    assert!(
        !leaked_any(&protected_body, &foreign_names),
        "protected run exposed mixed records: {protected_body}"
    );
    drop(app);
    drop(portal);

    // Unprotected: the mixed records are served, leaking foreign patients
    // into this MDT's view.
    let (portal, app) = study_portal(vuln, false);
    let own = portal.mdts()[0].name.clone();
    let password = password_for(&own);
    let foreign_names = patient_names_of(&portal, portal.mdts()[1].id);
    let (unprotected_status, unprotected_body) = probe(&app, &own, &password, &own);
    let unprotected_leaked = leaked_any(&unprotected_body, &foreign_names);

    StudyResult {
        class: VulnClass::DesignError,
        baseline_status,
        protected_status,
        unprotected_status,
        unprotected_leaked,
    }
}

/// Runs all four experiments (E6–E9).
pub fn run_security_study() -> Vec<StudyResult> {
    VulnClass::all().into_iter().map(run_experiment).collect()
}
