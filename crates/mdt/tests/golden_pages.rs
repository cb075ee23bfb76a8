//! Golden bytes of the portal's four rendered routes.
//!
//! The files under `tests/golden/` were captured from the renderer as it
//! stood before the render path was rebuilt to borrow from shared
//! documents; the pages must stay byte-identical. The registry is small
//! and seeded, and two hand-made documents add what the generator never
//! produces: HTML metacharacters in a name, a non-integral float, and a
//! missing field.
//!
//! After a deliberate template change, regenerate with
//! `SAFEWEB_BLESS_GOLDEN=1 cargo test -p safeweb-mdt --test golden_pages`
//! and review the diff.

use std::path::PathBuf;
use std::time::Duration;

use safeweb_http::{Method, Request};
use safeweb_json::jobject;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::{password_for, MdtPortal, PortalConfig, VulnConfig};

fn golden_portal() -> MdtPortal {
    let portal = MdtPortal::build(PortalConfig {
        registry: RegistryConfig {
            regions: 1,
            hospitals_per_region: 1,
            mdts_per_hospital: 2,
            patients_per_mdt: 6,
            seed: 2011,
        },
        auth_iterations: 300,
        replication_interval: Duration::from_millis(10),
        ..PortalConfig::default()
    });
    // Quiescence, not just "a record per patient": the pages below show
    // the state after the last tumour and treatment event was folded in.
    portal.wait_for_pipeline(Duration::from_secs(30));
    let dmz = portal.deployment().dmz_db().clone();

    let a = portal.mdts()[0].name.clone();
    let app_db = portal.deployment().app_db();
    let record_labels = *dmz.scan_prefix(&format!("record-{a}-"))[0].labels();
    let metrics_labels = *dmz.get(&format!("metrics-{a}")).expect("metrics").labels();
    app_db
        .put(
            &format!("record-{a}-zz-golden"),
            jobject! {
                "case_id" => "zz-golden",
                "mdt_id" => a.as_str(),
                "hospital_id" => "1",
                "region_id" => "0",
                "name" => "O'Brien <b>&\"Q\"",
                "birth_year" => 1951,
                "site" => "lung",
                "treatment" => "surgery",
                "completeness" => 87.5,
            },
            record_labels,
            None,
        )
        .expect("crafted record");
    app_db
        .put(
            "metrics-zz-golden",
            jobject! {
                "kind" => "mdt_metrics",
                "mdt_id" => "<x&y>",
                "region_id" => "0",
                "avg_completeness" => 66.25,
            },
            metrics_labels,
            None,
        )
        .expect("crafted metrics");
    let replicated = dmz.wait_until(Duration::from_secs(30), |db| {
        db.get(&format!("record-{a}-zz-golden")).is_some() && db.get("metrics-zz-golden").is_some()
    });
    assert!(
        replicated,
        "timed out waiting for the crafted documents to replicate"
    );
    portal
}

fn check(name: &str, body: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("SAFEWEB_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, body).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(body, golden, "{name} no longer matches its golden bytes");
}

#[test]
fn rendered_pages_match_their_golden_bytes() {
    let portal = golden_portal();
    let app = portal.frontend(&VulnConfig::default());
    let a = portal.mdts()[0].name.clone();
    let get = |path: &str| {
        let resp =
            app.handle(&Request::new(Method::Get, path).with_basic_auth(&a, &password_for(&a)));
        assert_eq!(resp.status(), 200, "{path}");
        resp.body_str().expect("utf-8 body").to_string()
    };
    let front = get(&format!("/mdt/{a}"));
    // The crafted row is there, escaped, with its float and its gap.
    assert!(front.contains("O&#39;Brien &lt;b&gt;&amp;&quot;Q&quot;"));
    assert!(front.contains("<td>87.5</td>"));
    assert!(front.contains("<td>—</td>"));
    check("front_page.html", &front);
    check("compare.html", &get(&format!("/compare/{a}")));
    check("records.json", &get(&format!("/records/{a}")));
    check("regional.json", &get("/aggregates/regional"));
}
