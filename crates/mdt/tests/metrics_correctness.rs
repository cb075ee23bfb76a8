//! Functional correctness of the aggregation pipeline (F2/F3): metric
//! documents must count *distinct cases* and average completeness
//! correctly, and carry the right aggregate labels.

use std::time::Duration;

use safeweb_json::Value;
use safeweb_labels::Label;
use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::{MdtPortal, PortalConfig};

fn portal() -> MdtPortal {
    let portal = MdtPortal::build(PortalConfig {
        registry: RegistryConfig {
            regions: 1,
            hospitals_per_region: 1,
            mdts_per_hospital: 1,
            patients_per_mdt: 10,
            seed: 99,
        },
        auth_iterations: 300,
        replication_interval: Duration::from_millis(15),
        ..PortalConfig::default()
    });
    // Settled means every event reached the metrics documents too.
    portal.wait_for_pipeline(Duration::from_secs(30));
    portal
}

#[test]
fn metrics_count_distinct_cases() {
    let portal = portal();
    let mdt = &portal.mdts()[0];
    let doc = portal
        .deployment()
        .dmz_db()
        .get(&format!("metrics-{}", mdt.name))
        .expect("metrics doc exists");
    // 10 patients = 10 distinct cases, even though each case produced
    // 2–3 events (patient, tumour, optional treatment).
    assert_eq!(doc.body().get("cases").and_then(Value::as_i64), Some(10));

    let regional = portal
        .deployment()
        .dmz_db()
        .get(&format!("regional-{}", mdt.region_id))
        .expect("regional doc exists");
    assert_eq!(
        regional.body().get("cases").and_then(Value::as_i64),
        Some(10)
    );
}

#[test]
fn average_completeness_matches_records() {
    let portal = portal();
    let mdt = &portal.mdts()[0];
    let records = portal.deployment().dmz_db().scan_prefix("record-");
    assert_eq!(records.len(), 10);
    let sum: f64 = records
        .iter()
        .map(|d| {
            d.body()
                .get("completeness")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        })
        .sum();
    let expected_avg = (sum / records.len() as f64).round();

    let doc = portal
        .deployment()
        .dmz_db()
        .get(&format!("metrics-{}", mdt.name))
        .expect("metrics doc");
    let avg = doc
        .body()
        .get("avg_completeness")
        .and_then(Value::as_f64)
        .expect("avg field");
    assert_eq!(avg, expected_avg, "metric average must match the records");
    // Completeness is a percentage.
    assert!((0.0..=100.0).contains(&avg));
}

#[test]
fn aggregate_documents_carry_aggregate_labels() {
    let portal = portal();
    let mdt = &portal.mdts()[0];

    // Patient-level records carry the MDT label.
    let record = portal
        .deployment()
        .dmz_db()
        .scan_prefix("record-")
        .into_iter()
        .next()
        .expect("a record");
    assert!(record
        .labels()
        .contains(&safeweb_mdt::labels::mdt_label(&mdt.name)));

    // MDT metrics carry the per-region aggregate label — NOT the MDT
    // label (that is the relabelling step of §3.1).
    let metrics = portal
        .deployment()
        .dmz_db()
        .get(&format!("metrics-{}", mdt.name))
        .expect("metrics doc");
    assert!(metrics
        .labels()
        .contains(&safeweb_mdt::labels::region_aggregate_label(mdt.region_id)));
    assert!(!metrics
        .labels()
        .contains(&safeweb_mdt::labels::mdt_label(&mdt.name)));

    // Regional aggregates carry only the regional label.
    let regional = portal
        .deployment()
        .dmz_db()
        .get(&format!("regional-{}", mdt.region_id))
        .expect("regional doc");
    assert_eq!(
        regional.labels().to_wire(),
        safeweb_mdt::labels::regional_label().to_string()
    );
}

#[test]
fn records_contain_joined_case_fields() {
    let portal = portal();
    let records = portal.deployment().dmz_db().scan_prefix("record-");
    // Every record has the tumour join; treatments exist for ~80%.
    for doc in &records {
        assert!(doc.body().get("site").is_some(), "{:?}", doc.id());
        assert!(doc.body().get("birth_year").is_some());
        assert!(doc.body().get("completeness").is_some());
    }
    let with_treatment = records
        .iter()
        .filter(|d| d.body().get("treatment").is_some())
        .count();
    assert!(with_treatment >= 1, "some cases must have treatments");
    let _ = Label::conf("e", "x"); // silence unused import in cfg paths
}
