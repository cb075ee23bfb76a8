//! The data producer joins one batch at a time: it holds each case's
//! registry rows as shared handles and reads a case only in the tick that
//! publishes it. What it publishes must not change with that: for a
//! seeded registry its event stream equals, event for event and byte for
//! byte, the one built from a nested-scan join of the whole registry.
//! A counting allocator (`safeweb_reactor::sys::CountingAlloc`, installed
//! by this binary only) bounds what the built producer holds.

use std::sync::Arc;
use std::time::Duration;

use safeweb_core::broker::Broker;
use safeweb_engine::Engine;
use safeweb_json::jobject;
use safeweb_labels::{LabelSet, Privilege, PrivilegeSet};
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::registry::{self, MdtInfo, RegistryConfig};
use safeweb_mdt::units::{data_producer, ProducerConfig, PATIENT_REPORT_TOPIC};
use safeweb_reactor::sys::{thread_held_bytes, CountingAlloc};
use safeweb_relstore::{CellValue, Database};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What the built producer may hold at 10 000 cases. Its row handles are
/// 80 bytes a case (800 191 bytes in all); a producer that copied every
/// joined case up front held 3 572 775.
const HELD_BUDGET: i64 = 3 * 1024 * 1024 / 2;

/// One published event as a subscriber sees it: topic, attributes in
/// name order, payload text and the label set's wire form.
type Published = (String, Vec<(String, String)>, String, String);

/// The oracle: every case joined up front with two full-table scans per
/// patient (patients in key order, each with its first tumour and that
/// tumour's first treatment), then rendered as the producer's events.
fn nested_join_stream(db: &Database, mdts: &[MdtInfo]) -> Vec<Published> {
    let mut stream = Vec::new();
    for patient in db.select("patients", |_| true).unwrap() {
        let patient_id = patient.int("id").unwrap();
        let mdt_id = patient.int("mdt_id").unwrap();
        let Some(mdt) = mdts.iter().find(|m| m.id == mdt_id) else {
            continue;
        };
        let tumours = db
            .select_eq("tumours", "patient_id", &CellValue::Int(patient_id))
            .unwrap();
        let Some(tumour) = tumours.first() else {
            continue;
        };
        let tumour_id = CellValue::Int(tumour.int("id").unwrap());
        let treatment = db
            .select_eq("treatments", "tumour_id", &tumour_id)
            .unwrap()
            .first()
            .and_then(|t| t.text("kind").map(str::to_string));
        let event = |kind: &str, payload: String| -> Published {
            let mut attrs: Vec<(String, String)> = [
                ("kind", kind.to_string()),
                ("type", "cancer".to_string()),
                ("case_id", patient_id.to_string()),
                ("mdt", mdt.name.clone()),
                ("hospital_id", mdt.hospital_id.to_string()),
                ("region_id", mdt.region_id.to_string()),
                ("clinic", mdt.clinic.clone()),
            ]
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect();
            attrs.sort();
            let labels = LabelSet::singleton(mdt_label(&mdt.name)).to_wire();
            (PATIENT_REPORT_TOPIC.to_string(), attrs, payload, labels)
        };
        let name = patient.text("name").map(str::to_string);
        let birth_year = patient.int("birth_year").unwrap();
        stream.push(event(
            "patient",
            jobject! { "name" => name, "birth_year" => birth_year }.to_json(),
        ));
        let stage = tumour.text("stage").map(str::to_string);
        stream.push(event(
            "tumour",
            jobject! {
                "site" => tumour.text("site").unwrap(),
                "stage" => stage,
                "diagnosed" => tumour.int("diagnosed").unwrap(),
            }
            .to_json(),
        ));
        if let Some(kind) = treatment {
            stream.push(event(
                "treatment",
                jobject! { "kind" => kind.as_str() }.to_json(),
            ));
        }
    }
    stream
}

/// Runs the producer alone on an engine and collects what it publishes.
fn produced_stream(db: Database, mdts: Vec<MdtInfo>, expected: usize) -> Vec<Published> {
    let mut observer = PrivilegeSet::new();
    for mdt in &mdts {
        observer.grant(Privilege::clearance(mdt_label(&mdt.name)));
    }
    let broker = Broker::new();
    let policy = "unit data_producer {\n    privileged\n}\n".parse().unwrap();
    let mut engine = Engine::new(Arc::new(broker.clone()), policy);
    let config = ProducerConfig {
        interval: Duration::from_millis(1),
        batch: 7,
    };
    engine.add_unit(data_producer(db, mdts, config)).unwrap();
    let rx = broker.subscribe("observer", "1", PATIENT_REPORT_TOPIC, None, observer);
    let handle = engine.start().unwrap();
    let stream = (0..expected)
        .map(|_| {
            let delivery = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let event = delivery.event.event();
            let attrs = event
                .attributes()
                .map(|(name, value)| (name.to_string(), value.to_string()))
                .collect();
            (
                event.topic().to_string(),
                attrs,
                event.payload().unwrap_or_default().to_string(),
                delivery.event.labels().to_wire(),
            )
        })
        .collect();
    // The import is over: later ticks publish nothing.
    assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    assert!(handle.stop().is_empty());
    stream
}

#[test]
fn the_producer_publishes_the_eager_joins_event_stream() {
    let configs = [
        RegistryConfig {
            patients_per_mdt: 3,
            ..RegistryConfig::default()
        },
        RegistryConfig {
            regions: 2,
            hospitals_per_region: 3,
            mdts_per_hospital: 4,
            patients_per_mdt: 5,
            seed: 99,
        },
    ];
    for config in configs {
        let db = registry::generate(&config);
        let mdts = registry::list_mdts(&db);
        let expected = nested_join_stream(&db, &mdts);
        assert!(expected.iter().any(|e| e.2.contains("\"kind\"")));
        let produced = produced_stream(db, mdts, expected.len());
        assert_eq!(produced, expected, "seed {}", config.seed);
    }
}

/// The benchmark's registry: 100 MDTs of 100 patients each.
#[test]
fn the_built_producer_holds_row_handles_not_joined_cases() {
    let db = registry::generate(&RegistryConfig {
        regions: 1,
        hospitals_per_region: 1,
        mdts_per_hospital: 100,
        patients_per_mdt: 100,
        seed: 1,
    });
    assert_eq!(db.count("patients").unwrap(), 10_000);
    let mdts = registry::list_mdts(&db);
    let (db_handle, mdts_copy) = (db.clone(), mdts.clone());

    let before = thread_held_bytes();
    let producer = data_producer(db_handle, mdts_copy, ProducerConfig::default());
    let held = thread_held_bytes() - before;
    assert!(
        held <= HELD_BUDGET,
        "the built producer holds {held} bytes at 10 000 cases (budget {HELD_BUDGET})"
    );
    drop(producer);
    drop((db, mdts));
}
