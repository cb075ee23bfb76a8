//! The MDT portal's three event-processing units (§5.1, Figure 4):
//!
//! * **data producer** (privileged) — reads cases from the main registry
//!   and publishes them as labelled events;
//! * **data aggregator** (jailed) — combines the events of each cancer
//!   case into records and computes MDT/regional aggregate metrics;
//! * **data storage** (privileged) — persists processed records with
//!   their labels into the application database.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use safeweb_docstore::DocStore;
use safeweb_engine::{Relabel, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_json::{jobject, Value};
use safeweb_labels::LabelSet;
use safeweb_relstore::{Database, Row};

use crate::labels::{mdt_label, region_aggregate_label, regional_label};
use crate::registry::MdtInfo;

/// Topic carrying raw per-case events from the producer.
pub const PATIENT_REPORT_TOPIC: &str = "/patient_report";
/// Topic carrying aggregated per-case records.
pub const MDT_RECORD_TOPIC: &str = "/mdt_record";
/// Topic carrying per-MDT aggregate metrics.
pub const MDT_METRICS_TOPIC: &str = "/mdt_metrics";
/// Topic carrying regional aggregate metrics.
pub const REGIONAL_METRICS_TOPIC: &str = "/regional_metrics";

/// Tuning for the producer unit.
#[derive(Debug, Clone, Copy)]
pub struct ProducerConfig {
    /// How often the producer polls the registry.
    pub interval: Duration,
    /// Cases published per tick.
    pub batch: usize,
}

impl Default for ProducerConfig {
    fn default() -> ProducerConfig {
        ProducerConfig {
            interval: Duration::from_millis(25),
            batch: 50,
        }
    }
}

/// One joined case row read from the registry.
#[derive(Debug, Clone, PartialEq)]
struct CaseRow {
    patient_id: i64,
    patient_name: Option<String>,
    birth_year: i64,
    mdt: MdtInfo,
    site: String,
    stage: Option<String>,
    diagnosed: i64,
    treatment: Option<String>,
}

/// The first row of `table` (in primary-key order) per value of the
/// integer column `key`.
fn first_by(registry: &Database, table: &str, key: &str) -> HashMap<i64, Row> {
    let mut first = HashMap::new();
    for row in registry.select(table, |_| true).expect("registry table") {
        if let Some(k) = row.int(key) {
            first.entry(k).or_insert(row);
        }
    }
    first
}

/// Joins patients → their first tumour → that tumour's first treatment,
/// reading each table once: `O(patients + tumours + treatments)`.
/// Patients of an unknown MDT or without a tumour are skipped.
fn read_cases(registry: &Database, mdts: &[MdtInfo]) -> Vec<CaseRow> {
    let by_id: BTreeMap<i64, &MdtInfo> = mdts.iter().map(|m| (m.id, m)).collect();
    let tumours = first_by(registry, "tumours", "patient_id");
    let treatments = first_by(registry, "treatments", "tumour_id");
    let mut cases = Vec::new();
    for patient in registry
        .select("patients", |_| true)
        .expect("patients table")
    {
        let patient_id = patient.int("id").expect("id");
        let mdt_id = patient.int("mdt_id").expect("mdt_id");
        let Some(mdt) = by_id.get(&mdt_id) else {
            continue;
        };
        let Some(tumour) = tumours.get(&patient_id) else {
            continue;
        };
        let tumour_id = tumour.int("id").expect("id");
        let treatment = treatments
            .get(&tumour_id)
            .and_then(|t| t.text("kind").map(str::to_string));
        cases.push(CaseRow {
            patient_id,
            patient_name: patient.text("name").map(str::to_string),
            birth_year: patient.int("birth_year").expect("birth_year"),
            mdt: (*mdt).clone(),
            site: tumour.text("site").expect("site").to_string(),
            stage: tumour.text("stage").map(str::to_string),
            diagnosed: tumour.int("diagnosed").expect("diagnosed"),
            treatment,
        });
    }
    cases
}

/// Builds the data-producer unit: a privileged source that walks the
/// registry in batches and publishes three events per case (patient,
/// tumour, treatment), each labelled with the treating MDT's label.
///
/// "For the sake of simplicity, we use only MDT-level labels as these are
/// sufficient to satisfy our security requirements" (§5.1).
pub fn data_producer(registry: Database, mdts: Vec<MdtInfo>, config: ProducerConfig) -> UnitSpec {
    let cases = read_cases(&registry, &mdts);
    let mut cursor = 0usize;
    UnitSpec::new("data_producer").every(config.interval, move |jail| {
        // Privileged: reading the registry is I/O outside the jail.
        let _io = jail.io()?;
        let end = (cursor + config.batch).min(cases.len());
        for case in &cases[cursor..end] {
            let label = mdt_label(&case.mdt.name);
            let base = |kind: &str| -> Result<Event, UnitError> {
                Event::new(PATIENT_REPORT_TOPIC)
                    .map_err(|e| UnitError::BadEvent(e.to_string()))?
                    .set_attrs(&[
                        ("kind", kind),
                        ("type", "cancer"),
                        ("case_id", &case.patient_id.to_string()),
                        ("mdt", &case.mdt.name),
                        ("hospital_id", &case.mdt.hospital_id.to_string()),
                        ("region_id", &case.mdt.region_id.to_string()),
                        ("clinic", &case.mdt.clinic),
                    ])
            };
            let patient_payload = jobject! {
                "name" => case.patient_name.clone(),
                "birth_year" => case.birth_year,
            };
            jail.publish(
                base("patient")?.with_payload(patient_payload.to_json()),
                Relabel::keep().add(label.clone()),
            )?;
            let tumour_payload = jobject! {
                "site" => case.site.as_str(),
                "stage" => case.stage.clone(),
                "diagnosed" => case.diagnosed,
            };
            jail.publish(
                base("tumour")?.with_payload(tumour_payload.to_json()),
                Relabel::keep().add(label.clone()),
            )?;
            if let Some(kind) = &case.treatment {
                let treatment_payload = jobject! { "kind" => kind.as_str() };
                jail.publish(
                    base("treatment")?.with_payload(treatment_payload.to_json()),
                    Relabel::keep().add(label),
                )?;
            }
        }
        cursor = end;
        Ok(())
    })
}

/// Fault injection for the aggregator (§5.2 "design errors"): when `true`
/// the aggregator keys its case state **ignoring the originating MDT**, so
/// cases from different MDTs collide and merged records mix data — and
/// labels — of multiple MDTs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggregatorConfig {
    /// Inject the E9 design error.
    pub mix_hospitals: bool,
}

/// Fields a complete record should carry; used for the completeness
/// metric (F2).
const RECORD_FIELDS: &[&str] = &[
    "name",
    "birth_year",
    "site",
    "stage",
    "diagnosed",
    "treatment",
];

/// Builds the data-aggregator unit: jailed application logic that combines
/// per-case events and maintains aggregate metrics. It never performs I/O;
/// everything goes through the jail's key-value store and publish.
pub fn data_aggregator(config: AggregatorConfig) -> UnitSpec {
    UnitSpec::new("data_aggregator").subscribe(
        PATIENT_REPORT_TOPIC,
        Some("type = 'cancer'"),
        move |jail, event| {
            let case_id = event
                .attr("case_id")
                .ok_or_else(|| UnitError::BadEvent("missing case_id".to_string()))?
                .to_string();
            let mdt = event.attr("mdt").unwrap_or("?").to_string();
            let hospital = event.attr("hospital_id").unwrap_or("?").to_string();
            let region = event.attr("region_id").unwrap_or("?").to_string();
            let kind = event.attr("kind").unwrap_or("?").to_string();
            let payload = event.payload().unwrap_or("{}");
            let piece = Value::parse(payload)
                .map_err(|e| UnitError::BadEvent(format!("bad payload: {e}")))?;

            // E9 injection point: the correct key includes the MDT of
            // origin; the buggy key collides across MDTs.
            let case_key = if config.mix_hospitals {
                let short: u64 = case_id.parse::<u64>().unwrap_or(0) % 7;
                format!("case/{short}")
            } else {
                format!("case/{mdt}/{case_id}")
            };

            // Fold this piece into the stored case (reading taints
            // $LABELS with everything previously folded in).
            let existing = jail.get(&case_key);
            let is_new_case = existing.is_none();
            let mut record = match existing {
                Some(json) => Value::parse(&json)
                    .map_err(|e| UnitError::Application(format!("corrupt case state: {e}")))?,
                None => jobject! {
                    "case_id" => case_id.as_str(),
                    "mdt_id" => mdt.as_str(),
                    "hospital_id" => hospital.as_str(),
                    "region_id" => region.as_str(),
                },
            };
            let old_completeness = record
                .get("completeness")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            if let Some(obj) = piece.as_object() {
                for (k, v) in obj {
                    if kind == "treatment" && k == "kind" {
                        record.set("treatment", v.clone());
                    } else {
                        record.set(k, v.clone());
                    }
                }
            }
            let filled = RECORD_FIELDS
                .iter()
                .filter(|f| record.get(f).is_some_and(|v| !v.is_null()))
                .count();
            let completeness = (filled as f64 / RECORD_FIELDS.len() as f64 * 100.0).round();
            record.set("completeness", completeness);
            let record_json = record.to_json();
            jail.set(&case_key, record_json.clone(), Relabel::keep())?;

            // Publish the (updated) aggregated record.
            let rec_event = Event::new(MDT_RECORD_TOPIC)
                .map_err(|e| UnitError::BadEvent(e.to_string()))?
                .set_attrs(&[("case_id", &case_id), ("mdt", &mdt), ("region_id", &region)])?
                .with_payload(record_json);
            jail.publish(rec_event, Relabel::keep())?;

            // Update per-MDT aggregates (keyed by MDT, carrying the MDT
            // label via the store) and republish metrics relabelled for
            // same-region consumption: remove the patient-carrying MDT
            // label (declassification granted by policy to this trusted
            // component, §3.1) and add the region aggregate label.
            let stats_key = format!("stats/mdt/{mdt}");
            let mut stats = match jail.get(&stats_key) {
                Some(json) => Value::parse(&json)
                    .map_err(|e| UnitError::Application(format!("corrupt stats: {e}")))?,
                None => jobject! {"cases" => 0, "completeness_sum" => 0.0},
            };
            // Distinct-case accounting: new cases extend the count, updates
            // to known cases adjust the running completeness sum.
            let cases = stats.get("cases").and_then(Value::as_i64).unwrap_or(0)
                + if is_new_case { 1 } else { 0 };
            let sum = stats
                .get("completeness_sum")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                + completeness
                - old_completeness;
            stats.set("cases", cases);
            stats.set("completeness_sum", sum);
            jail.set(&stats_key, stats.to_json(), Relabel::keep())?;

            let avg = (sum / cases as f64).round();
            let metrics = jobject! {
                "kind" => "mdt_metrics",
                "mdt_id" => mdt.as_str(),
                "region_id" => region.as_str(),
                "cases" => cases,
                "avg_completeness" => avg,
            };
            let region_id: i64 = region.parse().unwrap_or(-1);
            let metrics_event = Event::new(MDT_METRICS_TOPIC)
                .map_err(|e| UnitError::BadEvent(e.to_string()))?
                .set_attrs(&[("mdt", &mdt), ("region_id", &region)])?
                .with_payload(metrics.to_json());
            jail.publish(
                metrics_event,
                Relabel::keep()
                    .remove(mdt_label(&mdt))
                    .add(region_aggregate_label(region_id)),
            )?;

            // Regional aggregates: visible to every MDT (P1), so remove
            // everything and attach only the regional label.
            let region_key = format!("stats/region/{region}");
            let mut rstats = match jail.get(&region_key) {
                Some(json) => Value::parse(&json)
                    .map_err(|e| UnitError::Application(format!("corrupt region stats: {e}")))?,
                None => jobject! {"cases" => 0, "completeness_sum" => 0.0},
            };
            let rcases = rstats.get("cases").and_then(Value::as_i64).unwrap_or(0)
                + if is_new_case { 1 } else { 0 };
            let rsum = rstats
                .get("completeness_sum")
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
                + completeness
                - old_completeness;
            rstats.set("cases", rcases);
            rstats.set("completeness_sum", rsum);
            jail.set(&region_key, rstats.to_json(), Relabel::keep())?;

            let regional = jobject! {
                "kind" => "regional_metrics",
                "region_id" => region.as_str(),
                "cases" => rcases,
                "avg_completeness" => (rsum / rcases as f64).round(),
            };
            let regional_event = Event::new(REGIONAL_METRICS_TOPIC)
                .map_err(|e| UnitError::BadEvent(e.to_string()))?
                .set_attrs(&[("region_id", &region)])?
                .with_payload(regional.to_json());
            jail.publish(
                regional_event,
                Relabel::keep().remove_all().add(regional_label()),
            )?;
            Ok(())
        },
    )
}

/// Builds the data-storage unit: privileged persistence that writes
/// records and metrics — **with their labels** — into the application
/// database ("a data storage unit, which has declassification privileges
/// for all MDTs, handles data persistence", §5.1).
pub fn data_storage(app_db: DocStore) -> UnitSpec {
    let records_db = app_db.clone();
    let metrics_db = app_db.clone();
    let regional_db = app_db;
    UnitSpec::new("data_storage")
        .subscribe(MDT_RECORD_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            store_event(&records_db, *jail.labels(), event, |e| {
                format!(
                    "record-{}-{}",
                    e.attr("mdt").unwrap_or("x"),
                    e.attr("case_id").unwrap_or("0")
                )
            })
        })
        .subscribe(MDT_METRICS_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            store_event(&metrics_db, *jail.labels(), event, |e| {
                format!("metrics-{}", e.attr("mdt").unwrap_or("x"))
            })
        })
        .subscribe(REGIONAL_METRICS_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            store_event(&regional_db, *jail.labels(), event, |e| {
                format!("regional-{}", e.attr("region_id").unwrap_or("x"))
            })
        })
}

fn store_event(
    db: &DocStore,
    labels: LabelSet,
    event: &Event,
    id_of: impl Fn(&Event) -> String,
) -> Result<(), UnitError> {
    let body = Value::parse(event.payload().unwrap_or("{}"))
        .map_err(|e| UnitError::BadEvent(format!("bad payload: {e}")))?;
    let id = id_of(event);
    // Upsert: fetch the current revision if the document exists.
    let rev = db.get(&id).map(|d| d.rev().clone());
    db.put(&id, body, labels, rev.as_ref())
        .map_err(|e| UnitError::Application(format!("store failed: {e}")))?;
    Ok(())
}

/// Convenience extension used by the units above.
trait EventExt: Sized {
    fn set_attrs(self, attrs: &[(&str, &str)]) -> Result<Self, UnitError>;
}

impl EventExt for Event {
    fn set_attrs(mut self, attrs: &[(&str, &str)]) -> Result<Event, UnitError> {
        for (k, v) in attrs {
            self.set_attr(k, v)
                .map_err(|e| UnitError::BadEvent(e.to_string()))?;
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, RegistryConfig};
    use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Schema};

    /// The oracle: the nested-scan join `read_cases` replaced, two
    /// full-table `select_eq` scans per patient.
    fn read_cases_nested(registry: &Database, mdts: &[MdtInfo]) -> Vec<CaseRow> {
        let by_id: BTreeMap<i64, &MdtInfo> = mdts.iter().map(|m| (m.id, m)).collect();
        let mut cases = Vec::new();
        for patient in registry
            .select("patients", |_| true)
            .expect("patients table")
        {
            let patient_id = patient.int("id").expect("id");
            let mdt_id = patient.int("mdt_id").expect("mdt_id");
            let Some(mdt) = by_id.get(&mdt_id) else {
                continue;
            };
            let tumours = registry
                .select_eq("tumours", "patient_id", &CellValue::Int(patient_id))
                .expect("tumours table");
            let Some(tumour) = tumours.first() else {
                continue;
            };
            let tumour_id = tumour.int("id").expect("id");
            let treatment = registry
                .select_eq("treatments", "tumour_id", &CellValue::Int(tumour_id))
                .expect("treatments table")
                .first()
                .and_then(|t| t.text("kind").map(str::to_string));
            cases.push(CaseRow {
                patient_id,
                patient_name: patient.text("name").map(str::to_string),
                birth_year: patient.int("birth_year").expect("birth_year"),
                mdt: (*mdt).clone(),
                site: tumour.text("site").expect("site").to_string(),
                stage: tumour.text("stage").map(str::to_string),
                diagnosed: tumour.int("diagnosed").expect("diagnosed"),
                treatment,
            });
        }
        cases
    }

    fn assert_joins_agree(db: &Database, mdts: &[MdtInfo]) -> Vec<CaseRow> {
        let linear = read_cases(db, mdts);
        assert_eq!(linear, read_cases_nested(db, mdts));
        linear
    }

    #[test]
    fn linear_join_matches_nested_scans_on_generated_registries() {
        let benchmark_registry = RegistryConfig {
            regions: 1,
            hospitals_per_region: 1,
            mdts_per_hospital: 100,
            patients_per_mdt: 100,
            seed: 1,
        };
        let configs = [
            RegistryConfig::default(),
            RegistryConfig {
                seed: 7,
                ..RegistryConfig::default()
            },
            RegistryConfig::with_tenants(40, 3, 99),
            benchmark_registry,
        ];
        for config in configs {
            let db = registry::generate(&config);
            let mdts = registry::list_mdts(&db);
            let cases = assert_joins_agree(&db, &mdts);
            assert_eq!(cases.len(), db.count("patients").unwrap());
        }
    }

    #[test]
    fn linear_join_matches_nested_scans_on_edge_cases() {
        let db = Database::new("edge");
        let table = |name: &str, columns: Vec<ColumnDef>| {
            db.create_table(name, Schema::new(columns, "id")).unwrap();
        };
        table(
            "patients",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::nullable("name", ColumnType::Text),
                ColumnDef::new("birth_year", ColumnType::Int),
                ColumnDef::new("mdt_id", ColumnType::Int),
            ],
        );
        table(
            "tumours",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("patient_id", ColumnType::Int),
                ColumnDef::new("site", ColumnType::Text),
                ColumnDef::nullable("stage", ColumnType::Text),
                ColumnDef::new("diagnosed", ColumnType::Int),
            ],
        );
        table(
            "treatments",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("tumour_id", ColumnType::Int),
                ColumnDef::new("kind", ColumnType::Text),
            ],
        );
        let patient = |id: i64, name: Option<&str>, mdt_id: i64| {
            let name = name.map_or(CellValue::Null, CellValue::from);
            db.insert(
                "patients",
                vec![id.into(), name, (1950 + id).into(), mdt_id.into()],
            )
            .unwrap();
        };
        let tumour = |id: i64, patient_id: i64, site: &str, stage: Option<&str>| {
            let stage = stage.map_or(CellValue::Null, CellValue::from);
            db.insert(
                "tumours",
                vec![
                    id.into(),
                    patient_id.into(),
                    site.into(),
                    stage,
                    (2000 + id).into(),
                ],
            )
            .unwrap();
        };
        let treatment = |id: i64, tumour_id: i64, kind: &str| {
            db.insert("treatments", vec![id.into(), tumour_id.into(), kind.into()])
                .unwrap();
        };
        // Inserted out of key order: "first" means first by primary key.
        patient(1, Some("two tumours"), 1);
        patient(2, None, 2);
        patient(3, Some("no tumour"), 1);
        patient(4, Some("unknown mdt"), 9);
        patient(5, Some("untreated"), 2);
        tumour(20, 1, "lung", Some("II"));
        tumour(10, 1, "breast", Some("I"));
        tumour(30, 2, "ovary", None);
        tumour(40, 4, "skin", Some("III"));
        tumour(50, 5, "lymph", Some("IV"));
        treatment(200, 10, "chemotherapy");
        treatment(100, 10, "surgery");
        treatment(300, 20, "hormone");
        treatment(400, 30, "watchful");
        treatment(500, 30, "radiotherapy");
        let mdts: Vec<MdtInfo> = (1..=2)
            .map(|id| MdtInfo {
                id,
                name: format!("mdt-{id}"),
                hospital_id: 1,
                region_id: 0,
                clinic: "any".to_string(),
            })
            .collect();

        let cases = assert_joins_agree(&db, &mdts);
        let summary: Vec<_> = cases
            .iter()
            .map(|c| {
                (
                    c.patient_id,
                    c.patient_name.as_deref(),
                    c.site.as_str(),
                    c.stage.as_deref(),
                    c.treatment.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            summary,
            [
                (1, Some("two tumours"), "breast", Some("I"), Some("surgery")),
                (2, None, "ovary", None, Some("watchful")),
                (5, Some("untreated"), "lymph", Some("IV"), None),
            ]
        );
    }
}
