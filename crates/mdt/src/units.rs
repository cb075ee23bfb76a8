//! The MDT portal's three event-processing units (§5.1, Figure 4):
//!
//! * **data producer** (privileged) — reads cases from the main registry
//!   and publishes them as labelled events;
//! * **data aggregator** (jailed) — combines the events of each cancer
//!   case into records and computes MDT/regional aggregate metrics;
//! * **data storage** (privileged) — persists processed records with
//!   their labels into the application database.
//!
//! # Aggregates are published when they change
//!
//! Every case event yields one record publish. The per-MDT and regional
//! aggregates it feeds are published — and so stored, logged and
//! replicated — only when the publish would differ from that aggregate's
//! last one, in payload or in the `$LABELS` it runs under. A steady-state
//! update (a known case whose completeness does not move) is therefore one
//! event, one put and one replicated document; a registry import, where
//! every event adds a case or a field, still publishes all three.
//!
//! The skip is exact, not a heuristic. It is taken only when the folded
//! count and completeness sum equal the stored ones, the aggregate's
//! `region_id` is unchanged, *and* `$LABELS` after reading the stats key
//! is the label set that key was last written — and successfully
//! published — under (`fold_aggregate`). Reading a key folds the labels
//! it was written under into `$LABELS`, so an equal set means a write now
//! would store the same labels, and the publish would run the same
//! relabel check on the same `$LABELS` with the same payload. Stored
//! documents, their labels and every relabel-check outcome therefore
//! equal those of a pipeline that republishes on every event;
//! `tests/aggregate_skip.rs` holds the unit to that oracle.
//!
//! What an aggregate subscriber sees changes with it. Regional aggregates
//! are visible to every MDT (P1). Publishing them on every event showed
//! each member one regional event per update of *any* MDT, a count of
//! everyone's update traffic; now a member sees one per change of an
//! aggregate — its values, or the label set it is published under.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use safeweb_docstore::DocStore;
use safeweb_engine::{Jail, Relabel, UnitError, UnitSpec};
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
///
/// The joined rows are released once the last batch is published (about
/// 4.7 MiB at 10 000 cases); later ticks publish nothing.
pub fn data_producer(registry: Database, mdts: Vec<MdtInfo>, config: ProducerConfig) -> UnitSpec {
    let mut cases = read_cases(&registry, &mdts);
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
        if cursor == cases.len() {
            cases = Vec::new();
            cursor = 0;
        }
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
///
/// An event that lacks `case_id`, `mdt`, `hospital_id` or an integer
/// `region_id` is refused with [`UnitError::BadEvent`] before anything is
/// stored or published.
pub fn data_aggregator(config: AggregatorConfig) -> UnitSpec {
    UnitSpec::new("data_aggregator").subscribe(
        PATIENT_REPORT_TOPIC,
        Some("type = 'cancer'"),
        move |jail, event| {
            let case_id = required_attr(event, "case_id")?;
            let mdt = required_attr(event, "mdt")?;
            let hospital = required_attr(event, "hospital_id")?;
            let region = required_attr(event, "region_id")?;
            let region_id: i64 = region.parse().map_err(|_| {
                UnitError::BadEvent(format!("region_id {region:?} is not an integer"))
            })?;
            let is_treatment = event.attr("kind") == Some("treatment");
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
                    "case_id" => case_id,
                    "mdt_id" => mdt,
                    "hospital_id" => hospital,
                    "region_id" => region,
                },
            };
            let old_completeness = record
                .get("completeness")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            // The piece is consumed: its keys and values move into the
            // record instead of being copied.
            if let (Value::Object(piece), Some(fields)) = (piece, record.as_object_mut()) {
                for (mut key, value) in piece {
                    if is_treatment && key == "kind" {
                        key = "treatment".to_string();
                    }
                    fields.insert(key, value);
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
                .set_attrs(&[("case_id", case_id), ("mdt", mdt), ("region_id", region)])?
                .with_payload(record_json);
            jail.publish(rec_event, Relabel::keep())?;

            let change = CaseChange {
                is_new_case,
                completeness_delta: completeness - old_completeness,
            };

            // Per-MDT aggregates (keyed by MDT, carrying the MDT label via
            // the store), published relabelled for same-region
            // consumption: remove the patient-carrying MDT label
            // (declassification granted by policy to this trusted
            // component, §3.1) and add the region aggregate label.
            fold_aggregate(
                jail,
                &format!("stats/mdt/{mdt}"),
                region,
                change,
                |jail, cases, avg| {
                    let metrics = jobject! {
                        "kind" => "mdt_metrics",
                        "mdt_id" => mdt,
                        "region_id" => region,
                        "cases" => cases,
                        "avg_completeness" => avg,
                    };
                    let metrics_event = Event::new(MDT_METRICS_TOPIC)
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .set_attrs(&[("mdt", mdt), ("region_id", region)])?
                        .with_payload(metrics.to_json());
                    jail.publish(
                        metrics_event,
                        Relabel::keep()
                            .remove(mdt_label(mdt))
                            .add(region_aggregate_label(region_id)),
                    )
                },
            )?;

            // Regional aggregates: visible to every MDT (P1), so remove
            // everything and attach only the regional label.
            fold_aggregate(
                jail,
                &format!("stats/region/{region}"),
                region,
                change,
                |jail, cases, avg| {
                    let regional = jobject! {
                        "kind" => "regional_metrics",
                        "region_id" => region,
                        "cases" => cases,
                        "avg_completeness" => avg,
                    };
                    let regional_event = Event::new(REGIONAL_METRICS_TOPIC)
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .set_attrs(&[("region_id", region)])?
                        .with_payload(regional.to_json());
                    jail.publish(
                        regional_event,
                        Relabel::keep().remove_all().add(regional_label()),
                    )
                },
            )
        },
    )
}

/// How one event changed its case record, as the aggregates see it.
#[derive(Debug, Clone, Copy)]
struct CaseChange {
    is_new_case: bool,
    completeness_delta: f64,
}

/// Folds `change` into the aggregate kept under `key` in the jail's
/// labelled store, then publishes it through `publish(jail, cases,
/// avg_completeness)` and stores the folded state — unless that publish
/// would repeat the key's last one exactly (module docs), in which case
/// nothing is written or published.
///
/// Beside the running count and completeness sum, the stats value keeps
/// the `region_id` the aggregate was published for and the interned id
/// of the `$LABELS` its last *successful* publish ran under. A refused
/// publish keeps no id, so the next event retries it and is refused
/// again, as it would be if every event republished. The id is
/// process-local, which is sound because the jail's store lives in
/// memory and dies with the process.
fn fold_aggregate(
    jail: &mut Jail<'_>,
    key: &str,
    region: &str,
    change: CaseChange,
    publish: impl FnOnce(&mut Jail<'_>, i64, f64) -> Result<(), UnitError>,
) -> Result<(), UnitError> {
    let stored = jail
        .get(key)
        .map(|json| Value::parse(&json))
        .transpose()
        .map_err(|e| UnitError::Application(format!("corrupt stats under {key}: {e}")))?;
    let field = |name: &str| stored.as_ref().and_then(|s| s.get(name));
    let old_cases = field("cases").and_then(Value::as_i64).unwrap_or(0);
    let old_sum = field("completeness_sum")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    // Distinct-case accounting: new cases extend the count, updates to
    // known cases adjust the running completeness sum.
    let cases = old_cases + i64::from(change.is_new_case);
    let sum = old_sum + change.completeness_delta;
    let labels = i64::from(jail.labels().id().as_u32());
    let unchanged = cases == old_cases
        && sum == old_sum
        && field("region_id").and_then(Value::as_str) == Some(region)
        && field("published").and_then(Value::as_i64) == Some(labels);
    if unchanged {
        return Ok(());
    }
    let outcome = publish(jail, cases, (sum / cases as f64).round());
    let stats = jobject! {
        "cases" => cases,
        "completeness_sum" => sum,
        "region_id" => region,
        "published" => outcome.is_ok().then_some(labels),
    };
    jail.set(key, stats.to_json(), Relabel::keep())?;
    outcome
}

/// The attribute `name` of `event`, or [`UnitError::BadEvent`] when it is
/// missing: a placeholder would file the event under a junk document.
fn required_attr<'e>(event: &'e Event, name: &str) -> Result<&'e str, UnitError> {
    event
        .attr(name)
        .ok_or_else(|| UnitError::BadEvent(format!("missing {name}")))
}

/// Builds the data-storage unit: privileged persistence that writes
/// records and metrics — **with their labels** — into the application
/// database ("a data storage unit, which has declassification privileges
/// for all MDTs, handles data persistence", §5.1). An event missing an
/// attribute its document id is built from is refused with
/// [`UnitError::BadEvent`] and nothing is stored.
pub fn data_storage(app_db: DocStore) -> UnitSpec {
    let records_db = app_db.clone();
    let metrics_db = app_db.clone();
    let regional_db = app_db;
    UnitSpec::new("data_storage")
        .subscribe(MDT_RECORD_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            let id = format!(
                "record-{}-{}",
                required_attr(event, "mdt")?,
                required_attr(event, "case_id")?
            );
            store_event(&records_db, *jail.labels(), event, &id)
        })
        .subscribe(MDT_METRICS_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            let id = format!("metrics-{}", required_attr(event, "mdt")?);
            store_event(&metrics_db, *jail.labels(), event, &id)
        })
        .subscribe(REGIONAL_METRICS_TOPIC, None, move |jail, event| {
            let _io = jail.io()?;
            let id = format!("regional-{}", required_attr(event, "region_id")?);
            store_event(&regional_db, *jail.labels(), event, &id)
        })
}

fn store_event(db: &DocStore, labels: LabelSet, event: &Event, id: &str) -> Result<(), UnitError> {
    let body = Value::parse(event.payload().unwrap_or("{}"))
        .map_err(|e| UnitError::BadEvent(format!("bad payload: {e}")))?;
    // Upsert: fetch the current revision if the document exists.
    let rev = db.get(id).map(|d| d.rev().clone());
    db.put(id, body, labels, rev.as_ref())
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

    /// The producer publishes every case's events in registry order, in
    /// batches, and once the import is done its ticks publish nothing.
    #[test]
    fn ticks_after_the_import_publish_nothing() {
        use std::sync::Arc;

        use safeweb_core::broker::Broker;
        use safeweb_engine::Engine;
        use safeweb_labels::{Privilege, PrivilegeSet};

        let db = registry::generate(&RegistryConfig {
            patients_per_mdt: 3,
            ..RegistryConfig::default()
        });
        let mdts = registry::list_mdts(&db);
        let expected: Vec<(String, String)> = read_cases(&db, &mdts)
            .iter()
            .flat_map(|case| {
                let kinds: &[&str] = match case.treatment {
                    Some(_) => &["patient", "tumour", "treatment"],
                    None => &["patient", "tumour"],
                };
                kinds
                    .iter()
                    .map(|kind| (case.patient_id.to_string(), kind.to_string()))
            })
            .collect();
        let mut observer = PrivilegeSet::new();
        for mdt in &mdts {
            observer.grant(Privilege::clearance(mdt_label(&mdt.name)));
        }

        let broker = Broker::new();
        let policy = "unit data_producer {\n    privileged\n}\n".parse().unwrap();
        let mut engine = Engine::new(Arc::new(broker.clone()), policy);
        let config = ProducerConfig {
            interval: Duration::from_millis(2),
            batch: 4,
        };
        engine.add_unit(data_producer(db, mdts, config)).unwrap();
        let rx = broker.subscribe("observer", "1", PATIENT_REPORT_TOPIC, None, observer);
        let handle = engine.start().unwrap();
        let published: Vec<(String, String)> = (0..expected.len())
            .map(|_| {
                let delivery = rx.recv_timeout(Duration::from_secs(5)).unwrap();
                let event = delivery.event.event();
                let attr = |name| event.attr(name).unwrap().to_string();
                (attr("case_id"), attr("kind"))
            })
            .collect();
        assert_eq!(published, expected);
        // About 50 more ticks.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        assert!(handle.stop().is_empty());
    }
}
