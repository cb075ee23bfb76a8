//! The aggregator publishes an MDT or regional aggregate only when it
//! changes (`units` module docs). That skip must be exact: over random
//! event streams the application store — every document id, body and
//! label set — and the engine's violation list must equal what the
//! republish-always aggregator ([`oracle_aggregator`] below, the unit's
//! body before the skip) produces. Only the number of aggregate puts may
//! differ, and it may only shrink.
//!
//! Streams mix new cases, completeness changes and verbatim repeats over
//! three MDTs in two regions, with events that also carry a second MDT
//! label (which the aggregator may declassify), a label outside every
//! MDT (which it may not, so regional publishes start failing), an
//! integrity label, an occasional foreign `region_id`, and the E9
//! case-key collisions.
//!
//! Mutation checks (each must make `skip_matches_republish_always_oracle`
//! fail): a skip that ignores `$LABELS`, and one that tests completeness
//! alone.

use std::sync::mpsc;
use std::time::Duration;

use safeweb_core::{SafeWebBuilder, SafeWebDeployment};
use safeweb_engine::{EngineOptions, Relabel, SchedulerOptions, UnitError, UnitSpec};
use safeweb_events::{Event, LabelledEvent};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet, Policy};
use safeweb_mdt::labels::{mdt_label, region_aggregate_label, regional_label, AUTHORITY};
use safeweb_mdt::units::{
    data_aggregator, data_storage, AggregatorConfig, MDT_METRICS_TOPIC, MDT_RECORD_TOPIC,
    PATIENT_REPORT_TOPIC, REGIONAL_METRICS_TOPIC,
};

/// Random streams checked against the oracle.
const STREAMS: u64 = 64;

/// The aggregator may see everything of the application but declassify
/// only MDT labels, so a label outside `mdt/*` reaches it and cannot be
/// removed again.
fn policy() -> Policy {
    "unit data_aggregator {\n    clearance label:conf:ecric.org.uk/*\n    declassify label:conf:ecric.org.uk/mdt/*\n}\n\
     unit data_storage {\n    privileged\n    clearance label:conf:ecric.org.uk/*\n}\n"
        .parse()
        .expect("test policy parses")
}

fn deploy(aggregator: UnitSpec) -> SafeWebDeployment {
    SafeWebBuilder::new()
        .policy(policy())
        .unit(aggregator)
        .unit_with_app_db(data_storage)
        .build()
        .expect("deployment starts")
}

/// One `/patient_report` event of a stream.
#[derive(Debug, Clone)]
struct Report {
    mdt: &'static str,
    region: &'static str,
    case_id: u64,
    kind: &'static str,
    payload: String,
    labels: Vec<Label>,
}

impl Report {
    fn event(&self) -> LabelledEvent {
        let mut event = Event::new(PATIENT_REPORT_TOPIC).expect("valid topic");
        let case_id = self.case_id.to_string();
        for (k, v) in [
            ("kind", self.kind),
            ("type", "cancer"),
            ("case_id", &case_id),
            ("mdt", self.mdt),
            ("hospital_id", "1"),
            ("region_id", self.region),
        ] {
            event.set_attr(k, v).expect("valid attribute");
        }
        event
            .with_payload(self.payload.clone())
            .with_labels(self.labels.iter().cloned())
    }
}

/// SplitMix64: a small seeded generator, so a failing stream is named by
/// its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const MDTS: [(&str, &str); 3] = [("m0", "0"), ("m1", "0"), ("m2", "1")];

fn stream(rng: &mut Rng) -> Vec<Report> {
    let len = 20 + rng.below(40) as usize;
    let mut reports: Vec<Report> = Vec::with_capacity(len);
    while reports.len() < len {
        // Verbatim repeats: the steady state the skip is for.
        if let Some(last) = reports.last() {
            if rng.chance(30) {
                reports.push(last.clone());
                continue;
            }
        }
        let (mdt, home) = rng.pick(&MDTS);
        let region = if rng.chance(4) {
            if home == "0" {
                "1"
            } else {
                "0"
            }
        } else {
            home
        };
        let kind = rng.pick(&["patient", "tumour", "treatment"]);
        let payload = match kind {
            "patient" => format!(
                "{{\"name\":{},\"birth_year\":{}}}",
                rng.pick(&["\"ada\"", "\"bo\"", "null"]),
                rng.pick(&[1950, 1961])
            ),
            "tumour" => format!(
                "{{\"site\":\"{}\",\"stage\":{},\"diagnosed\":{}}}",
                rng.pick(&["lung", "skin"]),
                rng.pick(&["\"I\"", "\"II\"", "null"]),
                rng.pick(&[2001, 2002])
            ),
            _ => format!("{{\"kind\":\"{}\"}}", rng.pick(&["surgery", "chemo"])),
        };
        let mut labels = vec![mdt_label(mdt)];
        if rng.chance(6) {
            labels.push(mdt_label("visiting"));
        }
        if rng.chance(3) {
            labels.push(Label::conf(AUTHORITY, "trial/7"));
        }
        if rng.chance(6) {
            labels.push(Label::int(AUTHORITY, "mdt"));
        }
        reports.push(Report {
            mdt,
            region,
            case_id: 1 + rng.below(4),
            kind,
            payload,
            labels,
        });
    }
    reports
}

/// Publishes sentinel case `4 + n` of an MDT and region no stream uses
/// (a case id no stream's E9 key collides with), then waits until its
/// record, MDT metrics and regional documents are all in the store.
/// Each topic reaches the storage unit in publish order, so every earlier
/// put has landed too. A second round also orders every earlier
/// aggregator activation — and the violations it records after flushing
/// its events — before the return.
fn settle(deployment: &SafeWebDeployment, n: i64) {
    deployment.broker().publish(
        &Report {
            mdt: "sentinel",
            region: "99",
            case_id: 4 + n as u64,
            kind: "patient",
            payload: "{\"name\":\"s\"}".to_string(),
            labels: vec![mdt_label("sentinel")],
        }
        .event(),
    );
    let counted = |db: &safeweb_docstore::DocStore, id: &str| {
        db.get(id)
            .and_then(|d| d.body().get("cases").and_then(Value::as_i64))
            == Some(n)
    };
    let landed = deployment
        .app_db()
        .wait_until(Duration::from_secs(30), |db| {
            db.get(&format!("record-sentinel-{}", 4 + n)).is_some()
                && counted(db, "metrics-sentinel")
                && counted(db, "regional-99")
        });
    assert!(landed, "sentinel {n} never reached the store");
}

/// What a run leaves behind: every application document as (id, body,
/// labels), the violation list, and how many aggregate puts it took.
#[derive(Debug)]
struct Outcome {
    docs: Vec<(String, String, LabelSet)>,
    violations: Vec<safeweb_engine::Violation>,
    aggregate_puts: u64,
}

fn run(aggregator: UnitSpec, reports: &[Report]) -> Outcome {
    let deployment = deploy(aggregator);
    for report in reports {
        deployment.broker().publish(&report.event());
    }
    settle(&deployment, 1);
    settle(&deployment, 2);
    let all = deployment.app_db().scan_prefix("");
    let aggregate_puts = all
        .iter()
        .filter(|d| d.id().starts_with("metrics-") || d.id().starts_with("regional-"))
        .map(|d| d.rev().generation())
        .sum();
    Outcome {
        docs: all
            .iter()
            .map(|d| (d.id().to_string(), d.body().to_json(), *d.labels()))
            .collect(),
        violations: deployment.engine_violations(),
        aggregate_puts,
    }
}

#[test]
fn skip_matches_republish_always_oracle() {
    let (mut skipped, mut refused) = (0, 0);
    for seed in 0..STREAMS {
        let mut rng = Rng(seed);
        let config = AggregatorConfig {
            mix_hospitals: rng.chance(25),
        };
        let reports = stream(&mut rng);
        let expected = run(oracle_aggregator(config), &reports);
        let actual = run(data_aggregator(config), &reports);
        assert_eq!(
            actual.docs, expected.docs,
            "stream {seed}: stored documents differ"
        );
        assert_eq!(
            actual.violations, expected.violations,
            "stream {seed}: violations differ"
        );
        assert!(
            actual.aggregate_puts <= expected.aggregate_puts,
            "stream {seed}: {} aggregate puts, republishing takes {}",
            actual.aggregate_puts,
            expected.aggregate_puts
        );
        skipped += expected.aggregate_puts - actual.aggregate_puts;
        refused += expected.violations.len();
    }
    assert!(skipped > 0, "no stream exercised the skip");
    assert!(
        refused > 0,
        "no stream exercised a refused regional publish"
    );
}

#[test]
fn unchanged_updates_do_no_aggregate_put() {
    let deployment = deploy(data_aggregator(AggregatorConfig::default()));
    let report = |kind: &'static str, payload: &str| Report {
        mdt: "m0",
        region: "0",
        case_id: 1,
        kind,
        payload: payload.to_string(),
        labels: vec![mdt_label("m0")],
    };
    let tumour = report(
        "tumour",
        "{\"site\":\"lung\",\"stage\":\"I\",\"diagnosed\":2001}",
    );
    deployment
        .broker()
        .publish(&report("patient", "{\"name\":\"ada\",\"birth_year\":1950}").event());
    deployment.broker().publish(&tumour.event());
    settle(&deployment, 1);
    let db = deployment.app_db();
    let generation = |id: &str| db.get(id).expect(id).rev().generation();
    let before = [generation("metrics-m0"), generation("regional-0")];
    let record_before = generation("record-m0-1");
    // Settling after each resend makes it an activation of its own:
    // within one activation only the record's last version is stored.
    for n in 2..7 {
        deployment.broker().publish(&tumour.event());
        settle(&deployment, n);
    }
    assert_eq!(generation("record-m0-1"), record_before + 5);
    assert_eq!(
        [generation("metrics-m0"), generation("regional-0")],
        before,
        "an unchanged update rewrote an aggregate"
    );
    assert!(deployment.engine_violations().is_empty());
}

/// A case's patient, tumour and treatment folded in one activation are
/// stored once: one record put carrying all three pieces, and one put of
/// each aggregate. A gate unit holds the deployment's one worker until
/// all three events wait in the aggregator's inbox.
#[test]
fn one_activation_stores_a_case_once_with_every_piece() {
    let (entered, on_enter) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let gate = UnitSpec::new("gate").subscribe("/gate", None, move |_jail, _event| {
        entered.send(()).expect("the test waits for the gate");
        released.recv().expect("the test releases the gate");
        Ok(())
    });
    let deployment = SafeWebBuilder::new()
        .policy(policy())
        .engine_options(EngineOptions {
            scheduler: SchedulerOptions {
                workers: 1,
                ..SchedulerOptions::default()
            },
            ..EngineOptions::default()
        })
        .unit(gate)
        .unit(data_aggregator(AggregatorConfig::default()))
        .unit_with_app_db(data_storage)
        .build()
        .expect("deployment starts");
    let broker = deployment.broker();
    broker.publish(&Event::new("/gate").expect("valid topic").with_labels([]));
    on_enter
        .recv_timeout(Duration::from_secs(10))
        .expect("the gate holds the worker");
    let delivered = broker.stats().delivered();
    let report = |kind: &'static str, payload: &str| Report {
        mdt: "m0",
        region: "0",
        case_id: 1,
        kind,
        payload: payload.to_string(),
        labels: vec![mdt_label("m0")],
    };
    for piece in [
        report("patient", "{\"name\":\"ada\",\"birth_year\":1950}"),
        report(
            "tumour",
            "{\"site\":\"lung\",\"stage\":\"I\",\"diagnosed\":2001}",
        ),
        report("treatment", "{\"kind\":\"surgery\"}"),
    ] {
        broker.publish(&piece.event());
    }
    assert_eq!(broker.stats().delivered(), delivered + 3);
    release.send(()).expect("the gate is waiting");
    settle(&deployment, 1);

    let db = deployment.app_db();
    let record = db.get("record-m0-1").expect("the case's record");
    assert_eq!(record.rev().generation(), 1, "the record was stored twice");
    for piece in ["birth_year", "diagnosed", "treatment"] {
        assert!(record.body().get(piece).is_some(), "no {piece}");
    }
    assert_eq!(
        record.body().get("completeness").and_then(Value::as_f64),
        Some(100.0)
    );
    for id in ["metrics-m0", "regional-0"] {
        assert_eq!(db.get(id).expect(id).rev().generation(), 1, "{id}");
    }
    assert!(deployment.engine_violations().is_empty());
}

/// Fields a complete record should carry (`units::RECORD_FIELDS`).
const RECORD_FIELDS: &[&str] = &[
    "name",
    "birth_year",
    "site",
    "stage",
    "diagnosed",
    "treatment",
];

fn attrs(mut event: Event, attrs: &[(&str, &str)]) -> Result<Event, UnitError> {
    for (k, v) in attrs {
        event
            .set_attr(k, v)
            .map_err(|e| UnitError::BadEvent(e.to_string()))?;
    }
    Ok(event)
}

/// The oracle: the aggregator as it was before the skip, writing both
/// stats keys and publishing both aggregates on every event.
fn oracle_aggregator(config: AggregatorConfig) -> UnitSpec {
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

            let case_key = if config.mix_hospitals {
                let short: u64 = case_id.parse::<u64>().unwrap_or(0) % 7;
                format!("case/{short}")
            } else {
                format!("case/{mdt}/{case_id}")
            };

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

            let rec_event = attrs(
                Event::new(MDT_RECORD_TOPIC).map_err(|e| UnitError::BadEvent(e.to_string()))?,
                &[("case_id", &case_id), ("mdt", &mdt), ("region_id", &region)],
            )?
            .with_payload(record_json);
            jail.publish(rec_event, Relabel::keep())?;

            let stats_key = format!("stats/mdt/{mdt}");
            let mut stats = match jail.get(&stats_key) {
                Some(json) => Value::parse(&json)
                    .map_err(|e| UnitError::Application(format!("corrupt stats: {e}")))?,
                None => jobject! {"cases" => 0, "completeness_sum" => 0.0},
            };
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
            let metrics_event = attrs(
                Event::new(MDT_METRICS_TOPIC).map_err(|e| UnitError::BadEvent(e.to_string()))?,
                &[("mdt", &mdt), ("region_id", &region)],
            )?
            .with_payload(metrics.to_json());
            jail.publish(
                metrics_event,
                Relabel::keep()
                    .remove(mdt_label(&mdt))
                    .add(region_aggregate_label(region_id)),
            )?;

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
            let regional_event = attrs(
                Event::new(REGIONAL_METRICS_TOPIC)
                    .map_err(|e| UnitError::BadEvent(e.to_string()))?,
                &[("region_id", &region)],
            )?
            .with_payload(regional.to_json());
            jail.publish(
                regional_event,
                Relabel::keep().remove_all().add(regional_label()),
            )?;
            Ok(())
        },
    )
}
