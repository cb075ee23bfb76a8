//! Allocation budget of the aggregator's per-event path over an
//! import-shaped stream: 100 MDTs × 100 cases, each a patient, a tumour
//! and a treatment event, in registry order, as the data producer
//! publishes them. Counted per thread by
//! `safeweb_reactor::sys::CountingAlloc` (this binary only installs it)
//! on the engine's one worker, from one flush of the aggregator to the
//! last: callbacks, builders of the surviving publishes, the flush and
//! the scheduler between activations. The bus is a stub that routes
//! nothing, so the broker's delivery work is not counted.
//!
//! A gate unit holds the worker until the whole stream waits in the
//! aggregator's inbox, so the stream runs in full bursts of 128 events,
//! as during an import, where the aggregator is rarely idle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use safeweb_core::broker::Delivery;
use safeweb_engine::{
    DeliverySink, Engine, EngineError, EngineOptions, EventBus, SchedulerOptions, UnitSpec,
};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{Policy, PrivilegeSet};
use safeweb_mdt::labels::mdt_label;
use safeweb_mdt::units::{
    data_aggregator, AggregatorConfig, MDT_METRICS_TOPIC, MDT_RECORD_TOPIC, PATIENT_REPORT_TOPIC,
    REGIONAL_METRICS_TOPIC,
};
use safeweb_reactor::sys::{thread_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per imported event (47.5 in the callback alone while every
/// event built its record event and both aggregates' relabels, captures
/// and stats text).
const BUDGET: f64 = 20.0;

const MDTS: usize = 100;
const CASES_PER_MDT: usize = 100;

/// The portal's aggregator privileges.
fn policy() -> Policy {
    "unit data_aggregator {\n    clearance label:conf:ecric.org.uk/mdt/*\n    declassify label:conf:ecric.org.uk/mdt/*\n}\n"
        .parse()
        .expect("test policy parses")
}

/// A bus that hands deliveries to the test and counts what the engine
/// flushes. `publish_batch` runs on the engine's worker at the end of an
/// activation; it reads that thread's allocation count first and itself
/// allocates nothing.
#[derive(Default)]
struct StubBus {
    sinks: Mutex<HashMap<String, Arc<DeliverySink>>>,
    /// The worker's allocation count at the last flush.
    allocations: AtomicU64,
    /// Events flushed per topic: records, MDT metrics, regional metrics.
    flushed: [AtomicU64; 3],
    /// Set once the flush carrying the sentinel's record is seen.
    done: (Mutex<bool>, Condvar),
}

impl StubBus {
    fn deliver(&self, topic: &str, event: LabelledEvent) {
        let sink = Arc::clone(&self.sinks.lock().unwrap()[topic]);
        let delivery = Delivery {
            subscription_id: Arc::from("stub"),
            event: Arc::new(event),
        };
        assert!(sink(delivery), "the unit's inbox took the delivery");
    }

    /// Waits until the sentinel's record is flushed; the worker's
    /// allocation count at that flush.
    fn wait_done(&self) -> u64 {
        let (done, signal) = &self.done;
        let mut guard = signal
            .wait_timeout_while(done.lock().unwrap(), Duration::from_secs(120), |d| !*d)
            .unwrap()
            .0;
        assert!(*guard, "the sentinel's record never flushed");
        *guard = false;
        self.allocations.load(Ordering::SeqCst)
    }
}

impl EventBus for StubBus {
    fn subscribe(
        &self,
        _client: &str,
        _subscription_id: &str,
        topic: &str,
        _selector: Option<&str>,
        _clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError> {
        self.sinks
            .lock()
            .unwrap()
            .insert(topic.to_string(), Arc::new(sink));
        Ok(())
    }

    fn publish(&self, _event: &LabelledEvent) -> Result<(), EngineError> {
        unreachable!("the engine flushes in batches")
    }

    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError> {
        self.allocations
            .store(thread_allocations(), Ordering::SeqCst);
        let mut sentinel = false;
        for event in &events {
            let topic = event.event().topic();
            let slot = [MDT_RECORD_TOPIC, MDT_METRICS_TOPIC, REGIONAL_METRICS_TOPIC]
                .iter()
                .position(|t| *t == topic)
                .expect("an aggregator topic");
            self.flushed[slot].fetch_add(1, Ordering::SeqCst);
            sentinel |= topic == MDT_RECORD_TOPIC && event.attr("mdt") == Some("sentinel");
        }
        if sentinel {
            *self.done.0.lock().unwrap() = true;
            self.done.1.notify_all();
        }
        Ok(())
    }
}

/// One `/patient_report` event as the producer publishes it.
fn report(mdt: &str, region: &str, case_id: usize, kind: &str, payload: &str) -> LabelledEvent {
    let mut event = Event::new(PATIENT_REPORT_TOPIC).expect("valid topic");
    let case_id = case_id.to_string();
    for (k, v) in [
        ("kind", kind),
        ("type", "cancer"),
        ("case_id", case_id.as_str()),
        ("mdt", mdt),
        ("hospital_id", "1"),
        ("region_id", region),
        ("clinic", "lung"),
    ] {
        event.set_attr(k, v).expect("valid attribute");
    }
    event.with_payload(payload).with_labels([mdt_label(mdt)])
}

/// A case's three events, as the producer publishes them.
fn case(mdt: &str, region: &str, case_id: usize) -> [LabelledEvent; 3] {
    let patient = format!(
        "{{\"name\":\"patient {case_id}\",\"birth_year\":{}}}",
        1930 + case_id % 60
    );
    let tumour = format!(
        "{{\"site\":\"lung\",\"stage\":\"{}\",\"diagnosed\":{}}}",
        ["I", "II", "III", "IV"][case_id % 4],
        1990 + case_id % 30
    );
    [
        report(mdt, region, case_id, "patient", &patient),
        report(mdt, region, case_id, "tumour", &tumour),
        report(mdt, region, case_id, "treatment", "{\"kind\":\"surgery\"}"),
    ]
}

#[test]
fn an_imported_event_costs_at_most_the_budget() {
    let bus = Arc::new(StubBus::default());
    let (entered, on_enter) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let gate = UnitSpec::new("gate").subscribe("/gate", None, move |_jail, _event| {
        entered.send(()).expect("the test waits for the gate");
        released.recv().expect("the test releases the gate");
        Ok(())
    });
    let events = MDTS * CASES_PER_MDT * 3;
    let mut engine =
        Engine::new(Arc::clone(&bus) as Arc<dyn EventBus>, policy()).with_options(EngineOptions {
            scheduler: SchedulerOptions {
                workers: 1,
                inbox_cap: events + 16,
                ..SchedulerOptions::default()
            },
            ..EngineOptions::default()
        });
    engine.add_unit(gate).unwrap();
    engine
        .add_unit(data_aggregator(AggregatorConfig::default()))
        .unwrap();
    let handle = engine.start().unwrap();

    // Warm the worker's JSON scratch, the key and label intern tables
    // and the stores, away from the stream's region.
    for event in case("warm", "1", 1) {
        bus.deliver(PATIENT_REPORT_TOPIC, event);
    }
    bus.deliver(PATIENT_REPORT_TOPIC, case("sentinel", "1", 1)[0].clone());
    let before = bus.wait_done();

    bus.deliver("/gate", Event::new("/gate").unwrap().with_labels([]));
    on_enter
        .recv_timeout(Duration::from_secs(10))
        .expect("the gate holds the worker");
    for mdt in 0..MDTS {
        let name = format!("mdt-0-0-{mdt}");
        for case_id in 1..=CASES_PER_MDT {
            for event in case(&name, "0", mdt * CASES_PER_MDT + case_id) {
                bus.deliver(PATIENT_REPORT_TOPIC, event);
            }
        }
    }
    bus.deliver(PATIENT_REPORT_TOPIC, case("sentinel", "1", 2)[0].clone());
    release.send(()).expect("the gate is waiting");
    let after = bus.wait_done();

    assert!(handle.stop().is_empty(), "the import raised violations");
    let per_event = (after - before) as f64 / (events + 1) as f64;
    let [records, metrics, regional] = bus.flushed.each_ref().map(|n| n.load(Ordering::SeqCst));
    println!(
        "{per_event:.2} allocations per imported event; flushed {records} records, \
         {metrics} MDT metrics, {regional} regional metrics"
    );
    assert!(
        records >= (MDTS * CASES_PER_MDT) as u64,
        "every case's record is flushed"
    );
    assert!(
        per_event <= BUDGET,
        "the aggregator made {per_event:.2} allocations per imported event, budget {BUDGET}"
    );
}
