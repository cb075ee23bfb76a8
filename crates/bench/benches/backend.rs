//! **E2 — §5.3 backend event latency.**
//!
//! Paper: the average latency of an event from the data producer to the
//! data storage unit rises from 73 ms to 84 ms (+15 %) with SafeWeb's
//! isolation and label checks, over 1000 events. This bench pushes events
//! through the same three-stage path — producer → broker → jailed
//! aggregation unit → broker → storage write — over the *networked*
//! STOMP broker (so (de)serialisation is on the path, as in the paper's
//! deployment) with label tracking on and off.
//!
//! `SAFEWEB_BENCH_SMOKE=1` (CI) shrinks the paper-style summary from
//! 10 000 events per configuration to 1 000.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use safeweb_bench::{overhead_pct, report_row};
use safeweb_broker::{Broker, BrokerOptions, BrokerServer};
use safeweb_docstore::DocStore;
use safeweb_engine::{Engine, EngineOptions, EventBus, Relabel, RemoteBus, UnitError, UnitSpec};
use safeweb_events::Event;
use safeweb_labels::{Label, Policy};

struct Pipeline {
    _server: BrokerServer,
    publisher: RemoteBus,
    store: DocStore,
    _transform_engine: safeweb_engine::EngineHandle,
    _storage_engine: safeweb_engine::EngineHandle,
    seq: u64,
}

/// The transformer republishes its input's integrity label over STOMP,
/// where the relabel rule holds it to an endorsement.
fn policy() -> Policy {
    "
    unit producer {\n privileged \n}
    unit transformer {\n clearance label:conf:e/* \n endorse label:int:e/* \n}
    unit storage {\n privileged \n clearance label:conf:e/* \n}
    "
    .parse()
    .unwrap()
}

fn build_pipeline(tracking: bool) -> Pipeline {
    let broker = Broker::with_options(BrokerOptions {
        label_filtering: tracking,
    });
    let server = BrokerServer::bind("127.0.0.1:0", broker, policy()).unwrap();
    let addr = server.addr().to_string();
    let store = DocStore::new("bench-app");

    let bus = RemoteBus::connect(&addr, "transformer").unwrap();
    let mut engine = Engine::new(Arc::new(bus), policy()).with_options(EngineOptions {
        label_tracking: tracking,
        ..EngineOptions::default()
    });
    engine
        .add_unit(
            UnitSpec::new("transformer").subscribe("/in", None, |jail, event| {
                // Modest per-event application work, like the aggregator.
                let payload = event.payload().unwrap_or("");
                let digest: u64 = payload
                    .bytes()
                    .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                jail.publish(
                    Event::new("/out")
                        .map_err(|e| UnitError::BadEvent(e.to_string()))?
                        .with_attr("seq", event.attr("seq").unwrap_or("0"))
                        .with_attr("digest", &digest.to_string())
                        .with_payload(payload),
                    Relabel::keep(),
                )
            }),
        )
        .unwrap();
    let store2 = store.clone();
    let storage_bus = RemoteBus::connect(&addr, "storage").unwrap();
    let mut storage_engine =
        Engine::new(Arc::new(storage_bus), policy()).with_options(EngineOptions {
            label_tracking: tracking,
            ..EngineOptions::default()
        });
    storage_engine
        .add_unit(
            UnitSpec::new("storage").subscribe("/out", None, move |jail, event| {
                let _io = jail.io()?;
                let seq = event.attr("seq").unwrap_or("0");
                store2
                    .put(
                        &format!("doc-{seq}"),
                        safeweb_json::jobject! {"digest" => event.attr("digest").unwrap_or("")},
                        *jail.labels(),
                        None,
                    )
                    .map_err(|e| UnitError::Application(e.to_string()))?;
                Ok(())
            }),
        )
        .unwrap();
    let h1 = engine.start().unwrap();
    let h2 = storage_engine.start().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    Pipeline {
        _server: server,
        publisher: RemoteBus::connect(&addr, "producer").unwrap(),
        store,
        _transform_engine: h1,
        _storage_engine: h2,
        seq: 0,
    }
}

impl Pipeline {
    /// Streams `n` events through producer → broker → transform → broker →
    /// storage and waits until every document has been written, as the
    /// paper does ("the average latency of individual events ... during
    /// the processing of 1000 events"). The producer sends the `n`
    /// events as one batch, which waits for one receipt. Returns total
    /// wall-clock time.
    fn batch(&mut self, n: u64, labelled: bool) -> Duration {
        let first = self.seq + 1;
        let start = Instant::now();
        let events: Vec<_> = (first..first + n)
            .map(|seq| {
                let event = Event::new("/in")
                    .unwrap()
                    .with_attr("seq", &seq.to_string())
                    .with_payload("x".repeat(1024));
                if labelled {
                    event.with_labels([
                        Label::conf("e", &format!("patient/{seq}")),
                        Label::conf("e", "mdt/a"),
                        Label::conf("e", "hospital/1"),
                        Label::int("e", "mdt"),
                    ])
                } else {
                    event.with_labels([])
                }
            })
            .collect();
        self.seq += n;
        self.publisher.publish_batch(events).unwrap();
        let last_id = format!("doc-{}", self.seq);
        while self.store.get(&last_id).is_none() {
            std::hint::spin_loop();
        }
        start.elapsed()
    }
}

fn bench_backend(c: &mut Criterion) {
    let mut with = build_pipeline(true);
    let mut without = build_pipeline(false);

    let mut group = c.benchmark_group("backend_event_latency");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_secs(2));

    const BATCH: u64 = 250;
    group.bench_function("with_ifc", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += with.batch(BATCH, true);
            }
            total / BATCH as u32
        });
    });
    group.bench_function("without_ifc", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += without.batch(BATCH, false);
            }
            total / BATCH as u32
        });
    });
    group.finish();

    // Paper-style summary: 10× the paper's 1000 events per configuration
    // (the store behind the storage unit now compacts its changes feed,
    // so a 10× longer run no longer grows replication state linearly),
    // streamed and averaged. Batches of the two configurations are
    // interleaved so that machine-load drift affects both equally.
    let n: u64 = if criterion::smoke_run() {
        1_000
    } else {
        10_000
    };
    let rounds = 10;
    let per_round = n / rounds;
    let mut with_total = Duration::ZERO;
    let mut without_total = Duration::ZERO;
    for _ in 0..rounds {
        with_total += with.batch(per_round, true);
        without_total += without.batch(per_round, false);
    }
    let with_ms = with_total.as_secs_f64() * 1000.0 / n as f64;
    let without_ms = without_total.as_secs_f64() * 1000.0 / n as f64;
    eprintln!("\n=== E2: backend event latency (paper §5.3) ===");
    report_row(
        "event latency without IFC",
        "73 ms",
        &format!("{without_ms:.3} ms"),
    );
    report_row(
        "event latency with IFC",
        "84 ms",
        &format!("{with_ms:.3} ms"),
    );
    report_row(
        "overhead",
        "+15 %",
        &format!("{:+.1} %", overhead_pct(without_ms, with_ms)),
    );
    report_row(
        "changes feed after full run",
        "<= live docs + 2x retention",
        &format!(
            "{} entries, {} live docs, {} writes",
            with.store.changes_len(),
            with.store.len(),
            with.store.seq()
        ),
    );
    let bound = with.store.len() + 2 * safeweb_docstore::DEFAULT_CHANGES_RETENTION;
    assert!(
        with.store.changes_len() <= bound,
        "changes feed unbounded: {} entries > {}",
        with.store.changes_len(),
        bound
    );
}

criterion_group!(benches, bench_backend);
criterion_main!(benches);
