//! **E3 — §5.3 end-to-end event throughput.**
//!
//! Paper: a synthetic producer/consumer pair sustains 4455 events/second
//! without label tracking and 3817 events/second with it (−17 %), sampled
//! once per second for 1000 seconds. This bench pumps batches through the
//! same pair (embedded broker, jailed consumer unit) with tracking on and
//! off, and reports the sustained rates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use safeweb_bench::report_row;
use safeweb_broker::{Broker, BrokerOptions, Delivery};
use safeweb_engine::{Engine, EngineOptions, UnitSpec};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{Label, Policy};

struct Pair {
    broker: Broker,
    consumed: Arc<AtomicU64>,
    _engine: safeweb_engine::EngineHandle,
    /// One pre-built labelled event per patient bucket; the pump cycles
    /// through them so publishing measures delivery, not event building.
    templates: Vec<LabelledEvent>,
}

/// A ~500-byte JSON payload of the shape units exchange.
fn payload() -> String {
    let mut body = safeweb_json::Value::object();
    for i in 0..20 {
        body.set(&format!("field_{i:02}"), format!("value-{i}"));
    }
    body.set("case", 33812769);
    body.to_json()
}

/// Both configurations process the **same labelled workload** — the paper
/// compares the middleware with tracking enabled vs disabled, not
/// labelled vs unlabelled data. Events rotate through 50 patient labels;
/// the consumer is the paper's Listing 1 shape (fold each event into
/// jailed key-value state), so tracking-mode work includes real label
/// merging through the store.
fn build_pair(tracking: bool, aggregating: bool) -> Pair {
    let policy: Policy = "unit consumer {\n clearance label:conf:e/* \n}"
        .parse()
        .unwrap();
    let broker = Broker::with_options(BrokerOptions {
        label_filtering: tracking,
    });
    let consumed = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&consumed);
    let mut engine = Engine::new(Arc::new(broker.clone()), policy).with_options(EngineOptions {
        label_tracking: tracking,
        ..EngineOptions::default()
    });
    engine
        .add_unit(
            UnitSpec::new("consumer").subscribe("/stream", None, move |jail, event| {
                // Parse the payload, as every real unit does.
                let parsed = safeweb_json::Value::parse(event.payload().unwrap_or("{}"))
                    .map_err(|e| safeweb_engine::UnitError::BadEvent(e.to_string()))?;
                let case = parsed
                    .get("case")
                    .and_then(safeweb_json::Value::as_i64)
                    .unwrap_or(0);
                if aggregating {
                    // Listing 1: fold the event into per-bucket accumulated
                    // state. Under tracking, reading/writing the store merges
                    // the stored labels into $LABELS and back — the
                    // label-intensive mode.
                    let bucket = format!("acc/{}", event.attr("bucket").unwrap_or("0"));
                    let mut list = jail.get(&bucket).unwrap_or_default();
                    if list.len() > 4096 {
                        list.clear();
                    }
                    list.push_str(&case.to_string());
                    list.push(',');
                    jail.set(&bucket, list, safeweb_engine::Relabel::keep())?;
                }
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        )
        .unwrap();
    let handle = engine.start().unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let templates = (0..8)
        .map(|i| {
            Event::new("/stream")
                .unwrap()
                .with_attr("type", "synthetic")
                .with_attr("bucket", &i.to_string())
                .with_payload(payload())
                .with_labels([
                    Label::conf("e", &format!("patient/{i}")),
                    Label::conf("e", "mdt/a"),
                    Label::int("e", "mdt"),
                ])
        })
        .collect();
    Pair {
        broker,
        consumed,
        _engine: handle,
        templates,
    }
}

impl Pair {
    /// Publishes `n` events (cycling through the patient-labelled
    /// templates, as the MDT producer cycles through cases) and waits for
    /// the consumer to drain them.
    fn pump(&self, n: u64) -> Duration {
        let start_count = self.consumed.load(Ordering::Relaxed);
        let start = Instant::now();
        for i in 0..n {
            self.broker.publish(&self.templates[(i % 8) as usize]);
        }
        while self.consumed.load(Ordering::Relaxed) < start_count + n {
            std::hint::spin_loop();
        }
        start.elapsed()
    }
}

/// Sustained rates for a with/without pair: batches are interleaved so
/// machine-load drift affects both configurations equally, and the
/// **median** per-round rate is reported so scheduler hiccups on shared
/// hardware do not dominate (the paper sampled throughput once per second
/// for 1000 seconds for the same reason).
fn sustained_rates(with: &Pair, without: &Pair, total: u64) -> (f64, f64) {
    let rounds = 20;
    let per_round = total / rounds;
    // Warm both sides first.
    with.pump(per_round);
    without.pump(per_round);
    let mut with_rates = Vec::with_capacity(rounds as usize);
    let mut without_rates = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let t = with.pump(per_round);
        with_rates.push(per_round as f64 / t.as_secs_f64());
        let t = without.pump(per_round);
        without_rates.push(per_round as f64 / t.as_secs_f64());
    }
    (median(&mut with_rates), median(&mut without_rates))
}

fn median(rates: &mut [f64]) -> f64 {
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn bench_throughput(c: &mut Criterion) {
    let with = build_pair(true, true);
    let without = build_pair(false, true);
    const BATCH: u64 = 5_000;

    let mut group = c.benchmark_group("event_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .throughput(Throughput::Elements(BATCH));

    group.bench_function("with_label_tracking", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += with.pump(BATCH);
            }
            total
        });
    });
    group.bench_function("without_label_tracking", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += without.pump(BATCH);
            }
            total
        });
    });
    group.finish();

    // Paper-style sustained-rate summary, at two label intensities. The
    // paper reports a single -17% point for its Ruby implementation; in
    // this Rust implementation the cost of tracking depends on how much
    // labelled state the consumer touches, so both ends of the range are
    // reported (see EXPERIMENTS.md).
    eprintln!("\n=== E3: end-to-end event throughput (paper §5.3) ===");

    let (with_rate, without_rate) = sustained_rates(&with, &without, 50_000);
    let drop_pct = (without_rate - with_rate) / without_rate * 100.0;
    eprintln!("  [aggregating consumer — Listing 1 shape]");
    report_row(
        "throughput without tracking",
        "4455 events/s",
        &format!("{without_rate:.0} events/s"),
    );
    report_row(
        "throughput with tracking",
        "3817 events/s",
        &format!("{with_rate:.0} events/s"),
    );
    report_row("reduction", "-17 %", &format!("-{drop_pct:.1} %"));

    let with_static = build_pair(true, false);
    let without_static = build_pair(false, false);
    let (ws, wos) = sustained_rates(&with_static, &without_static, 50_000);
    let drop_static = (wos - ws) / wos * 100.0;
    eprintln!("  [stateless consumer — static labels]");
    report_row(
        "throughput without tracking",
        "4455 events/s",
        &format!("{wos:.0} events/s"),
    );
    report_row(
        "throughput with tracking",
        "3817 events/s",
        &format!("{ws:.0} events/s"),
    );
    report_row("reduction", "-17 %", &format!("-{drop_static:.1} %"));
}

/// How subscriptions relate to the published topic in the publish-path
/// benches.
#[derive(Clone, Copy)]
enum Matching {
    /// One subscription on the hot exact topic; the rest on distinct cold
    /// exact topics. Measures routing: the exact index touches 1
    /// subscription whatever the total.
    ExactOne,
    /// Every subscription on the hot topic. Measures fan-out delivery of
    /// one shared `Arc` per subscriber.
    ExactAll,
    /// One prefix subscription (`/hot/*`) among cold exact topics;
    /// publishes go to a nested topic. Measures the trie path.
    PrefixOne,
}

struct PublishFixture {
    broker: Broker,
    receivers: Vec<std::sync::mpsc::Receiver<Delivery>>,
    event: LabelledEvent,
}

fn publish_fixture(total_subs: usize, matching: Matching) -> PublishFixture {
    let broker = Broker::new();
    let mut receivers = Vec::new();
    for i in 0..total_subs {
        let destination = match matching {
            Matching::ExactAll => "/hot".to_string(),
            Matching::ExactOne | Matching::PrefixOne if i == 0 => match matching {
                Matching::PrefixOne => "/hot/*".to_string(),
                _ => "/hot".to_string(),
            },
            _ => format!("/cold/{i}"),
        };
        let id = i.to_string();
        receivers.push(broker.subscribe("bench", &id, &destination, None, Default::default()));
    }
    let topic = match matching {
        Matching::PrefixOne => "/hot/daily/report",
        _ => "/hot",
    };
    let event = Event::new(topic)
        .unwrap()
        .with_attr("type", "synthetic")
        .with_payload(payload())
        .with_labels([Label::int("e", "mdt")]);
    PublishFixture {
        broker,
        receivers,
        event,
    }
}

fn drain(receivers: &[std::sync::mpsc::Receiver<Delivery>]) {
    for rx in receivers {
        while rx.try_recv().is_ok() {}
    }
}

/// **Publish-path comparison** for the broker's one routing table:
/// single vs batched publish, exact vs prefix topics, at increasing
/// subscription counts.
fn bench_publish_path(c: &mut Criterion) {
    const CHUNK: u64 = 512;
    const BATCH: usize = 64;

    for (label, matching) in [
        ("exact_1match", Matching::ExactOne),
        ("prefix_1match", Matching::PrefixOne),
        ("exact_fanout", Matching::ExactAll),
    ] {
        let mut group = c.benchmark_group(format!("publish_path/{label}"));
        group.throughput(Throughput::Elements(CHUNK));
        for subs in [1usize, 100, 1000] {
            let fixture = publish_fixture(subs, matching);
            let build =
                |k: u64| -> Vec<LabelledEvent> { (0..k).map(|_| fixture.event.clone()).collect() };
            group.bench_function(format!("single_{subs}subs"), |b| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let batch = build(CHUNK);
                        let start = Instant::now();
                        for event in &batch {
                            fixture.broker.publish(event);
                        }
                        total += start.elapsed();
                        drain(&fixture.receivers);
                    }
                    total
                });
            });
            group.bench_function(format!("batch{BATCH}_{subs}subs"), |b| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        let batches: Vec<Vec<LabelledEvent>> = (0..CHUNK / BATCH as u64)
                            .map(|_| build(BATCH as u64))
                            .collect();
                        let start = Instant::now();
                        for batch in batches {
                            fixture.broker.publish_batch(batch);
                        }
                        total += start.elapsed();
                        drain(&fixture.receivers);
                    }
                    total
                });
            });
        }
        group.finish();
    }
}

// ---- idle-connection frontend comparison --------------------------------

use safeweb_reactor::sys::os_thread_count as thread_count;

/// A minimal parked STOMP subscriber: CONNECT + SUBSCRIBE, then the
/// socket is simply held open. Kept deliberately tiny (one `TcpStream`,
/// no decoder buffers) so the *client* side of the bench does not
/// dominate memory at 10k connections.
struct IdleSub {
    _stream: std::net::TcpStream,
}

fn idle_subscribe(addr: &str, login: &str, topic: &str) -> std::io::Result<IdleSub> {
    use safeweb_stomp::codec::encode;
    use safeweb_stomp::{Command, Frame};
    use std::io::{Read, Write};

    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(&encode(
        &Frame::new(Command::Connect).with_header("login", login),
    ))?;
    // Read until the CONNECTED frame's NUL terminator.
    let mut byte = [0u8; 1];
    loop {
        stream.read_exact(&mut byte)?;
        if byte[0] == 0 {
            break;
        }
    }
    stream.write_all(&encode(
        &Frame::new(Command::Subscribe)
            .with_header("destination", topic)
            .with_header("id", "1"),
    ))?;
    Ok(IdleSub { _stream: stream })
}

struct IdleReport {
    connect_rate: f64,
    threads_added: usize,
    publish_rate: f64,
}

/// Parks `idle` subscribers on cold topics, then measures delivery of
/// `events` hot-topic events to one live consumer while the crowd sits
/// idle. `active_probe` (the reactor's registered-connection counter) is
/// asserted against `idle + 1` while the whole crowd and the consumer
/// are still alive.
fn run_idle_workload(
    broker: &safeweb_broker::Broker,
    addr: &str,
    idle: usize,
    events: u64,
    active_probe: Option<&dyn Fn() -> usize>,
) -> std::io::Result<IdleReport> {
    use safeweb_broker::EventClient;

    let mut consumer =
        EventClient::connect(addr, "consumer").map_err(|e| std::io::Error::other(e.to_string()))?;
    consumer
        .subscribe("/hot", None)
        .map_err(|e| std::io::Error::other(e.to_string()))?;

    let threads_before = thread_count();
    let start = Instant::now();
    let mut crowd = Vec::with_capacity(idle);
    for i in 0..idle {
        crowd.push(idle_subscribe(addr, "idler", &format!("/idle/{i}"))?);
    }
    let connect_rate = idle as f64 / start.elapsed().as_secs_f64();

    // Let the last SUBSCRIBE frames land before measuring.
    let deadline = Instant::now() + Duration::from_secs(30);
    while broker.subscription_count() < idle + 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let threads_added = thread_count().saturating_sub(threads_before);

    let template = Event::new("/hot")
        .unwrap()
        .with_attr("type", "synthetic")
        .with_payload(payload())
        .with_labels([Label::int("e", "mdt")]);
    let start = Instant::now();
    for _ in 0..events {
        broker.publish(&template);
    }
    let mut received = 0;
    while received < events {
        match consumer.next_delivery() {
            Ok(_) => received += 1,
            Err(e) => return Err(std::io::Error::other(e.to_string())),
        }
    }
    let publish_rate = events as f64 / start.elapsed().as_secs_f64();
    if let Some(active) = active_probe {
        // Acceptance: every subscriber (+ the live consumer) is held
        // concurrently by the frontend.
        assert_eq!(active(), idle + 1, "connections dropped under load");
    }
    drop(crowd);
    Ok(IdleReport {
        connect_rate,
        threads_added,
        publish_rate,
    })
}

fn idle_policy() -> Policy {
    "unit consumer {\n clearance label:conf:e/* \n}\nunit idler {\n}\n"
        .parse()
        .unwrap()
}

/// **Idle-connection axis** for the reactor refactor: thread cost and
/// hot-path delivery rate of the reactor (epoll) STOMP frontend while
/// 100 / 1k / 10k idle subscribers sit parked in the same process.
///
/// Acceptance: the reactor frontend holds 10k idle subscribers with a
/// bounded thread count (reactor + workers only), and hot-topic delivery
/// keeps working underneath them.
fn bench_idle_frontends(_c: &mut Criterion) {
    use safeweb_broker::BrokerServer;

    // Each idle subscriber is two fds in this one process (client +
    // server end). Raise the soft limit as far as the host allows and
    // derive the top tier from the real budget — on a host with an
    // ordinary 1M hard limit the full 10k tier runs; here anything
    // smaller is reported, never silently truncated.
    let limit = safeweb_reactor::sys::raise_nofile_limit(24 * 1024);
    let fds_in_use = std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(256);
    let budget = limit.saturating_sub(fds_in_use + 64) / 2;
    // A CI smoke run proves the mechanism at the 1k tier instead of
    // paying 10k connection setups.
    let tier_cap = if criterion::smoke_run() {
        1_000
    } else {
        10_000
    };
    let max_idle = budget.min(tier_cap) as usize;
    const EVENTS: u64 = 2_000;

    eprintln!("\n=== Idle-connection scaling: reactor STOMP frontend ===");
    eprintln!(
        "  (fd soft limit {limit}, {fds_in_use} in use; top tier {max_idle} idle subscribers)"
    );

    let top_tier = [100usize, 1_000, 10_000]
        .into_iter()
        .filter(|&t| t <= max_idle)
        .count()
        < 3;
    let tiers: Vec<usize> = [100usize, 1_000, 10_000]
        .into_iter()
        .map(|t| t.min(max_idle))
        .collect();
    if top_tier {
        eprintln!("  (10k tier clamped to {max_idle} by this host's fd hard limit)");
    }
    let mut seen = std::collections::BTreeSet::new();
    for idle in tiers {
        if !seen.insert(idle) {
            continue;
        }
        let broker = Broker::new();
        let mut server = BrokerServer::bind("127.0.0.1:0", broker, idle_policy()).unwrap();
        let active = || server.active_connections();
        let report = run_idle_workload(
            server.broker(),
            &server.addr().to_string(),
            idle,
            EVENTS,
            Some(&active),
        )
        .expect("reactor idle workload");
        // Acceptance: bounded thread count (reactor + workers only).
        assert!(
            report.threads_added <= 16,
            "reactor frontend grew {} threads under {idle} idle connections",
            report.threads_added
        );
        eprintln!(
            "  [reactor  {idle:>6} idle] +{:>5} threads   connect {:>7.0}/s   hot publish \
             {:>8.0} ev/s",
            report.threads_added, report.connect_rate, report.publish_rate
        );
        server.shutdown();
    }
}

criterion_group!(
    benches,
    bench_throughput,
    bench_publish_path,
    bench_idle_frontends
);
criterion_main!(benches);
