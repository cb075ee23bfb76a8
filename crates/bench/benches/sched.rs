//! **Scheduler axis**: thread cost and hot-path delivery rate of the
//! engine on its work-stealing worker pool (`crates/sched`) at 100 / 1k /
//! 10k units in one process.
//!
//! Acceptance: the engine holds **10k units at `+workers` threads** —
//! thread count independent of unit count — and hot-topic delivery keeps
//! working underneath the idle crowd.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use safeweb_broker::Broker;
use safeweb_engine::{Engine, EngineHandle, EngineOptions, SchedulerOptions, UnitSpec};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::Policy;
use safeweb_reactor::sys::os_thread_count;

/// Worker-pool size used throughout; the acceptance bound.
const WORKERS: usize = 4;
/// Topics actually receiving traffic while the rest of the fleet idles.
const HOT_TOPICS: usize = 64;

struct Fleet {
    broker: Broker,
    consumed: Arc<AtomicU64>,
    _handle: EngineHandle,
    templates: Vec<LabelledEvent>,
    /// OS threads the engine start added.
    threads_added: usize,
    /// Units per second through `Engine::start`.
    startup_rate: f64,
}

/// One counting unit per distinct topic; events carry no labels so the
/// bench isolates the execution model, not the label machinery (the
/// throughput bench owns that axis).
fn build_fleet(units: usize) -> Fleet {
    let broker = Broker::new();
    let consumed = Arc::new(AtomicU64::new(0));
    let mut engine =
        Engine::new(Arc::new(broker.clone()), Policy::new()).with_options(EngineOptions {
            scheduler: SchedulerOptions {
                workers: WORKERS,
                inbox_cap: 1024,
                burst: 128,
                name: "bench-sched".to_string(),
                ..Default::default()
            },
            ..EngineOptions::default()
        });
    for i in 0..units {
        let counter = Arc::clone(&consumed);
        engine
            .add_unit(UnitSpec::new(&format!("u{i}")).subscribe(
                &format!("/u/{i}"),
                None,
                move |_jail, _event| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            ))
            .expect("unique unit names");
    }
    let threads_before = os_thread_count();
    let start = Instant::now();
    let handle = engine.start().expect("engine starts");
    let startup_rate = units as f64 / start.elapsed().as_secs_f64();
    let threads_added = os_thread_count().saturating_sub(threads_before);
    let templates = (0..HOT_TOPICS.min(units))
        .map(|i| {
            Event::new(&format!("/u/{i}"))
                .unwrap()
                .with_attr("type", "synthetic")
                .with_labels([])
        })
        .collect();
    Fleet {
        broker,
        consumed,
        _handle: handle,
        templates,
        threads_added,
        startup_rate,
    }
}

impl Fleet {
    /// Publishes `n` events round-robin over the hot topics and waits
    /// for the fleet to drain them.
    fn pump(&self, n: u64) -> Duration {
        let start_count = self.consumed.load(Ordering::Relaxed);
        let start = Instant::now();
        for i in 0..n {
            self.broker
                .publish(&self.templates[(i as usize) % self.templates.len()]);
        }
        while self.consumed.load(Ordering::Relaxed) < start_count + n {
            std::hint::spin_loop();
        }
        start.elapsed()
    }
}

fn bench_sched(c: &mut Criterion) {
    // A smoke run proves the mechanism at the 1k tier instead of paying
    // 10k subscriptions in CI.
    let tiers: &[usize] = if criterion::smoke_run() {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    const CHUNK: u64 = 2_000;

    eprintln!("\n=== Unit scaling: scheduled engine ===");
    eprintln!("  (pool: {WORKERS} workers; traffic on {HOT_TOPICS} hot topics)");

    let mut group = c.benchmark_group("sched_hot_path");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .throughput(Throughput::Elements(CHUNK));

    for &units in tiers {
        let fleet = build_fleet(units);
        // Acceptance: the pool, not the fleet, sets the thread count —
        // at 10k units exactly as at 100.
        assert!(
            fleet.threads_added <= WORKERS + 1,
            "scheduled engine grew {} threads for {units} units (expected ≤ {})",
            fleet.threads_added,
            WORKERS + 1
        );
        let rate = {
            let elapsed = fleet.pump(CHUNK);
            CHUNK as f64 / elapsed.as_secs_f64()
        };
        eprintln!(
            "  [scheduled {units:>6} units] +{:>5} threads   start {:>8.0} u/s   hot publish \
             {:>8.0} ev/s",
            fleet.threads_added, fleet.startup_rate, rate
        );
        group.bench_function(format!("scheduled_{units}units"), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    total += fleet.pump(CHUNK);
                }
                total
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
