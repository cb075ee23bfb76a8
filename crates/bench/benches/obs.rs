//! **Observability micro-bench**: what does the telemetry layer cost at
//! the exact granularity the hot paths pay it?
//!
//! * **record cost** — one held-handle counter `inc`, gauge `set` and
//!   histogram `observe` (each a single relaxed atomic RMW), plus the
//!   lookup-per-record anti-pattern (`registry.counter(name).inc()`,
//!   which takes the registry lock and hashes the name — the number that
//!   justifies the hold-your-handles idiom);
//! * **read cost** — `p99` over a loaded histogram and a full
//!   `snapshot()` over a realistically sized registry, the work one
//!   `/__obs/metrics` scrape does;
//! * **span cost** — `record_span` into a component ring with a set
//!   trace id (ring push) and with the tracer disabled (the early-out
//!   every instrumentation site compiles down to when ops turns tracing
//!   off);
//! * **publish hot path** — one broker publish to a matching no-op sink
//!   subscriber with tracing enabled vs disabled. The deployment ships
//!   with tracing on, so the acceptance target is that the enabled path
//!   stays within a few percent of the disabled one; the measured
//!   overhead is *reported* (CI noise makes a hard percentage assert
//!   flaky) while `baselines/obs.json` gates the absolute traced cost.
//!
//! `SAFEWEB_BENCH_JSON` records medians for `bench_gate` against
//! `crates/bench/baselines/obs.json`.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use safeweb_bench::{overhead_pct, report_row};
use safeweb_broker::{Broker, BrokerOptions};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{Label, PrivilegeSet};
use safeweb_obs::{now_ns, record_span, tracer, Histogram, MetricsRegistry, TraceId};

/// Microseconds per call of `f` over `calls` invocations.
fn time_per_call_us<O>(mut f: impl FnMut() -> O, calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A registry shaped like a live deployment's: a few dozen counters,
/// gauges and histograms so `snapshot()` pays realistic iteration and
/// quantile costs.
fn deployment_shaped_registry() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    for i in 0..16 {
        registry.counter(&format!("bench.counter_{i}")).add(i);
        registry.gauge(&format!("bench.gauge_{i}")).set(i as i64);
    }
    for i in 0..8 {
        let h = registry.histogram(&format!("bench.hist_{i}"));
        for v in 0..512u64 {
            h.observe(v * 1_000);
        }
    }
    registry.register_derived("bench.derived", || 42.0);
    registry
}

/// A broker wired the way the deployment wires it — metrics attached,
/// one matching subscriber whose sink does no work — plus the template
/// event every publish clones. Integrity-only labels keep the clearance
/// check on its cheap path, same as the throughput bench.
fn publish_fixture(registry: &MetricsRegistry) -> (Broker, LabelledEvent) {
    let broker = Broker::with_metrics(BrokerOptions::default(), registry);
    broker.subscribe_sink(
        "bench",
        "s1",
        "/hot",
        None,
        PrivilegeSet::new(),
        Box::new(|_| true),
    );
    let template = Event::new("/hot")
        .unwrap()
        .with_attr("type", "synthetic")
        .with_labels([Label::int("e", "mdt")]);
    (broker, template)
}

fn bench_obs(c: &mut Criterion) {
    let smoke = criterion::smoke_run();

    // --- Record / read cost --------------------------------------------
    let registry = deployment_shaped_registry();
    let counter = registry.counter("bench.hot_counter");
    let gauge = registry.gauge("bench.hot_gauge");
    let histogram = registry.histogram("bench.hot_hist");
    let loaded = Histogram::new();
    for v in 0..100_000u64 {
        loaded.observe((v * 2_654_435_761) % 10_000_000);
    }

    let mut group = c.benchmark_group("obs");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    group.bench_function("gauge_set", |b| b.iter(|| gauge.set(black_box(7))));
    group.bench_function("histogram_observe", |b| {
        b.iter(|| histogram.observe(black_box(1_234)))
    });
    group.bench_function("counter_lookup_inc", |b| {
        b.iter(|| registry.counter(black_box("bench.hot_counter")).inc())
    });
    group.bench_function("histogram_p99", |b| b.iter(|| loaded.p99()));
    group.bench_function("registry_snapshot", |b| b.iter(|| registry.snapshot()));

    // --- Span cost ------------------------------------------------------
    let id = TraceId::mint();
    group.bench_function("record_span", |b| {
        b.iter(|| record_span("bench-obs", "task", id, now_ns(), Some(7)))
    });
    tracer().set_enabled(false);
    group.bench_function("record_span_disabled", |b| {
        b.iter(|| record_span("bench-obs", "task", id, now_ns(), Some(7)))
    });
    tracer().set_enabled(true);
    group.finish();

    // --- Publish hot path: tracing on vs off ---------------------------
    let (broker, template) = publish_fixture(&registry);
    let mut group = c.benchmark_group("publish");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("traced", |b| {
        b.iter(|| broker.publish(black_box(&template)))
    });
    tracer().set_enabled(false);
    group.bench_function("untraced", |b| {
        b.iter(|| broker.publish(black_box(&template)))
    });
    tracer().set_enabled(true);
    group.finish();

    // One long interleaved pass for the headline overhead number — the
    // criterion samples above are gated, this is the human-readable
    // comparison (interleaving halves the drift a warm/cold split bakes
    // in).
    let calls = if smoke { 20_000 } else { 200_000 };
    let mut traced_us = 0.0;
    let mut untraced_us = 0.0;
    for _ in 0..4 {
        tracer().set_enabled(true);
        traced_us += time_per_call_us(|| broker.publish(&template), calls) / 4.0;
        tracer().set_enabled(false);
        untraced_us += time_per_call_us(|| broker.publish(&template), calls) / 4.0;
    }
    tracer().set_enabled(true);
    let pct = overhead_pct(untraced_us, traced_us);
    let span_ns = (traced_us - untraced_us).max(0.0) * 1_000.0;
    eprintln!("\n=== tracing overhead on the broker publish hot path ===");
    report_row(
        "publish+fanout (tracing off)",
        "baseline",
        &format!("{untraced_us:.4} us/publish"),
    );
    report_row(
        "publish+fanout (tracing on)",
        "one ring push",
        &format!("{traced_us:.4} us/publish ({pct:+.1}%)"),
    );
    eprintln!(
        "  => absolute span cost ~{span_ns:.0} ns/publish; against multi-us scheduler \
         activations this is the <5% the sched/throughput gates hold (the bare \n     \
         fan-out above is the worst case: nothing but the span to amortise against)"
    );
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
