//! One run: set the deployment up, measure a fixed amount of work in
//! slices, check the outputs, and condense the slices into the metrics
//! `BENCHMARK.json` names. `--trace 0` gives the end-to-end metrics,
//! `--trace 1` the per-layer ones.

use std::time::Instant;

use safeweb_json::{jobject, Value};
use safeweb_labels::{LabelSet, PrivilegeSet};

use crate::check;
use crate::layers;
use crate::rig::{Rig, ScratchDir};
use crate::span::Recorder;
use crate::stats::{hist_delta, hist_quantile, median, percentile};
use crate::sys;
use crate::workloads::{
    Driver, Slice, SliceSize, Workload, MIXED_WRITES_PER_S, OP_CASE, OP_METRICS, OP_PAGE, SLICES,
};

/// A slice during which the hypervisor kept more than this much of one
/// core from the machine timed the host's neighbours, not the program.
/// The signal comes from outside the process (`steal` in `/proc/stat`),
/// so a cost the program itself pays in some slices is never set aside.
const STEAL_LIMIT_CORES: f64 = 0.05;
/// How many such slices an untraced run sets aside and measures again
/// before it keeps them like any other.
const SPARE_SLICES: usize = 4;
/// Slices of a traced run, which does a third of the work in total.
const TRACED_SLICES: usize = 6;

/// The end-to-end metrics, the same five on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, printed by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("http.parse_us", "us"),
    ("http.wire_us", "us"),
    ("http.accepted", "count"),
    ("reactor.outbox_bytes_max", "bytes"),
    ("web.handle_us", "us"),
    ("web.auth_us", "us"),
    ("web.privilege_fetch_us", "us"),
    ("web.handler_us", "us"),
    ("web.label_check_us", "us"),
    ("web.denied", "count"),
    ("web.render_cache.lookups", "count"),
    ("web.render_cache.hit_rate", "ratio"),
    ("labels.flows_to_cold_us", "us"),
    ("labels.flows_to_memo_us", "us"),
    ("labels.interned_sets", "count"),
    ("docstore.view_query_us", "us"),
    ("docstore.view_docs", "count"),
    ("docstore.put_us_p50", "us"),
    ("docstore.put_us_p99", "us"),
    ("docstore.wal_bytes_per_case", "bytes"),
    ("docstore.replicate_us_per_doc", "us"),
    ("docstore.replica_lag_ms_p50", "ms"),
    ("docstore.replica_lag_ms_p99", "ms"),
    ("docstore.wal_fsync_us", "us"),
    ("stomp.encode_us", "us"),
    ("stomp.decode_us", "us"),
    ("broker.publish_us_p50", "us"),
    ("broker.publish_us_p99", "us"),
    ("broker.delivered_per_published", "ratio"),
    ("broker.label_filtered", "count"),
    ("sched.activation_us_p50", "us"),
    ("sched.activation_us_p99", "us"),
    ("sched.queued_max", "count"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("engine.pipeline_ms_p50", "ms"),
    ("engine.pipeline_ms_p99", "ms"),
    ("engine.violations", "count"),
    ("json.parse_us", "us"),
    ("json.serialize_us", "us"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("enforce.page_tax", "ratio"),
    ("enforce.ingest_tax", "ratio"),
    ("loadgen.page_p99_ms", "ms"),
    ("loadgen.visible_p50_ms", "ms"),
    ("loadgen.visible_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.cpu_cores", "cores"),
    ("host.spin_ms_p50", "ms"),
    ("host.spin_ms_max", "ms"),
    ("host.steal_cores", "cores"),
    ("trace.page_stage_sum_share", "ratio"),
    ("trace.case_stage_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything a reader may want beside the metrics.
    pub summary: Value,
}

impl Outcome {
    /// The summary on one line, ending with the claim this benchmark
    /// makes: it measures, and claims no gain.
    pub fn summary_line(&self) -> String {
        let json = self.summary.to_json();
        let open = json
            .strip_suffix('}')
            .expect("a JSON object ends with a brace");
        format!("{open},\"claim\":null}}")
    }

    /// The contract's result object, on one line.
    pub fn result_line(&self, units: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `process_start` is where `setup_s` starts counting.
pub fn run(args: &RunArgs, process_start: Instant) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args, process_start)
    }
}

/// Builds the deployment and runs the unmeasured warm-up slice; returns
/// the rig and the seconds from `from` to ready.
fn set_up(args: &RunArgs, enforcing: bool, slices: usize, from: Instant) -> (Rig, f64) {
    let rig = Rig::start(args.seed, enforcing);
    let warm_up = SliceSize::of(args.workload, args.seconds / 4.0, slices);
    // Its own stream: the measured slices start theirs from the top.
    let mut driver = Driver::new(&rig, args.workload, args.seed ^ 0x7761_726d);
    driver.age_store();
    driver.slice(warm_up, None);
    drop(driver);
    let ready = from.elapsed().as_secs_f64();
    (rig, ready)
}

fn values(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> Vec<f64> {
    slices.iter().map(f).collect()
}

fn numbers(values: &[f64]) -> Value {
    Value::from(values.to_vec())
}

fn pooled(slices: &[Slice], f: impl Fn(&Slice) -> &Vec<f64>) -> Vec<f64> {
    slices.iter().flat_map(|s| f(s).iter().copied()).collect()
}

/// `mixed` only: the schedule may end with at most one second of offered
/// writes not yet visible.
fn backlog_problem(workload: Workload, slices: &[Slice]) -> Option<String> {
    let worst = slices.iter().map(|s| s.backlog_end).max().unwrap_or(0);
    (workload == Workload::Mixed && worst as f64 > MIXED_WRITES_PER_S).then(|| {
        format!("backlog of {worst} updates at the end of a slice: the system is not keeping up")
    })
}

/// `--baseline-only`: the paper's §5.3 baseline — a portal built with
/// `label_tracking: false` and served with `label_checking: false` —
/// running the plain slices of a traced run; returns the median of their
/// latency p50s in ms.
pub fn baseline_only(args: &RunArgs) -> Result<f64, String> {
    let (rig, _) = set_up(args, false, 3 * TRACED_SLICES, Instant::now());
    let size = SliceSize::of(args.workload, args.seconds / 3.0, TRACED_SLICES);
    let mut driver = Driver::new(&rig, args.workload, args.seed);
    let slices: Vec<Slice> = (0..TRACED_SLICES / 2)
        .map(|_| driver.slice(size, None))
        .collect();
    match slices.iter().map(|s| s.failed).sum::<u64>() {
        0 => Ok(median(&values(&slices, Slice::latency_p50_ms))),
        failed => Err(format!("{failed} operations failed on the baseline portal")),
    }
}

/// Runs this executable again with `--baseline-only` and the run's
/// arguments and returns the one number it prints. The baseline portal
/// gets a process of its own because a second portal built in an already
/// populated heap renders pages up to a tenth slower than the first, which
/// is the size of the enforcement tax it is there to measure.
fn baseline_in_child(args: &RunArgs) -> Result<f64, String> {
    let output = self_command(args)?
        .arg("--baseline-only")
        .output()
        .map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| {
            format!(
                "--baseline-only child printed no number (exit {:?})",
                output.status.code()
            )
        })
}

/// This executable again, with the driver's four arguments for `args`.
pub fn self_command(args: &RunArgs) -> Result<std::process::Command, String> {
    let mut command =
        std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    Ok(command)
}

fn untraced(args: &RunArgs, process_start: Instant) -> Outcome {
    let mut problems = Vec::new();
    let (rig, setup_s) = set_up(args, true, SLICES, process_start);

    let size = SliceSize::of(args.workload, args.seconds, SLICES);
    let mut driver = Driver::new(&rig, args.workload, args.seed);
    let (mut slices, mut set_aside) = (Vec::new(), Vec::new());
    while slices.len() < SLICES {
        let slice = driver.slice(size, None);
        if slice.steal_cores() > STEAL_LIMIT_CORES && set_aside.len() < SPARE_SLICES {
            set_aside.push(slice);
        } else {
            slices.push(slice);
        }
    }

    problems.extend(check::verify(&rig, &driver.acked));
    problems.extend(backlog_problem(args.workload, &slices));
    // Operations of a slice set aside still count, and so do its failures.
    let all = || slices.iter().chain(&set_aside);
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();

    let throughput = values(&slices, Slice::throughput_per_s);
    let latency = values(&slices, Slice::latency_p50_ms);
    let cpu = values(&slices, Slice::cpu_ms_per_op);
    drop(driver);
    drop(rig);
    let metrics = vec![
        ("throughput_per_s", median(&throughput)),
        ("latency_p50_ms", median(&latency)),
        ("cpu_ms_per_op", median(&cpu)),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("setup_s", setup_s),
    ];
    let mut summary = header(args, size);
    summary.set("slice_wall_s", numbers(&values(&slices, |s| s.wall_s)));
    summary.set("slice_throughput_per_s", numbers(&throughput));
    summary.set("slice_latency_p50_ms", numbers(&latency));
    summary.set("slice_cpu_ms_per_op", numbers(&cpu));
    summary.set(
        "slice_cpu_cores",
        numbers(&values(&slices, |s| s.cpu_s / s.wall_s)),
    );
    summary.set(
        "slice_host_steal_cores",
        numbers(&values(&slices, Slice::steal_cores)),
    );
    summary.set(
        "set_aside_host_steal_cores",
        numbers(&values(&set_aside, Slice::steal_cores)),
    );
    summary.set(
        "set_aside_latency_p50_ms",
        numbers(&values(&set_aside, Slice::latency_p50_ms)),
    );
    if args.workload == Workload::Mixed {
        let p50 = |v: &Vec<f64>| percentile(&mut v.clone(), 0.5);
        summary.set(
            "slice_visible_p50_ms",
            numbers(&values(&slices, |s| p50(&s.visible_ms))),
        );
        summary.set(
            "slice_backlog_end",
            numbers(&values(&slices, |s| s.backlog_end as f64)),
        );
    }
    finish(summary, problems, attempted, failed, metrics)
}

fn header(args: &RunArgs, size: SliceSize) -> Value {
    jobject! {
        "workload" => args.workload.name(),
        "seed" => args.seed as i64,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "nproc" => sys::nproc(),
        "slice_reads" => size.reads,
        "slice_writes" => size.writes,
    }
}

fn finish(
    mut summary: Value,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
) -> Outcome {
    summary.set("attempted", attempted as i64);
    summary.set("failed", failed as i64);
    let correct = problems.is_empty() && failed == 0;
    summary.set("problems", Value::from(problems));
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        summary,
    }
}

fn traced(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let (rig, _) = set_up(args, true, 3 * TRACED_SLICES, Instant::now());
    let size = SliceSize::of(w, args.seconds / 3.0, TRACED_SLICES);
    let mut driver = Driver::new(&rig, w, args.seed);

    let registry = rig.portal.deployment().metrics().clone();
    let counters = [
        "frontend.accepted",
        "broker.published",
        "broker.delivered",
        "broker.label_filtered",
        "sched.steals",
        "sched.parks",
    ]
    .map(|name| registry.counter(name));
    let before = counters.each_ref().map(|c| c.get());
    let activation = registry.histogram("sched.activation_ns");
    let put = registry.histogram("docstore.app.put_ns");
    let (activation0, put0) = (activation.snapshot(), put.snapshot());
    let web0 = (
        rig.stats.denied(),
        rig.stats.render_cache_hits(),
        rig.stats.render_cache_misses(),
    );

    // Slices alternate plain (no spans: the reference for the same-run
    // ratios) and traced (spans and allocation counting). Half way, on
    // the two workloads the paper reports an enforcement tax for, the
    // baseline portal runs the plain slices in a child of its own.
    let mut rec = Recorder::new(Instant::now());
    let mut problems = Vec::new();
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let mut spins = Vec::new();
    let mut allocs = (0u64, 0u64);
    let mut baseline_p50 = None;
    for i in 0..TRACED_SLICES {
        if i == TRACED_SLICES / 2 && matches!(w, Workload::PageRender | Workload::Ingest) {
            match baseline_in_child(args) {
                Ok(p50) => baseline_p50 = Some(p50),
                Err(e) => problems.push(e),
            }
        }
        spins.push(sys::host_spin_ms());
        if i % 2 == 0 {
            plain.push(driver.slice(size, None));
        } else {
            let a0 = sys::alloc_counts();
            sys::set_alloc_counting(true);
            with_spans.push(driver.slice(size, Some(&mut rec)));
            sys::set_alloc_counting(false);
            let a1 = sys::alloc_counts();
            allocs = (allocs.0 + a1.0 - a0.0, allocs.1 + a1.1 - a0.1);
        }
    }

    let after = counters.each_ref().map(|c| c.get());
    let delta = |i: usize| (after[i] - before[i]) as f64;
    let activation = hist_delta(&activation0, &activation.snapshot());
    let put = hist_delta(&put0, &put.snapshot());
    let denied = rig.stats.denied() - web0.0;
    let (hits, misses) = (
        rig.stats.render_cache_hits() - web0.1,
        rig.stats.render_cache_misses() - web0.2,
    );

    problems.extend(check::verify(&rig, &driver.acked));
    problems.extend(backlog_problem(w, &plain));
    let probes = layers::probe(&rig, w, args.seed, &mut rec);
    let violations = rig.portal.deployment().engine_violations().len();

    let all = || plain.iter().chain(&with_spans);
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();
    let p50_of = |slices: &[Slice]| median(&values(slices, Slice::latency_p50_ms));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tax = baseline_p50.map_or(0.0, |base| ratio(p50_of(&plain), base) - 1.0);

    // Span populations. The headline read of the workload roots the page
    // stage sum; case updates root the case stage sum.
    let page_root = if w == Workload::SmallCached {
        OP_METRICS
    } else {
        OP_PAGE
    };
    let p = |name: &str, parent: Option<&str>, q: f64| {
        percentile(&mut rec.durations_us(name, parent), q)
    };
    let page_p50 = p(page_root, None, 0.5);
    let page_stages = probes.http_wire_us
        + probes.web_handle_self_us
        + [
            "web.privilege_fetch",
            "web.auth",
            "web.handler",
            "web.label_check",
        ]
        .iter()
        .map(|name| p(name, Some(page_root), 0.5))
        .sum::<f64>();
    let case_p50 = p(OP_CASE, None, 0.5);
    let case_stages = p("engine.pipeline", None, 0.5) + p("docstore.replica_lag", None, 0.5);

    let mut page_ms = pooled(&plain, |s| &s.latency_ms);
    let mut visible_ms = pooled(&plain, |s| &s.visible_ms);
    let mut late_ms = pooled(&plain, |s| &s.late_ms);
    let mixed = |v: f64| if w == Workload::Mixed { v } else { 0.0 };
    let traced_ops: u64 = with_spans.iter().map(Slice::completed).sum();

    let metrics = vec![
        ("http.parse_us", probes.http_parse_us),
        ("http.wire_us", probes.http_wire_us),
        ("http.accepted", delta(0)),
        (
            "reactor.outbox_bytes_max",
            with_spans
                .iter()
                .map(|s| s.outbox_bytes_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("web.handle_us", probes.web_handle_us),
        ("web.auth_us", p("web.auth", None, 0.5)),
        (
            "web.privilege_fetch_us",
            p("web.privilege_fetch", None, 0.5),
        ),
        ("web.handler_us", p("web.handler", None, 0.5)),
        ("web.label_check_us", p("web.label_check", None, 0.5)),
        ("web.denied", denied as f64),
        ("web.render_cache.lookups", (hits + misses) as f64),
        (
            "web.render_cache.hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("labels.flows_to_cold_us", probes.flows_to_cold_us),
        ("labels.flows_to_memo_us", probes.flows_to_memo_us),
        (
            "labels.interned_sets",
            (LabelSet::interned_count() + PrivilegeSet::interned_count()) as f64,
        ),
        ("docstore.view_query_us", probes.view_query_us),
        ("docstore.view_docs", probes.view_docs),
        ("docstore.put_us_p50", hist_quantile(&put, 0.5) / 1e3),
        ("docstore.put_us_p99", hist_quantile(&put, 0.99) / 1e3),
        ("docstore.wal_bytes_per_case", probes.wal_bytes_per_case),
        ("docstore.replicate_us_per_doc", probes.replicate_us_per_doc),
        (
            "docstore.replica_lag_ms_p50",
            p("docstore.replica_lag", None, 0.5) / 1e3,
        ),
        (
            "docstore.replica_lag_ms_p99",
            p("docstore.replica_lag", None, 0.99) / 1e3,
        ),
        ("docstore.wal_fsync_us", probes.wal_fsync_us),
        ("stomp.encode_us", probes.stomp_encode_us),
        ("stomp.decode_us", probes.stomp_decode_us),
        ("broker.publish_us_p50", probes.publish_us_p50),
        ("broker.publish_us_p99", probes.publish_us_p99),
        ("broker.delivered_per_published", ratio(delta(2), delta(1))),
        ("broker.label_filtered", delta(3)),
        (
            "sched.activation_us_p50",
            hist_quantile(&activation, 0.5) / 1e3,
        ),
        (
            "sched.activation_us_p99",
            hist_quantile(&activation, 0.99) / 1e3,
        ),
        (
            "sched.queued_max",
            with_spans
                .iter()
                .map(|s| s.sched_queued_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("sched.steals", delta(4)),
        ("sched.parks", delta(5)),
        (
            "engine.pipeline_ms_p50",
            p("engine.pipeline", None, 0.5) / 1e3,
        ),
        (
            "engine.pipeline_ms_p99",
            p("engine.pipeline", None, 0.99) / 1e3,
        ),
        ("engine.violations", violations as f64),
        ("json.parse_us", probes.json_parse_us),
        ("json.serialize_us", probes.json_serialize_us),
        (
            "alloc.count_per_op",
            ratio(allocs.0 as f64, traced_ops as f64),
        ),
        (
            "alloc.bytes_per_op",
            ratio(allocs.1 as f64, traced_ops as f64),
        ),
        (
            "enforce.page_tax",
            if w == Workload::PageRender { tax } else { 0.0 },
        ),
        (
            "enforce.ingest_tax",
            if w == Workload::Ingest { tax } else { 0.0 },
        ),
        ("loadgen.page_p99_ms", mixed(percentile(&mut page_ms, 0.99))),
        (
            "loadgen.visible_p50_ms",
            mixed(percentile(&mut visible_ms, 0.5)),
        ),
        (
            "loadgen.visible_p99_ms",
            mixed(percentile(&mut visible_ms, 0.99)),
        ),
        ("loadgen.late_p99_ms", mixed(percentile(&mut late_ms, 0.99))),
        (
            "loadgen.backlog_end",
            plain.iter().map(|s| s.backlog_end).max().unwrap_or(0) as f64,
        ),
        (
            "loadgen.cpu_cores",
            median(&values(&plain, |s| s.cpu_s / s.wall_s)),
        ),
        ("host.spin_ms_p50", median(&spins)),
        (
            "host.spin_ms_max",
            spins.iter().copied().fold(0.0, f64::max),
        ),
        (
            "host.steal_cores",
            median(&all().map(Slice::steal_cores).collect::<Vec<_>>()),
        ),
        ("trace.page_stage_sum_share", ratio(page_stages, page_p50)),
        ("trace.case_stage_sum_share", ratio(case_stages, case_p50)),
        (
            "trace.overhead_share",
            ratio(p50_of(&with_spans), p50_of(&plain)) - 1.0,
        ),
    ];

    let spans_path = ScratchDir::root().join(format!("spans-{}.jsonl", w.name()));
    if let Err(e) = rec.write_jsonl(&spans_path) {
        problems.push(format!("cannot write {}: {e}", spans_path.display()));
    }
    let mut summary = header(args, size);
    summary.set("spans", rec.len());
    summary.set("spans_file", spans_path.display().to_string());
    summary.set(
        "plain_latency_p50_ms",
        numbers(&values(&plain, Slice::latency_p50_ms)),
    );
    summary.set(
        "traced_latency_p50_ms",
        numbers(&values(&with_spans, Slice::latency_p50_ms)),
    );
    summary.set("baseline_latency_p50_ms", baseline_p50.unwrap_or(0.0));
    summary.set("host_spin_ms", numbers(&spins));
    finish(summary, problems, attempted, failed, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_and_every_digit() {
        let outcome = finish(
            Value::object(),
            vec![],
            1000,
            0,
            vec![("latency_p50_ms", 1.203_456_789), ("setup_s", f64::NAN)],
        );
        let line = outcome.result_line(&END_TO_END);
        let parsed = Value::parse(&line).expect("result line is JSON");
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            parsed
                .pointer("/metrics/latency_p50_ms/value")
                .and_then(Value::as_f64),
            Some(1.203_456_789)
        );
        assert_eq!(
            parsed
                .pointer("/metrics/latency_p50_ms/unit")
                .and_then(Value::as_str),
            Some("ms")
        );
        assert_eq!(
            parsed
                .pointer("/metrics/setup_s/value")
                .and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(outcome.correct);
        assert!(outcome.summary_line().ends_with("\"claim\":null}"));
        assert!(Value::parse(&outcome.summary_line()).is_ok());
    }

    #[test]
    fn a_failed_operation_or_a_problem_makes_the_run_incorrect() {
        assert!(!finish(Value::object(), vec![], 10, 1, vec![]).correct);
        assert!(!finish(Value::object(), vec!["x".into()], 10, 0, vec![]).correct);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
