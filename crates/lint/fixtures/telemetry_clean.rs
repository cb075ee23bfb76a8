//! Clean twin of `telemetry_violation.rs`: the same instrumentation
//! recording **structure only** — static names, route patterns,
//! prefixed metric names, durations and interned label-set ids.

/// Span named by the static unit name; the label slot carries only the
/// interned id.
pub fn trace_case(event: &LabelledEvent, unit_name: &str, start: u64) {
    record_span(
        "engine",
        unit_name,
        event.trace_id(),
        start,
        Some(event.labels().id().as_u32()),
    );
}

/// Metric names from static strings and a structural prefix; the
/// payload is only *measured*, never recorded.
pub fn count_request(registry: &MetricsRegistry, prefix: &str, bytes: usize) {
    let c = registry.counter(&format!("{prefix}.requests"));
    c.inc();
    let h = registry.histogram("web.body_bytes");
    h.observe(bytes as u64);
}

/// A per-task counter names the task, not its data.
pub fn profile_store(registry: &MetricsRegistry, task: &str) {
    registry.counter(task).inc();
}
