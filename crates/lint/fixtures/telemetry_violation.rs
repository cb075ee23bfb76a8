//! SEEDED VIOLATION (telemetry-hygiene): payload and principal data
//! flows into telemetry record sinks, directly and through `let`
//! bindings — the declassification side channel the label-safe
//! telemetry contract forbids.

/// Direct: an event attribute becomes a span name.
pub fn trace_case(event: &LabelledEvent, start: u64) {
    record_span(
        "engine",
        event.attr("patient").unwrap_or(""),
        event.trace_id(),
        start,
        None,
    );
}

/// Indirect: a principal-derived string flows through a binding into a
/// metric name (interpolated, so the leak hides inside the literal).
pub fn count_request(user: &AuthenticatedUser, registry: &MetricsRegistry) {
    let who = user.username.clone();
    let c = registry.counter(&format!("web.requests.{who}"));
    c.inc();
}

/// Document bytes as a metric name, through a binding.
pub fn profile_store(doc: &Document, registry: &MetricsRegistry) {
    let summary = doc.body_str().unwrap_or_default();
    registry.counter(summary).inc();
}
