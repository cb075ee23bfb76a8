//! Rule `telemetry-hygiene`: tainted or labelled values never become
//! telemetry.
//!
//! The observability layer (`safeweb-obs`) is deliberately outside the
//! label lattice: metric snapshots and trace rings are readable by any
//! admin, so anything recorded there is *implicitly declassified*. The
//! contract (enforced by convention at every instrumentation site, and
//! machine-checked here) is that telemetry carries **structure only** —
//! counts, durations, sequence numbers, interned label-set ids, static
//! route/unit names. Document fields, event payloads and
//! principal-derived strings must never reach a record sink, or the ops
//! page becomes a declassification side channel.
//!
//! The same-function, token-level flow walk it shares with
//! `query-hygiene` (`rules/flow.rs`):
//!
//! 1. an identifier is **payload-tainted** when its `let` initializer
//!    reads a payload or principal accessor — `.attr(…)` /
//!    `.attributes()` (event payloads), `.body(…)` / `.body_str()`
//!    (document/request bytes), `.to_json_sstr()` (labelled document
//!    rendering), or `.username` (principal-derived) — or mentions an
//!    already-tainted identifier;
//! 2. a **telemetry sink** whose *name-position* argument contains a
//!    payload accessor or a tainted identifier is a finding.
//!
//! Sinks and the argument scanned: `record_span` (the span name, second
//! argument) and the metric-name (first) argument of the registry
//! surface — `counter`,
//! `gauge`, `histogram`, `histogram_with`, `register_counter`,
//! `register_histogram`, `register_derived`.
//!
//! Numeric arguments (durations, counts, `labels().id().as_u32()`) are
//! structure by construction and not scanned. `format!` is *allowed* in
//! metric names — prefixed names like `format!("{prefix}.put_ns")` are
//! the registry idiom — unless the interpolation mentions a tainted
//! identifier or payload accessor.

use std::collections::HashSet;

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::rules::flow::{check_flows, Sink};
use crate::workspace::Workspace;

const RULE: &str = "telemetry-hygiene";

/// Sinks scanned at their first argument (the metric name).
const FIRST_ARG_SINKS: [&str; 7] = [
    "counter",
    "gauge",
    "histogram",
    "histogram_with",
    "register_counter",
    "register_histogram",
    "register_derived",
];

/// Sinks scanned at their second argument (the span name).
const SECOND_ARG_SINKS: [&str; 1] = ["record_span"];

/// Payload / principal accessors: an expression touching one of these
/// yields data, not structure.
const PAYLOAD_ACCESSORS: [&str; 6] = [
    "attr",
    "attributes",
    "body",
    "body_str",
    "to_json_sstr",
    "username",
];

/// Runs the rule over every non-test file.
pub fn check_telemetry_hygiene(ws: &Workspace) -> Vec<Finding> {
    check_flows(ws, RULE, is_payload_expr, sink)
}

/// The sink table: which argument of the call at `tokens[i]` names the
/// metric or span.
fn sink(tokens: &[Tok], i: usize) -> Option<Sink> {
    let name = tokens[i].text.as_str();
    let arg = if FIRST_ARG_SINKS.contains(&name) {
        0
    } else if SECOND_ARG_SINKS.contains(&name) {
        1
    } else {
        return None;
    };
    Some(Sink {
        arg: Some(arg),
        message: format!(
            "payload-derived value flows into telemetry sink `{name}`: \
             metric and span names must be structural (static strings, \
             route patterns, unit names) — never event attributes, \
             document fields, or principal-derived strings"
        ),
    })
}

/// Whether an expression's tokens reach payload data: a
/// `.accessor(`/`.accessor` read from [`PAYLOAD_ACCESSORS`], or an
/// already-tainted identifier.
fn is_payload_expr(tokens: &[Tok], tainted: &HashSet<String>) -> bool {
    for (j, t) in tokens.iter().enumerate() {
        // `format!("…{who}…")` captures by name inside the literal, so
        // interpolations count as uses of the interpolated binding.
        if t.kind == TokKind::Str
            && tainted.iter().any(|name| {
                t.text.contains(&format!("{{{name}}}")) || t.text.contains(&format!("{{{name}:"))
            })
        {
            return true;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        if tainted.contains(&t.text) {
            return true;
        }
        // Accessors only count as *reads* (`.attr(…)`, `.username`) so
        // a local named `body` or a struct field definition does not
        // trip the rule.
        if PAYLOAD_ACCESSORS.contains(&t.text.as_str()) && j > 0 && tokens[j - 1].is_punct('.') {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile};

    fn run(src: &str) -> Vec<Finding> {
        check_telemetry_hygiene(&Workspace::from_files(vec![SourceFile::from_source(
            "crates/x/src/a.rs",
            "x",
            FileKind::Src,
            src,
        )]))
    }

    #[test]
    fn event_attribute_in_span_name_is_flagged() {
        let src = r#"
fn f(event: &Event, start: u64, id: TraceId) {
    record_span("engine", event.attr("patient").unwrap_or(""), id, start, None);
}
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("record_span"));
    }

    #[test]
    fn tainted_let_flows_into_metric_name() {
        let src = r#"
fn f(user: &AuthenticatedUser, registry: &MetricsRegistry) {
    let who = user.username.clone();
    let c = registry.counter(&format!("web.requests.{who}"));
    c.inc();
}
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("counter"));
    }

    #[test]
    fn structural_names_and_prefixed_formats_pass() {
        let src = r#"
fn f(registry: &MetricsRegistry, prefix: &str, route: &str, id: TraceId, start: u64) {
    let c = registry.counter(&format!("{prefix}.accepted"));
    let h = registry.histogram("docstore.put_ns");
    record_span("frontend", route, id, start, Some(labels.id().as_u32()));
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn second_argument_only_is_scanned_for_spans() {
        // The numeric label-set id position may legitimately read from
        // the event; only the *name* slot is restricted.
        let src = r#"
fn f(event: &LabelledEvent, start: u64) {
    record_span("broker", event.topic(), event.trace_id(), start,
        Some(event.labels().id().as_u32()));
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn clean_rebinding_clears_taint() {
        let src = r#"
fn f(event: &Event, registry: &MetricsRegistry) {
    let name = event.attr("kind").unwrap_or("");
    let name = "static.metric";
    let c = registry.counter(name);
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn f(event: &Event, id: TraceId, start: u64) {
        record_span("x", event.attr("n").unwrap(), id, start, None);
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn sink_definitions_are_not_calls() {
        let src = "pub fn record_span(component: &'static str, name: &str) { }";
        assert!(run(src).is_empty());
    }
}
