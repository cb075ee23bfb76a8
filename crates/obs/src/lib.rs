//! Label-safe observability for SafeWeb.
//!
//! An IFC system has a constraint ordinary middleware does not:
//! telemetry is an **output channel**. Every counter name, span
//! annotation and health field this crate records may be scraped by an
//! operator whose clearance is unrelated to the data flowing through
//! the system, so nothing principal- or document-derived may ever reach
//! a telemetry sink. The contract, enforced by the `telemetry-hygiene`
//! rule in `safeweb-lint`:
//!
//! * metric names and span names are **author-written structure** —
//!   route patterns, topic names, unit names, component names;
//! * span annotations carry at most an interned label-set **id** (a
//!   `u32` handle that reveals which lattice point data sat at, never
//!   what the data was), durations, and counts;
//! * document fields, payload bytes, usernames and other
//!   principal-derived strings are banned from every record call.
//!
//! Two halves:
//!
//! * [`metrics`] — a registry of named counters, gauges and
//!   fixed-bucket histograms. The record paths are lock-free (single
//!   relaxed atomic RMWs); the registry lock is only taken to look a
//!   handle up by name, so hot paths hold their handles.
//! * [`trace`] — a `Copy` [`TraceId`] minted at the frontend (or at
//!   first publish for engine-originated events), threaded through
//!   `LabelledEvent`, scheduler activations, broker delivery and
//!   docstore writes; spans land in bounded per-component rings and
//!   [`Tracer::trace`] stitches one request's path back together.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use trace::{
    current_trace, now_ns, record_span, trace_scope, tracer, Span, TraceId, TraceScope, Tracer,
};
