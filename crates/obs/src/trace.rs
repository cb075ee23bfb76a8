//! End-to-end tracing: trace ids, spans and per-component rings.
//!
//! A [`TraceId`] is a `Copy` 64-bit handle minted once per causal chain
//! — at the frontend when a request arrives, or at first publish for an
//! engine-originated event — and threaded through `LabelledEvent`,
//! scheduler activations, broker delivery and docstore writes. Each
//! component records [`Span`]s into a bounded ring; [`Tracer::trace`]
//! stitches one id's spans back into the request's path.
//!
//! The tracer is process-global (ids are globally unique, and spans for
//! one request cross every component in the process), unlike the
//! instance-scoped metrics registry. Span *names* obey the crate-level
//! label-safety contract: route patterns, topics, unit names — never
//! payloads or principals. The only per-datum annotation a span may
//! carry is an interned label-set id.
//!
//! A span owns no heap memory for its name: names are interned as
//! [`Key`]s, in the one bounded process-wide table JSON object keys use,
//! so recording under a name already seen copies a pointer. The table's
//! caps hold against a peer that picks ever-new topics (broker span
//! names are topics): a name past them is stored owned.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use safeweb_json::{Key, Value};
use safeweb_sync::{Mutex, RwLock};

/// Spans retained per component ring.
const RING_CAP: usize = 4096;

/// A `Copy` identifier for one causal chain (one HTTP request, or one
/// engine-originated event cascade). Zero means "not traced".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The absent trace id.
    pub const UNSET: TraceId = TraceId(0);

    /// Mints a fresh process-unique id (never [`TraceId::UNSET`]).
    pub fn mint() -> TraceId {
        static SEED: OnceLock<u64> = OnceLock::new();
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let seed = *SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            // Low bits stay zero so the per-process counter, which
            // occupies them, cannot collide with the seed's entropy.
            (nanos ^ (u64::from(std::process::id()) << 32)) << 20
        });
        loop {
            let id = seed.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed));
            if id != 0 {
                return TraceId(id);
            }
        }
    }

    /// Whether this id identifies a trace (non-zero).
    pub fn is_set(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    /// Sixteen lowercase hex digits in one write: `{:016x}` writes the
    /// padding zeros apart from the digits, so `to_string` of an id with
    /// a leading zero digit made one more allocation than of one without.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut digits = [0u8; 16];
        for (i, digit) in digits.iter_mut().enumerate() {
            let nibble = (self.0 >> (60 - 4 * i)) & 0xf;
            *digit = b"0123456789abcdef"[nibble as usize];
        }
        f.write_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"))
    }
}

impl FromStr for TraceId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<TraceId, Self::Err> {
        u64::from_str_radix(s, 16).map(TraceId)
    }
}

/// Monotonic nanoseconds since process start — the shared clock every
/// span timestamp uses, so spans from different threads order.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now()
        .saturating_duration_since(epoch)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// One recorded hop of a trace.
#[derive(Clone, Debug)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Which component recorded it (`"frontend"`, `"broker"`, …).
    pub component: &'static str,
    /// Author-written structure only: route pattern, topic, unit name.
    /// Interned, so a span shares its name with every span that has it.
    pub name: Key,
    /// Start, on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional interned label-set (or privilege-set) id annotation.
    pub label: Option<u32>,
    /// Global record order, for stable sorting of same-start spans.
    pub seq: u64,
}

impl Span {
    fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.set("component", self.component);
        v.set("name", self.name.as_str());
        v.set("start_ns", self.start_ns as i64);
        v.set("dur_ns", self.dur_ns as i64);
        if let Some(label) = self.label {
            v.set("label_set_id", label);
        }
        v
    }
}

/// One component's bounded span ring, tagged with the component name.
type ComponentRing = (&'static str, Mutex<VecDeque<Span>>);

/// The process-global span store: one bounded ring per component.
pub struct Tracer {
    rings: RwLock<Vec<ComponentRing>>,
    seq: AtomicU64,
    enabled: AtomicBool,
}

/// The process-global [`Tracer`].
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        rings: RwLock::new(Vec::new()),
        seq: AtomicU64::new(0),
        enabled: AtomicBool::new(true),
    })
}

impl Tracer {
    /// Whether span recording is on (default: on).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span recording on or off process-wide. Trace ids keep
    /// flowing either way (they are a `Copy` field on events); only the
    /// ring writes stop. Public for the `obs` bench, which measures span
    /// recording on against off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records a finished span into its component ring. No-op when
    /// disabled or when `trace` is unset.
    pub fn record(&self, mut span: Span) {
        if !self.enabled() || !span.trace.is_set() {
            return;
        }
        span.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rings = self.rings.read();
        if let Some((_, ring)) = rings.iter().find(|(c, _)| *c == span.component) {
            push_bounded(ring, span);
            return;
        }
        drop(rings);
        let mut rings = self.rings.write();
        if let Some((_, ring)) = rings.iter().find(|(c, _)| *c == span.component) {
            push_bounded(ring, span);
            return;
        }
        let component = span.component;
        let ring = Mutex::new(VecDeque::with_capacity(64));
        push_bounded(&ring, span);
        rings.push((component, ring));
    }

    /// Reconstructs one trace: every retained span with this id, across
    /// all components, ordered by start time (record order breaks ties).
    pub fn trace(&self, id: TraceId) -> Vec<Span> {
        let mut out = Vec::new();
        if !id.is_set() {
            return out;
        }
        let rings = self.rings.read();
        for (_, ring) in rings.iter() {
            let ring = ring.lock();
            out.extend(ring.iter().filter(|s| s.trace == id).cloned());
        }
        drop(rings);
        out.sort_by_key(|s| (s.start_ns, s.seq));
        out
    }

    /// [`Tracer::trace`] rendered as JSON (the `/__obs/trace/:id` body).
    pub fn trace_json(&self, id: TraceId) -> Value {
        let spans = self.trace(id).iter().map(Span::to_json).collect();
        let mut out = Value::object();
        out.set("trace", id.to_string());
        out.set("spans", Value::Array(spans));
        out
    }
}

fn push_bounded(ring: &Mutex<VecDeque<Span>>, span: Span) {
    let mut ring = ring.lock();
    if ring.len() >= RING_CAP {
        ring.pop_front();
    }
    ring.push_back(span);
}

/// Records a span that started at `start_ns` and ends now.
///
/// This is the one-line helper every instrumentation site uses:
///
/// ```
/// let start = safeweb_obs::now_ns();
/// let id = safeweb_obs::TraceId::mint();
/// // ... do the work ...
/// safeweb_obs::record_span("frontend", "/records/:mid", id, start, None);
/// ```
pub fn record_span(
    component: &'static str,
    name: &str,
    trace: TraceId,
    start_ns: u64,
    label: Option<u32>,
) {
    let t = tracer();
    if !t.enabled() || !trace.is_set() {
        return;
    }
    t.record(Span {
        trace,
        component,
        name: Key::from(name),
        start_ns,
        dur_ns: now_ns().saturating_sub(start_ns),
        label,
        seq: 0,
    });
}

thread_local! {
    static CURRENT_TRACE: Cell<TraceId> = const { Cell::new(TraceId::UNSET) };
}

/// The trace id active on this thread ([`TraceId::UNSET`] outside any
/// [`trace_scope`]). `LabelledEvent` construction reads this, which is
/// how a frontend-minted id propagates into everything a handler or a
/// unit callback publishes.
pub fn current_trace() -> TraceId {
    CURRENT_TRACE.with(Cell::get)
}

/// RAII guard restoring the previous thread-trace on drop.
#[must_use = "dropping the scope immediately restores the previous trace"]
pub struct TraceScope {
    prev: TraceId,
}

/// Sets the thread's current trace for the lifetime of the returned
/// guard.
pub fn trace_scope(id: TraceId) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceScope { prev }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_set() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert!(a.is_set() && b.is_set());
        assert_ne!(a, b);
    }

    #[test]
    fn display_roundtrips() {
        let id = TraceId::mint();
        let parsed: TraceId = id.to_string().parse().unwrap();
        assert_eq!(id, parsed);
        assert_eq!(TraceId(0xabc).to_string(), "0000000000000abc");
        assert_eq!(TraceId(u64::MAX).to_string(), "ffffffffffffffff");
        assert!("zz".parse::<TraceId>().is_err());
    }

    #[test]
    fn trace_stitches_across_components_in_order() {
        let id = TraceId::mint();
        let other = TraceId::mint();
        let t0 = now_ns();
        record_span("alpha", "first", id, t0, None);
        record_span("beta", "second", id, t0 + 10, Some(7));
        record_span("alpha", "noise", other, t0, None);
        let spans = tracer().trace(id);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].component, "alpha");
        assert_eq!(spans[1].component, "beta");
        assert_eq!(spans[1].label, Some(7));
        let json = tracer().trace_json(id);
        assert_eq!(
            json.get("spans")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn unset_trace_records_nothing() {
        record_span("gamma", "x", TraceId::UNSET, now_ns(), None);
        assert!(tracer().trace(TraceId::UNSET).is_empty());
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_trace(), TraceId::UNSET);
        let a = TraceId::mint();
        let b = TraceId::mint();
        {
            let _outer = trace_scope(a);
            assert_eq!(current_trace(), a);
            {
                let _inner = trace_scope(b);
                assert_eq!(current_trace(), b);
            }
            assert_eq!(current_trace(), a);
        }
        assert_eq!(current_trace(), TraceId::UNSET);
    }
}
