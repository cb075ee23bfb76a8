//! A span owns no heap memory for its name: recording under a name the
//! process has already seen allocates nothing once the component's ring
//! is full. Counted per thread by `safeweb_reactor::sys::CountingAlloc`
//! (this binary only installs it).

use safeweb_obs::{now_ns, record_span, tracer, Span, TraceId};
use safeweb_reactor::sys::{thread_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// More spans than a component ring retains, so the ring is at its cap
/// and every later span replaces its oldest.
const FILL: usize = 5_000;

#[test]
fn a_span_under_a_seen_name_allocates_nothing() {
    let id = TraceId::mint();
    for _ in 0..FILL {
        record_span("span-allocs", "/patient_report", id, now_ns(), Some(3));
        record_span("span-allocs", "/mdt/:mid", id, now_ns(), None);
    }

    let before = thread_allocations();
    for _ in 0..1_000 {
        record_span("span-allocs", "/patient_report", id, now_ns(), Some(3));
        record_span("span-allocs", "/mdt/:mid", id, now_ns(), None);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(allocations, 0, "2 000 spans under seen names allocated");

    let spans = tracer().trace(id);
    assert!(spans.iter().any(|s| s.name.as_str() == "/mdt/:mid"));
    assert!(spans.iter().all(|s| s.name.is_interned()));
    // A ring slot is the whole record: the name is one pointer and a tag.
    assert_eq!(std::mem::size_of::<Span>(), 72);
}

/// A name past the intern table's length cap is still recorded, as an
/// owned copy.
#[test]
fn a_name_too_long_to_intern_is_recorded_owned() {
    let id = TraceId::mint();
    let long = format!("/{}", "t".repeat(64));
    record_span("span-allocs-long", &long, id, now_ns(), None);
    let spans = tracer().trace(id);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name.as_str(), long);
    assert!(!spans[0].name.is_interned());
}
