//! Allocation budget of a STOMP `SEND` on its way to the broker: decoding
//! the frame, converting it into a `LabelledEvent`, and the event a unit
//! builds with seven attributes. Counted per thread by
//! `safeweb_reactor::sys::CountingAlloc` (this binary only installs it).
//!
//! The frame is the benchmark generator's tumour update: eight headers
//! (destination, labels and the producer's six attributes) and a JSON
//! payload, with its label set already interned, as in steady state.
//! Frame headers and event attributes each live in one buffer, so none of
//! the budgets grows with the header count (25, 18 and 16 allocations
//! while every name and value was its own `String`).

use safeweb_broker::wire::{frame_to_event, frame_to_event_within, WIRE_INTERN_CAP};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{check_relabel, PrivilegeSet, RemoveSpec};
use safeweb_reactor::sys::{thread_allocations, CountingAlloc};
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Decoding one frame: header text, spans and body.
const DECODE_BUDGET: u64 = 3;
/// Frame → `LabelledEvent`: topic, attribute text and spans, plus the
/// label parse (the `Vec` and the two `Arc<str>` of one label). The
/// relabel rule, as the server applies it to an unprivileged sender's
/// confidentiality label, allocates nothing.
const CONVERT_BUDGET: u64 = 6;
/// `Event::new` plus `set_attrs` of seven attributes.
const EVENT_BUDGET: u64 = 4;

const LABELS: &str = "label:conf:ecric.org.uk/mdt/mdt-0-0-42";
const ATTRIBUTES: [(&str, &str); 6] = [
    ("kind", "tumour"),
    ("type", "cancer"),
    ("case_id", "4217"),
    ("mdt", "mdt-0-0-42"),
    ("hospital_id", "1"),
    ("region_id", "0"),
];

/// The wire bytes of one benchmark-shaped `SEND`.
fn send_bytes() -> Vec<u8> {
    let mut frame = Frame::new(Command::Send)
        .with_header("destination", "/patient_report")
        .with_header("x-safeweb-labels", LABELS);
    for (name, value) in ATTRIBUTES {
        frame.push_header(name, value);
    }
    encode(&frame.with_body(r#"{"stage":"II","diagnosed":2005,"marker":4217}"#))
}

fn decode(bytes: &[u8]) -> Frame {
    let mut decoder = Decoder::new();
    decoder.feed(bytes);
    decoder.next_frame().unwrap().expect("a complete frame")
}

/// `f`'s result and the allocations this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocations();
    let out = f();
    (out, thread_allocations() - before)
}

/// Interns the label set and touches this thread's lazily built state
/// (trace scope, event id prefix), so only the steady state is counted.
fn warm_up(bytes: &[u8]) -> LabelledEvent {
    frame_to_event(&decode(bytes)).expect("the SEND converts")
}

#[test]
fn a_send_decodes_within_its_budget() {
    let bytes = send_bytes();
    let mut decoder = Decoder::new();
    decoder.feed(&bytes);
    let (frame, allocations) = counted(|| decoder.next_frame());
    let frame = frame.unwrap().expect("a complete frame");
    assert_eq!(
        frame.headers().count(),
        9,
        "eight headers and content-length"
    );
    assert_eq!(frame.header("case_id"), Some("4217"));
    assert!(
        allocations <= DECODE_BUDGET,
        "decoding took {allocations} allocations, budget {DECODE_BUDGET}"
    );
}

/// A frame whose last bytes are still in flight is parsed once: the
/// decoder keeps its head and where its search stopped, so asking again
/// allocates nothing (two allocations a call while every call re-parsed
/// the head).
#[test]
fn an_incomplete_send_is_parsed_once() {
    let bytes = send_bytes();
    let mut decoder = Decoder::new();
    decoder.feed(&bytes[..bytes.len() - 10]);
    let (pending, allocations) = counted(|| {
        (0..5)
            .map(|_| decoder.next_frame().unwrap())
            .all(|frame| frame.is_none())
    });
    assert!(pending, "decoded a frame missing its last bytes");
    assert!(
        allocations <= 2,
        "five decodes of an incomplete frame took {allocations} allocations"
    );
    decoder.feed(&bytes[bytes.len() - 10..]);
    assert_eq!(decoder.next_frame().unwrap(), Some(decode(&bytes)));
}

#[test]
fn a_send_becomes_an_event_within_its_budget() {
    let bytes = send_bytes();
    let expected = warm_up(&bytes);
    let frame = decode(&bytes);
    let privileges = PrivilegeSet::new();
    let admit = |add: &[_]| check_relabel(&[], &RemoveSpec::None, add, &privileges, false);
    let (converted, allocations) = counted(|| frame_to_event_within(frame, WIRE_INTERN_CAP, admit));
    let (event, added) = converted.expect("the SEND converts");
    assert_eq!(added, 0, "the label set was interned already");
    let mut in_name_order = ATTRIBUTES;
    in_name_order.sort();
    assert!(event.event().attributes().eq(in_name_order));
    assert_eq!(event.topic(), expected.topic());
    assert_eq!(event.event().payload(), expected.event().payload());
    assert_eq!(event.labels(), expected.labels());
    assert!(
        allocations <= CONVERT_BUDGET,
        "conversion took {allocations} allocations, budget {CONVERT_BUDGET}"
    );
}

#[test]
fn a_seven_attribute_event_stays_within_its_budget() {
    warm_up(&send_bytes());
    let (event, allocations) = counted(|| {
        let mut event = Event::new("/patient_report").unwrap();
        event
            .set_attrs(ATTRIBUTES.into_iter().chain([("clinic", "Oncology")]))
            .unwrap();
        event
    });
    assert_eq!(event.attributes().count(), 7);
    assert_eq!(event.attr("clinic"), Some("Oncology"));
    assert!(
        allocations <= EVENT_BUDGET,
        "the event took {allocations} allocations, budget {EVENT_BUDGET}"
    );
}
