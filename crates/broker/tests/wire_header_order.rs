//! A peer decides the order of a `SEND`'s headers, so that order must not
//! decide what converting the frame into an event costs: 50 000 distinct
//! headers in descending name order (each one sorting before all the
//! others) convert in about the time the same headers take in ascending
//! order. Inserting them one by one into the name-ordered attribute text
//! made the descending frame quadratic, minutes against milliseconds.

use std::time::{Duration, Instant};

use safeweb_broker::wire::{frame_to_event_within, WIRE_INTERN_CAP};
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};

const HEADERS: usize = 50_000;

fn send_with(names: impl Iterator<Item = usize>) -> Frame {
    let mut frame = Frame::new(Command::Send).with_header("destination", "/t");
    for i in names {
        frame.push_header(format!("h{i:05}"), "v");
    }
    let mut decoder = Decoder::new();
    decoder.feed(&encode(&frame));
    decoder.next_frame().unwrap().expect("a complete frame")
}

/// The fastest of three conversions of `frame`.
fn conversion_time(frame: &Frame) -> Duration {
    (0..3)
        .map(|_| {
            let frame = frame.clone();
            let started = Instant::now();
            let (event, _) =
                frame_to_event_within(frame, WIRE_INTERN_CAP, |_| Ok(())).expect("converts");
            let took = started.elapsed();
            assert_eq!(event.event().attributes().count(), HEADERS);
            assert_eq!(event.attr("h00000"), Some("v"));
            took
        })
        .min()
        .unwrap()
}

#[test]
fn header_order_does_not_decide_the_conversion_cost() {
    let ascending = conversion_time(&send_with(0..HEADERS));
    let descending = conversion_time(&send_with((0..HEADERS).rev()));
    assert!(
        descending <= ascending * 5 + Duration::from_millis(100),
        "descending headers took {descending:?}, ascending {ascending:?}"
    );
}
