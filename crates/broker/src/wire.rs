//! Mapping between [`LabelledEvent`]s and STOMP frames.
//!
//! Event attributes travel as ordinary headers; the middleware adds the
//! protected headers `x-safeweb-id` and `x-safeweb-labels` (§4.2: "labels
//! ... are encoded as event headers with special semantics").

use std::fmt;

use safeweb_events::{Event, EventError, EventId, LabelledEvent};
use safeweb_labels::LabelSet;
use safeweb_stomp::{Command, Frame};

/// Header carrying the label set on the wire.
pub const LABELS_HEADER: &str = "x-safeweb-labels";
/// Header carrying the event id on the wire.
pub const ID_HEADER: &str = "x-safeweb-id";
/// Header carrying the destination topic.
pub const DESTINATION_HEADER: &str = "destination";
/// Header identifying which subscription a MESSAGE belongs to.
pub const SUBSCRIPTION_HEADER: &str = "subscription";
/// Header carrying a content-based subscription selector.
pub const SELECTOR_HEADER: &str = "selector";
/// Label sets this process may hold before a frame's label set is refused
/// unless already interned: room for four times the 947 the MDT deployment
/// interns. The intern table never evicts, so without this cap a peer
/// cycling label URIs would grow it, and the process, without bound.
pub const WIRE_INTERN_CAP: usize = 4096;

/// Error converting a frame into an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame has no `destination` header.
    MissingDestination,
    /// The labels header did not parse.
    BadLabels(String),
    /// The label set is novel and the intern table is at [`WIRE_INTERN_CAP`].
    LabelTableFull,
    /// The body is not valid UTF-8 (event payloads are untyped *strings*).
    BadBody,
    /// The attributes were invalid as event attributes.
    BadEvent(EventError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::MissingDestination => write!(f, "frame has no destination header"),
            WireError::BadLabels(s) => write!(f, "malformed labels header: {s}"),
            WireError::LabelTableFull => write!(f, "label set refused: intern table full"),
            WireError::BadBody => write!(f, "event body is not valid UTF-8"),
            WireError::BadEvent(e) => write!(f, "invalid event: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<EventError> for WireError {
    fn from(e: EventError) -> WireError {
        WireError::BadEvent(e)
    }
}

/// Encodes a labelled event as a frame with the given command
/// (`SEND` from publishers, `MESSAGE` from the broker).
pub fn event_to_frame(event: &LabelledEvent, command: Command) -> Frame {
    let mut frame = Frame::new(command)
        .with_header(DESTINATION_HEADER, event.topic())
        .with_header(ID_HEADER, event.event().id().to_string())
        .with_header(LABELS_HEADER, event.labels().to_wire());
    for (k, v) in event.event().attributes() {
        frame.push_header(k.clone(), v.clone());
    }
    if let Some(payload) = event.event().payload() {
        frame.set_body(payload.as_bytes().to_vec());
    }
    frame
}

/// Decodes a `SEND`/`MESSAGE` frame back into a labelled event.
///
/// Unknown non-protected headers become event attributes. A missing labels
/// header decodes as the empty label set (public data).
///
/// # Errors
///
/// Returns [`WireError`] when the destination is missing, the labels
/// header is malformed or names a novel set past [`WIRE_INTERN_CAP`], the
/// body is not UTF-8, or an attribute is invalid.
pub fn frame_to_event(frame: &Frame) -> Result<LabelledEvent, WireError> {
    frame_to_event_within(frame, WIRE_INTERN_CAP).map(|(event, _)| event)
}

/// [`frame_to_event`] with the intern cap `cap` in place of
/// [`WIRE_INTERN_CAP`] (0 admits only known label sets), also returning
/// the number of intern-table entries decoding added (0 to 3).
///
/// # Errors
///
/// As [`frame_to_event`], with [`WireError::LabelTableFull`] past `cap`.
pub fn frame_to_event_within(
    frame: &Frame,
    cap: usize,
) -> Result<(LabelledEvent, usize), WireError> {
    let topic = frame
        .header(DESTINATION_HEADER)
        .ok_or(WireError::MissingDestination)?;
    let mut event = Event::new(topic).map_err(WireError::BadEvent)?;

    if let Some(id) = frame.header(ID_HEADER) {
        if let Ok(id) = id.parse::<EventId>() {
            event.set_id(id);
        }
    }

    for (k, v) in frame.headers() {
        match k.as_str() {
            DESTINATION_HEADER | ID_HEADER | LABELS_HEADER | SUBSCRIPTION_HEADER
            | SELECTOR_HEADER | "content-length" | "receipt" | "id" => {}
            _ => event.set_attr(k, v)?,
        }
    }

    if !frame.body().is_empty() {
        let body = frame.body_str().ok_or(WireError::BadBody)?;
        event.set_payload(body);
    }

    let (labels, added) = match frame.header(LABELS_HEADER) {
        Some(wire) => LabelSet::from_wire_within(wire, cap)
            .map_err(|e| WireError::BadLabels(e.to_string()))?
            .ok_or(WireError::LabelTableFull)?,
        None => (LabelSet::new(), 0),
    };
    Ok((event.with_label_set(labels), added))
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::Label;

    #[test]
    fn event_frame_roundtrip() {
        let event = Event::new("/patient_report")
            .unwrap()
            .with_attr("type", "cancer")
            .with_attr("patient_id", "42")
            .with_payload("details")
            .with_labels([Label::conf("ecric.org.uk", "patient/42")]);
        let frame = event_to_frame(&event, Command::Send);
        let back = frame_to_event(&frame).unwrap();
        assert_eq!(back.topic(), "/patient_report");
        assert_eq!(back.attr("type"), Some("cancer"));
        assert_eq!(back.attr("patient_id"), Some("42"));
        assert_eq!(back.event().payload(), Some("details"));
        assert_eq!(back.labels(), event.labels());
        assert_eq!(back.event().id(), event.event().id());
    }

    #[test]
    fn missing_labels_header_is_public() {
        let frame = Frame::new(Command::Send).with_header(DESTINATION_HEADER, "/t");
        let event = frame_to_event(&frame).unwrap();
        assert!(event.labels().is_empty());
    }

    #[test]
    fn missing_destination_rejected() {
        let frame = Frame::new(Command::Send);
        assert_eq!(frame_to_event(&frame), Err(WireError::MissingDestination));
    }

    #[test]
    fn malformed_labels_rejected() {
        let frame = Frame::new(Command::Send)
            .with_header(DESTINATION_HEADER, "/t")
            .with_header(LABELS_HEADER, "not-a-label");
        assert!(matches!(
            frame_to_event(&frame),
            Err(WireError::BadLabels(_))
        ));
    }

    #[test]
    fn non_utf8_body_rejected() {
        let frame = Frame::new(Command::Send)
            .with_header(DESTINATION_HEADER, "/t")
            .with_body(vec![0xff, 0xfe]);
        assert_eq!(frame_to_event(&frame), Err(WireError::BadBody));
    }
}
