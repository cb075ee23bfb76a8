//! # safeweb-events
//!
//! The SafeWeb event model (§4.1): an event is a set of key-value
//! attribute pairs plus an optional data payload, all untyped strings. A
//! [`LabelledEvent`] pairs an event with the [`LabelSet`](safeweb_labels::LabelSet) the middleware
//! tracks as the event propagates between processing units.
//!
//! ```
//! use safeweb_events::Event;
//! use safeweb_labels::Label;
//!
//! let event = Event::new("/patient_report")?
//!     .with_attr("type", "cancer")
//!     .with_attr("patient_id", "33812769")
//!     .with_payload("histology: ...");
//! let labelled = event.with_labels([Label::conf("ecric.org.uk", "patient/33812769")]);
//! assert_eq!(labelled.labels().len(), 1);
//! # Ok::<(), safeweb_events::EventError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;

pub use event::{Event, EventError, LabelledEvent, RESERVED_ATTRIBUTES};
