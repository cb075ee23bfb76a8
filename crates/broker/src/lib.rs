//! # safeweb-broker
//!
//! SafeWeb's IFC-aware event broker (§4.2): topic-based publish/subscribe
//! with optional SQL-92 content selectors, where delivery additionally
//! requires the subscriber's **clearance privileges** to cover every
//! confidentiality label on the event.
//!
//! Three layers:
//!
//! * [`Broker`] — the embedded matching/filtering core (usable in-process),
//! * [`BrokerServer`] — the networked broker speaking the STOMP dialect of
//!   `safeweb-stomp` over TCP, assigning privileges per the policy file,
//! * [`EventClient`] — the blocking client units use to publish/subscribe.
//!
//! ```
//! use safeweb_broker::Broker;
//! use safeweb_events::Event;
//! use safeweb_labels::{Label, Privilege, PrivilegeSet};
//!
//! let broker = Broker::new();
//! let patient = Label::conf("ecric.org.uk", "patient/1");
//! let mut clearance = PrivilegeSet::new();
//! clearance.grant(Privilege::clearance(patient.clone()));
//!
//! let rx = broker.subscribe("mdt_unit", "1", "/patient_report", None, clearance);
//! let event = Event::new("/patient_report")?.with_labels([patient]);
//! assert_eq!(broker.publish(&event), 1);
//! assert_eq!(rx.recv().unwrap().event.topic(), "/patient_report");
//! # Ok::<(), safeweb_events::EventError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod broker;
mod client;
mod server;
pub mod wire;

pub use broker::{
    Broker, BrokerOptions, BrokerStats, Delivery, DeliverySink, SubscriptionKey, TopicPattern,
};
pub use client::{ClientDelivery, ClientError, EventClient};
pub use server::{BrokerServer, MAX_SUBSCRIPTIONS, OUTBOX_CAP};
