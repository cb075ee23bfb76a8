//! # safeweb
//!
//! Top-level facade for the SafeWeb workspace: re-exports every subsystem
//! crate plus the deployment builder from [`safeweb_core`]. Downstream
//! users can depend on this one crate; the repository's examples and
//! integration tests are written against it.
//!
//! See `README.md` for an overview and `DESIGN.md` for the paper-to-crate
//! mapping.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use safeweb_core::{SafeWebBuilder, SafeWebDeployment, Zone, ZoneTopology, ZoneViolation};

pub use safeweb_broker as broker;
pub use safeweb_docstore as docstore;
pub use safeweb_engine as engine;
pub use safeweb_events as events;
pub use safeweb_http as http;
pub use safeweb_json as json;
pub use safeweb_labels as labels;
pub use safeweb_mdt as mdt;
pub use safeweb_obs as obs;
pub use safeweb_relstore as relstore;
pub use safeweb_sched as sched;
pub use safeweb_selector as selector;
pub use safeweb_stomp as stomp;
pub use safeweb_taint as taint;
pub use safeweb_web as web;

/// Crate version, for diagnostics.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
