//! # safeweb-engine
//!
//! SafeWeb's event processing engine (§4.3): the runtime environment for
//! application units. Its three key functions, per the paper:
//!
//! 1. **control of unit execution** — callbacks run inside an IFC [`Jail`]
//!    that tracks the ambient label set `$LABELS` from received events
//!    through the per-unit key-value store to published events;
//! 2. **privilege assignment** — each unit's clearance/declassification/
//!    endorsement privileges come from the policy file, keyed by unit name;
//! 3. **environment restriction** — jailed units have no I/O capability;
//!    only units declared `privileged` in the policy receive one
//!    (the Rust analogue of running at Ruby `$SAFE=0` vs `$SAFE=4`;
//!    see DESIGN.md §5 for the substitution argument).
//!
//! Units are declared with [`UnitSpec`] (compare the paper's Listing 1) and
//! executed by [`Engine`] over any [`EventBus`] — the embedded broker or a
//! networked STOMP connection ([`RemoteBus`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bus;
mod engine;
mod error;
mod jail;

pub use bus::{DeliverySink, EventBus, RemoteBus};
pub use engine::{
    Callback, Engine, EngineHandle, EngineOptions, TimerCallback, UnitSpec, Violation,
};
pub use error::{EngineError, UnitError};
pub use jail::{EventBuilder, IoCapability, Jail, LabelledStore, PublishSink, Relabel, RemoveSpec};
// Units run on the `safeweb-sched` worker pool; its options type is
// part of this crate's configuration surface.
pub use safeweb_sched::SchedulerOptions;
