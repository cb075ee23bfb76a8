//! # safeweb-reactor
//!
//! The epoll-backed connection reactor under SafeWeb's network
//! frontends. The paper's middleware (and this repository's seed) served
//! every HTTP request and STOMP subscriber from its own blocking thread;
//! that model cannot hold the tens of thousands of idle subscriber
//! connections a deployed event broker accumulates. This crate replaces
//! it with the classic reactor pattern:
//!
//! * [`Reactor`] — one event-loop thread per frontend, multiplexing the
//!   listener and all connections through `epoll` with nonblocking
//!   sockets (direct `extern "C"` bindings in [`sys`]; the build
//!   environment has no crates.io, matching the repository's shim
//!   approach).
//! * [`Protocol`] — the per-connection state machine a frontend plugs in
//!   (incremental HTTP request parsing, STOMP frame decoding). Runs on
//!   the reactor thread; must never block.
//! * [`ConnHandle`] — how everything off the reactor thread talks to a
//!   connection: bounded outbound byte queues (backpressure caps), close
//!   requests, and jobs ([`ConnHandle::dispatch`]) sent to the
//!   connection's task on the frontend's `safeweb-sched` scheduler.
//!
//! # Invariants
//!
//! * The reactor thread never blocks on application work; protocols
//!   dispatch it to the scheduler.
//! * Jobs dispatched through one connection run in FIFO order, so
//!   responses and frame effects keep wire order without per-connection
//!   threads.
//! * A connection with [`MAX_IN_FLIGHT`] unfinished jobs is not read
//!   until half of them have finished, whatever the protocol.
//! * A job that panics closes its own connection only; the jobs queued
//!   after it still run, and so does every other connection.
//! * A transient `accept()` error (e.g. `EMFILE`) never stops the accept
//!   loop: it is logged and retried after a short backoff.
//! * Outbound queues are bounded; a slow consumer surfaces as
//!   [`SendError::Overflow`] and the protocol chooses the policy.
//!
//! Thread count is `1 + workers` per frontend, with workers
//! `clamp(cores, 2, 8)`, independent of connection count — the property
//! the idle-connection benches in `safeweb-bench` measure.

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod conn;
mod reactor;
pub mod sys;

pub use conn::{ConnHandle, SendError, MAX_IN_FLIGHT};
pub use reactor::{Protocol, Reactor, ReactorConfig};
