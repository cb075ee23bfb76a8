//! # safeweb-sched
//!
//! A work-stealing task scheduler that multiplexes thousands of
//! event-processing units onto a **fixed** pool of worker threads. It
//! replaces the engine's original thread-per-unit execution model, whose
//! OS-thread cost capped a deployment at a few hundred units; with the
//! scheduler, one SafeWeb process holds one isolated unit per tenant for
//! thousands of tenants.
//!
//! ## Model
//!
//! A task is a named message-driven actor: a bounded inbox plus a
//! handler closure. Senders push messages through a cloneable
//! [`TaskSender`]; the scheduler runs the handler over batches of queued
//! messages on whichever worker picks the task up. Three guarantees hold
//! for every task, under any stealing interleaving:
//!
//! * **FIFO** — messages are handed to the handler in exactly the order
//!   their sends completed;
//! * **no concurrent execution** — a task's handler never runs on two
//!   workers at once (tasks move between workers, but one at a time);
//! * **bounded inboxes** — [`TaskSender::send`] blocks while the task's
//!   inbox is at capacity, pushing backpressure onto producers instead of
//!   buffering unboundedly. (Sends from the pool's own worker threads
//!   bypass the cap — see the backpressure section below.)
//!
//! `tests/sched_props.rs` holds all three properties against a
//! sequential executable specification under randomized worker counts,
//! message interleavings and handler delays, in the style of the broker's
//! `routing_equivalence` suite.
//!
//! ## Scheduling
//!
//! Each worker owns a run queue of ready tasks; a task whose inbox goes
//! empty→non-empty is enqueued on the notifying worker's own queue (or a
//! shared injector queue when the sender is not a worker). An idle worker
//! pops its own queue first, then the injector, then **steals** from the
//! other workers' queues, so a burst aimed at one worker's tasks spreads
//! across the pool. Per activation a task drains at most
//! [`SchedulerOptions::burst`] messages before re-queuing itself at the
//! back, so one hot task cannot starve the rest.
//!
//! A handler panic is **isolated**: the worker survives, the panicking
//! task is poisoned (inbox closed, pending messages dropped) and the
//! panic is reported through [`Scheduler::panics`]; every other task keeps
//! running.
//!
//! A task lives while a [`TaskSender`] or a run queue holds it: the
//! scheduler's own registry is weak, so a task whose senders are all
//! dropped is freed, handler and all, once its inbox has drained. That
//! makes short-lived tasks cheap — the network frontends spawn one per
//! connection — and shutdown still closes every live inbox and runs
//! every accepted message.
//!
//! ## Backpressure
//!
//! The cap applies to **external** senders only: sends from one of the
//! pool's own worker threads (a handler publishing to itself or to a
//! sibling task) bypass it, because a worker blocked on a sibling's full
//! inbox can never be the worker that drains it — on a one-worker pool a
//! single capped task→task edge would deadlock, and on any pool a
//! saturated cycle would. Backpressure therefore holds where load
//! *enters* the pool; what a capped ingress admits bounds the in-pool
//! fan-out (times the pipeline's amplification factor).
//!
//! Load enters in two ways, and both are capped:
//!
//! * **external sends** ([`TaskSender::send`] from a thread outside the
//!   pool) block while the target inbox is full;
//! * **ticks** ([`TaskSender::try_send`], the engine's timer driver) are
//!   refused while the pool's whole backlog
//!   ([`Scheduler::queued_messages`]) is at or above
//!   [`SchedulerOptions::inbox_cap`] — even when other tasks' messages
//!   make up that backlog — and while the ticked task is still queued or
//!   running. A timer-driven source (a producer that emits a batch per
//!   tick from inside the pool) therefore backs off while the pool holds a
//!   full inbox of work, has at most one tick in flight, and is ticked
//!   again once the backlog drains below the cap. The backlog it can
//!   build is bounded by the cap plus one tick's fan-out, times the
//!   pipeline's amplification (a task turning one message into three
//!   triples what reaches it).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod inbox;
mod scheduler;

pub use inbox::{SendError, TrySendError};
pub use scheduler::{Scheduler, SchedulerOptions, TaskPanic, TaskSender};
