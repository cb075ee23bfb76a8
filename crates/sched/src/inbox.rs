//! Bounded per-task inboxes: the backpressure edge of the scheduler.

use std::collections::VecDeque;
use std::fmt;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned by a blocking send; carries the unsent message.
pub struct SendError<M>(pub M);

impl<M> fmt::Debug for SendError<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<M> fmt::Display for SendError<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending to a closed task")
    }
}

/// Error returned by a non-blocking send; carries the unsent message.
pub enum TrySendError<M> {
    /// Not admitted now: the inbox or the pool's backlog is at capacity
    /// (or, for a tick, the task is still busy); the message was not
    /// queued.
    Full(M),
    /// The task is closed (scheduler shut down or task poisoned).
    Closed(M),
}

impl<M> fmt::Debug for TrySendError<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
            TrySendError::Closed(_) => f.write_str("TrySendError::Closed(..)"),
        }
    }
}

impl<M> fmt::Display for TrySendError<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("task inbox is full"),
            TrySendError::Closed(_) => f.write_str("sending to a closed task"),
        }
    }
}

struct State<M> {
    queue: VecDeque<M>,
    closed: bool,
}

/// A bounded MPSC queue. Pushes past `cap` block (or fail, for
/// [`Inbox::try_push`]) until the scheduler drains; the single consumer
/// is whichever worker currently runs the owning task.
pub(crate) struct Inbox<M> {
    state: Mutex<State<M>>,
    cap: usize,
    /// Signalled whenever queue space frees up or the inbox closes.
    space: Condvar,
    /// Scheduler-wide queued-message counter shared by every inbox of
    /// one pool; maintained on push/drain/close so an aggregate depth
    /// read costs one atomic load instead of a scan over all tasks.
    depth: Arc<AtomicUsize>,
}

/// What a completed push observed; `was_empty` drives the empty→non-empty
/// wakeup (pushes onto a non-empty inbox need no notify — the task is
/// already queued, running, or about to re-check).
pub(crate) struct Pushed {
    pub(crate) was_empty: bool,
}

impl<M> Inbox<M> {
    pub(crate) fn new(cap: usize, depth: Arc<AtomicUsize>) -> Inbox<M> {
        Inbox {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
            }),
            cap: cap.max(1),
            space: Condvar::new(),
            depth,
        }
    }

    /// Blocking push. `bypass_cap` is set for self-sends (a task sending
    /// to itself from its own handler), which must not block: the worker
    /// executing the task is the only thread that could ever drain it.
    pub(crate) fn push(&self, msg: M, bypass_cap: bool) -> Result<Pushed, SendError<M>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.closed && !bypass_cap && state.queue.len() >= self.cap {
            state = self.space.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.closed {
            return Err(SendError(msg));
        }
        let was_empty = state.queue.is_empty();
        state.queue.push_back(msg);
        self.depth.fetch_add(1, Ordering::Relaxed);
        Ok(Pushed { was_empty })
    }

    /// Non-blocking push for timer ticks, refused when `busy` (the owning
    /// task is queued or running), while this inbox is full, or while the
    /// pool's whole backlog (`depth`, every inbox of the pool) is at the
    /// cap. A refused tick is dropped, coalescing exactly like a lagging
    /// tick channel.
    pub(crate) fn try_push(&self, msg: M, busy: bool) -> Result<Pushed, TrySendError<M>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(TrySendError::Closed(msg));
        }
        if busy || state.queue.len() >= self.cap || self.depth.load(Ordering::Relaxed) >= self.cap {
            return Err(TrySendError::Full(msg));
        }
        let was_empty = state.queue.is_empty();
        state.queue.push_back(msg);
        self.depth.fetch_add(1, Ordering::Relaxed);
        Ok(Pushed { was_empty })
    }

    /// Drains up to `burst` messages into `into`, waking blocked senders.
    pub(crate) fn drain(&self, burst: usize, into: &mut Vec<M>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let n = state.queue.len().min(burst);
        into.extend(state.queue.drain(..n));
        if n > 0 {
            self.depth.fetch_sub(n, Ordering::Relaxed);
            self.space.notify_all();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Closes the inbox. Blocked senders wake with [`SendError`]; when
    /// `discard` is set (task poisoned by a panic), already-queued
    /// messages are dropped too — a poisoned task processes nothing more.
    pub(crate) fn close(&self, discard: bool) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        if discard {
            self.depth.fetch_sub(state.queue.len(), Ordering::Relaxed);
            state.queue.clear();
        }
        self.space.notify_all();
    }
}
