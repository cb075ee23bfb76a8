//! Cross-thread connection handles: outbound queues, close flags and the
//! per-connection job task.
//!
//! The reactor thread owns the socket and the protocol state machine;
//! everything else (worker jobs, broker delivery sinks) talks to a
//! connection through a cloneable [`ConnHandle`]. A handle can queue
//! outbound bytes (bounded by the connection's backpressure cap), request
//! a close, and dispatch jobs that run **in FIFO order per connection**
//! as one `safeweb-sched` task on the reactor's scheduler — the property
//! that keeps pipelined HTTP responses and STOMP frame effects in order
//! without a thread per connection. Reads pause while a connection has
//! [`MAX_IN_FLIGHT`] unfinished jobs, whatever the protocol.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

use safeweb_sched::{Scheduler, TaskSender};

use crate::sys::EventFd;

/// A unit of work for a connection's task.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// Unfinished jobs on one connection at which its reads pause; they
/// resume at half this. Bounds what a pipelining peer can queue to one
/// read's worth of requests or frames past it.
pub const MAX_IN_FLIGHT: usize = 32;

/// Control messages from handles to the reactor thread.
#[derive(Debug)]
pub(crate) enum Command {
    /// The connection's outbox gained data: flush or arm write interest.
    Flush(u64),
    /// Close the connection now.
    Close(u64),
    /// Stop reading from the connection, unless its jobs drained (or a
    /// resume claimed the pause) since it was asked for.
    PauseReads(u64),
    /// Start reading from the connection again: its jobs drained while a
    /// pause was asked for.
    ResumeReads(u64),
    /// Stop the event loop.
    Shutdown,
}

/// The command mailbox + wakeup pair shared by every handle of a reactor.
pub(crate) struct ReactorShared {
    cmds: Mutex<Vec<Command>>,
    wake: EventFd,
}

impl ReactorShared {
    pub(crate) fn new(wake: EventFd) -> ReactorShared {
        ReactorShared {
            cmds: Mutex::new(Vec::new()),
            wake,
        }
    }

    /// Queues a command, posting a wakeup only on the empty→non-empty
    /// transition (one `eventfd` write covers any burst, e.g. a broker
    /// fan-out touching thousands of connections).
    pub(crate) fn push(&self, cmd: Command) {
        let was_empty = {
            let mut cmds = self.cmds.lock().unwrap_or_else(|e| e.into_inner());
            let was_empty = cmds.is_empty();
            cmds.push(cmd);
            was_empty
        };
        if was_empty {
            self.wake.wake();
        }
    }

    /// Takes the queued commands (reactor thread only).
    pub(crate) fn drain(&self) -> Vec<Command> {
        std::mem::take(&mut *self.cmds.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub(crate) fn wake_fd(&self) -> i32 {
        self.wake.raw_fd()
    }

    pub(crate) fn drain_wakeups(&self) {
        self.wake.drain();
    }
}

impl fmt::Debug for ReactorShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactorShared").finish_non_exhaustive()
    }
}

/// Failure to queue outbound bytes on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The connection is closed or closing; the bytes were dropped.
    Closed,
    /// Queuing the bytes would exceed the connection's backpressure cap.
    /// The caller decides the policy — the STOMP frontend disconnects the
    /// slow consumer; see `BrokerServer`.
    Overflow,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Closed => write!(f, "connection is closed"),
            SendError::Overflow => write!(f, "outbound queue over backpressure cap"),
        }
    }
}

impl std::error::Error for SendError {}

/// The outbound byte queue of one connection.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// Queued chunks; the front chunk is partially written up to
    /// `front_pos`.
    pub(crate) chunks: VecDeque<Vec<u8>>,
    pub(crate) front_pos: usize,
    /// Total unwritten bytes across all chunks.
    pub(crate) len: usize,
    /// Backpressure cap: sends beyond this fail with
    /// [`SendError::Overflow`].
    pub(crate) cap: usize,
    /// No further sends are accepted.
    pub(crate) closed: bool,
    /// Close the connection once the queue drains.
    pub(crate) close_after_flush: bool,
    /// Frontend-wide queued-bytes counter shared by every outbox of one
    /// reactor; kept in step with `len` so operators can read aggregate
    /// outbound depth with one atomic load. See `Reactor::queued_bytes`.
    pub(crate) depth: Arc<AtomicUsize>,
}

impl Outbox {
    fn new(cap: usize, depth: Arc<AtomicUsize>) -> Outbox {
        Outbox {
            chunks: VecDeque::new(),
            front_pos: 0,
            len: 0,
            cap,
            closed: false,
            close_after_flush: false,
            depth,
        }
    }
}

/// Reactor-side + handle-side shared state for one connection.
pub(crate) struct ConnShared {
    pub(crate) token: u64,
    pub(crate) reactor: Arc<ReactorShared>,
    pub(crate) out: Mutex<Outbox>,
    /// The connection's job task (see [`ConnHandle::dispatch`]). Its
    /// handler holds this struct weakly, so the task and the connection
    /// do not keep each other alive.
    task: TaskSender<Job>,
    /// Jobs dispatched but not yet finished; drives the read pause.
    pending_jobs: AtomicUsize,
    /// While a pause asked for by [`ConnHandle::pause_reads`] stands: the
    /// pending-job count at or below which reads resume. `NOT_PAUSED`
    /// otherwise. Whoever swaps it back to `NOT_PAUSED` — the worker
    /// whose job brings the count down, or the reactor finding the count
    /// already down when it applies the pause — owns the resume.
    pub(crate) resume_at: AtomicUsize,
}

/// `ConnShared::resume_at` when no pause stands.
const NOT_PAUSED: usize = usize::MAX;

impl fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnShared")
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

impl ConnShared {
    /// The shared state of connection `token`, with its job task spawned
    /// on `jobs`.
    pub(crate) fn new(
        token: u64,
        reactor: Arc<ReactorShared>,
        cap: usize,
        depth: Arc<AtomicUsize>,
        jobs: &Scheduler<Job>,
    ) -> Arc<ConnShared> {
        Arc::new_cyclic(|conn: &Weak<ConnShared>| {
            let conn = conn.clone();
            ConnShared {
                token,
                reactor,
                out: Mutex::new(Outbox::new(cap, depth)),
                task: jobs.spawn("conn", move |batch| run_jobs(&conn, batch)),
                pending_jobs: AtomicUsize::new(0),
                resume_at: AtomicUsize::new(NOT_PAUSED),
            }
        })
    }

    /// Applies a `PauseReads` command (reactor thread): whether reads
    /// stop. They do not if a resume already claimed the pause, or if the
    /// jobs drained before the pause arrived — no job is left to resume
    /// it, so pausing then would strand the connection.
    pub(crate) fn pause_stands(&self) -> bool {
        let resume_at = self.resume_at.load(Ordering::SeqCst);
        if resume_at == NOT_PAUSED {
            return false;
        }
        if self.pending_jobs.load(Ordering::SeqCst) > resume_at {
            return true;
        }
        // Drained already: claim the pause, or a worker claimed it and
        // posted a resume that will find reads running.
        self.resume_at.swap(NOT_PAUSED, Ordering::SeqCst);
        false
    }

    /// Whether a pause was asked for and has not been lifted: the reactor
    /// stops reading the connection's socket for this readiness event.
    pub(crate) fn pause_requested(&self) -> bool {
        self.resume_at.load(Ordering::SeqCst) != NOT_PAUSED
    }

    /// A job finished, leaving `left` pending (worker thread): posts the
    /// resume if that brings a standing pause down to its threshold.
    pub(crate) fn job_finished(&self, left: usize) {
        let resume_at = self.resume_at.load(Ordering::SeqCst);
        if resume_at != NOT_PAUSED
            && left <= resume_at
            && self.resume_at.swap(NOT_PAUSED, Ordering::SeqCst) != NOT_PAUSED
        {
            self.reactor.push(Command::ResumeReads(self.token));
        }
    }
}

/// The connection task's handler: runs a batch of jobs in order. A job
/// that panics closes its connection and nothing else: the jobs queued
/// after it still run (a protocol's `on_close` cleanup among them), and
/// the panic never reaches the scheduler, which would poison the task and
/// drop that cleanup. Once the connection's state is gone (closed, every
/// handle dropped) only jobs that outlived it are left; they still run.
fn run_jobs(conn: &Weak<ConnShared>, batch: &mut Vec<Job>) {
    let conn = conn.upgrade();
    for job in batch.drain(..) {
        let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
        if let Some(conn) = &conn {
            if panicked {
                ConnHandle {
                    shared: Arc::clone(conn),
                }
                .close();
            }
            let left = conn.pending_jobs.fetch_sub(1, Ordering::SeqCst) - 1;
            conn.job_finished(left);
        }
    }
}

/// A cloneable, thread-safe handle to one reactor connection.
#[derive(Debug, Clone)]
pub struct ConnHandle {
    pub(crate) shared: Arc<ConnShared>,
}

impl ConnHandle {
    /// Queues `bytes` for writing and wakes the reactor.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] if the connection is closed or closing,
    /// [`SendError::Overflow`] if the bytes would exceed the connection's
    /// backpressure cap (nothing is queued in either case).
    pub fn send(&self, bytes: Vec<u8>) -> Result<(), SendError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let was_empty = {
            let mut out = self.shared.out.lock().unwrap_or_else(|e| e.into_inner());
            if out.closed {
                return Err(SendError::Closed);
            }
            if out.len + bytes.len() > out.cap {
                return Err(SendError::Overflow);
            }
            let was_empty = out.len == 0;
            out.len += bytes.len();
            out.depth.fetch_add(bytes.len(), Ordering::Relaxed);
            out.chunks.push_back(bytes);
            was_empty
        };
        if was_empty {
            // Non-empty outboxes already have a flush pending or write
            // interest armed; appends under the outbox lock serialise
            // against the reactor's flush, so the transition is exact.
            self.shared.reactor.push(Command::Flush(self.shared.token));
        }
        Ok(())
    }

    /// Closes the connection, dropping any unwritten outbound bytes.
    pub fn close(&self) {
        {
            let mut out = self.shared.out.lock().unwrap_or_else(|e| e.into_inner());
            out.closed = true;
        }
        self.shared.reactor.push(Command::Close(self.shared.token));
    }

    /// Refuses further sends and closes the connection once everything
    /// already queued has been written.
    pub fn close_after_flush(&self) {
        {
            let mut out = self.shared.out.lock().unwrap_or_else(|e| e.into_inner());
            out.closed = true;
            out.close_after_flush = true;
        }
        self.shared.reactor.push(Command::Flush(self.shared.token));
    }

    /// Whether the connection is closed or closing.
    pub fn is_closed(&self) -> bool {
        self.shared
            .out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .closed
    }

    /// Stops reading from the connection until at most `resume_at` of its
    /// dispatched jobs are pending: the worker finishing the job that
    /// brings the count there resumes reads. If the count is already
    /// there when the reactor applies the pause, reads never stop, so a
    /// pause cannot outlive the jobs that would lift it. A connection
    /// that is not paused posts nothing when its jobs finish.
    fn pause_reads(&self, resume_at: usize) {
        let before = self.shared.resume_at.swap(resume_at, Ordering::SeqCst);
        if before == NOT_PAUSED {
            self.shared
                .reactor
                .push(Command::PauseReads(self.shared.token));
        }
    }

    /// Runs `job` on the reactor's scheduler, as a message to this
    /// connection's task. Jobs dispatched through one handle run strictly
    /// in dispatch order (an actor-style FIFO), so a protocol can hand
    /// off every parsed request/frame and still get in-order effects.
    /// The [`MAX_IN_FLIGHT`]th unfinished job pauses the connection's
    /// reads until half of them have finished. After the reactor has
    /// shut down, jobs are dropped unrun.
    pub fn dispatch(&self, job: impl FnOnce() + Send + 'static) {
        let pending = self.shared.pending_jobs.fetch_add(1, Ordering::SeqCst) + 1;
        if self.shared.task.send(Box::new(job)).is_err() {
            self.shared.pending_jobs.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if pending >= MAX_IN_FLIGHT {
            self.pause_reads(MAX_IN_FLIGHT / 2);
        }
    }

    /// Jobs dispatched on this connection that have not finished yet.
    pub fn pending_jobs(&self) -> usize {
        self.shared.pending_jobs.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    use safeweb_sched::SchedulerOptions;

    /// A handle on a connection whose jobs run on the returned one-worker
    /// scheduler, and the mailbox its commands land in.
    fn handle() -> (ConnHandle, Arc<ReactorShared>, Scheduler<Job>) {
        let reactor = Arc::new(ReactorShared::new(EventFd::new().unwrap()));
        let jobs = Scheduler::new(SchedulerOptions {
            workers: 1,
            inbox_cap: usize::MAX,
            ..SchedulerOptions::default()
        });
        let shared = ConnShared::new(
            7,
            Arc::clone(&reactor),
            1024,
            Arc::new(AtomicUsize::new(0)),
            &jobs,
        );
        (ConnHandle { shared }, reactor, jobs)
    }

    /// A request answered on an unpaused connection posts its flush and
    /// nothing else: no resume, no second wake-up.
    #[test]
    fn a_plain_response_posts_no_resume() {
        let (conn, reactor, jobs) = handle();
        let io = conn.clone();
        conn.dispatch(move || io.send(b"response".to_vec()).unwrap());
        jobs.shutdown();
        assert_eq!(conn.pending_jobs(), 0);
        let commands = reactor.drain();
        assert!(matches!(commands[..], [Command::Flush(7)]), "{commands:?}");
    }

    /// One pause command however often it is asked for, and one resume,
    /// posted by the job that brings the count down to the threshold.
    #[test]
    fn a_pause_is_posted_once_and_lifted_by_the_draining_job() {
        let (conn, reactor, jobs) = handle();
        // The first job holds the worker until the pause is in place.
        let (open, gate) = mpsc::channel::<()>();
        conn.dispatch(move || gate.recv().unwrap());
        for _ in 0..2 {
            conn.dispatch(|| {});
        }
        conn.pause_reads(1);
        conn.pause_reads(1);
        assert!(conn.shared.pause_stands());
        // The second job leaves one pending: it posts the resume.
        open.send(()).unwrap();
        jobs.shutdown();
        let commands = reactor.drain();
        assert!(
            matches!(
                commands[..],
                [Command::PauseReads(7), Command::ResumeReads(7)]
            ),
            "{commands:?}"
        );
        assert!(!conn.shared.pause_stands());
    }
}
