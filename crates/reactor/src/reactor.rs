//! The reactor core: one epoll thread multiplexing every connection of a
//! listener, with protocol state machines driven by readiness events.
//!
//! # Threading model
//!
//! * **One event-loop thread** owns the epoll instance, the listener
//!   and every connection — their sockets and protocol state machines —
//!   and does the nonblocking reads/writes and incremental protocol
//!   parsing.
//! * **A `safeweb-sched` scheduler** of `clamp(cores, 2, 8)` workers runs
//!   application work — HTTP handlers, STOMP frame effects. Each
//!   connection is one scheduler task, and [`ConnHandle::dispatch`] sends
//!   it a job, so one process holds tens of thousands of idle
//!   connections with `1 + workers` threads instead of a thread per
//!   connection. A job that panics closes its own connection; the worker
//!   and every other connection carry on.
//! * **Everything else** (worker jobs, broker delivery sinks on
//!   publisher threads) reaches a connection only through [`ConnHandle`]:
//!   queue bytes, close, pause reads. Handles post commands to the
//!   event loop's mailbox and wake it via an `eventfd`.
//!
//! # Robustness
//!
//! A transient `accept()` failure (`EMFILE`, `ECONNABORTED`, ...) is
//! logged and retried after a short backoff — it never stops the accept
//! loop (the pre-reactor frontends died on the first such error). Slow
//! consumers are bounded by per-connection outbound caps; exceeding the
//! cap surfaces as [`crate::SendError::Overflow`] to the protocol, which
//! picks the policy (the STOMP frontend disconnects the subscriber).

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use safeweb_obs::{Counter, MetricsRegistry};

use safeweb_sched::{Scheduler, SchedulerOptions};

use crate::conn::{Command, ConnHandle, ConnShared, Job, Outbox, ReactorShared};
use crate::sys::{
    self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token of the wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;
/// Token of the listening socket.
const LISTEN_TOKEN: u64 = u64::MAX - 1;
/// Most bytes read from one connection per readiness event, for fairness
/// (level-triggered epoll re-reports whatever is left).
const READ_BUDGET: usize = 256 * 1024;
/// Most connections accepted per readiness event, for fairness.
const ACCEPT_BUDGET: usize = 256;
/// Backoff before re-arming the listener after an `accept()` error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);
/// Most jobs of one connection a worker runs before the connection's task
/// goes to the back of the run queue, so a busy connection cannot
/// monopolise a worker.
const JOB_BURST: usize = 32;

/// A connection-oriented protocol state machine, driven by the reactor.
///
/// All callbacks run on the reactor thread and must not block: hand
/// anything heavier than parsing to the scheduler via
/// [`ConnHandle::dispatch`].
pub trait Protocol: Send {
    /// Bytes arrived from the peer.
    fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle);

    /// The peer closed its writing half (clean EOF). The default closes
    /// the connection; override to flush pending output first (the
    /// reactor stops reading either way, so an override must still
    /// eventually close).
    fn on_eof(&mut self, conn: &ConnHandle) {
        conn.close();
    }

    /// The connection is gone (peer reset, error, close requested, or
    /// reactor shutdown). Last callback; dispatch cleanup work here.
    fn on_close(&mut self, conn: &ConnHandle) {
        let _ = conn;
    }
}

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Thread-name prefix for the reactor and worker threads.
    pub name: String,
    /// Per-connection outbound queue cap in bytes; see
    /// [`crate::SendError::Overflow`].
    pub outbox_cap: usize,
    /// Close connections idle (no reads, no writes) longer than this.
    /// `None` keeps idle connections forever — what the STOMP frontend
    /// wants for parked subscribers.
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            name: "safeweb".to_string(),
            outbox_cap: 8 * 1024 * 1024,
            idle_timeout: None,
        }
    }
}

/// A running reactor serving one listener; dropping it shuts the whole
/// frontend down (accept loop, connections, event loop, workers).
#[derive(Debug)]
pub struct Reactor {
    addr: SocketAddr,
    shared: Arc<ReactorShared>,
    active: Arc<AtomicUsize>,
    queued_bytes: Arc<AtomicUsize>,
    accepted: Counter,
    disconnected: Counter,
    thread: Option<JoinHandle<()>>,
    scheduler: Arc<Scheduler<Job>>,
}

impl Reactor {
    /// Binds `addr` (port 0 for ephemeral) and starts the event-loop
    /// thread and a scheduler of one worker per core, at least two and at
    /// most eight. `factory` builds one [`Protocol`] per accepted
    /// connection, on the event-loop thread.
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll setup failures.
    pub fn bind<F>(addr: &str, config: ReactorConfig, factory: F) -> io::Result<Reactor>
    where
        F: Fn() -> Box<dyn Protocol> + Send + 'static,
    {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8);
        Reactor::start(addr, config, workers, factory)
    }

    /// [`Reactor::bind`] with `workers` scheduler workers.
    fn start<F>(
        addr: &str,
        config: ReactorConfig,
        workers: usize,
        factory: F,
    ) -> io::Result<Reactor>
    where
        F: Fn() -> Box<dyn Protocol> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let shared = Arc::new(ReactorShared::new(EventFd::new()?));
        epoll.add(shared.wake_fd(), EPOLLIN, WAKE_TOKEN)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTEN_TOKEN)?;
        // Unbounded inboxes: the reactor thread must never block in a
        // send, and the read pause bounds each connection's queue. No
        // metrics: the engine's scheduler owns the `sched.*` names.
        let scheduler = Arc::new(Scheduler::new(SchedulerOptions {
            workers,
            inbox_cap: usize::MAX,
            burst: JOB_BURST,
            name: config.name.clone(),
            metrics: None,
        }));
        let active = Arc::new(AtomicUsize::new(0));
        let queued_bytes = Arc::new(AtomicUsize::new(0));
        let accepted = Counter::new();
        let disconnected = Counter::new();
        let thread_name = format!("{}-reactor", config.name);
        let core = Core {
            epoll,
            shared: Arc::clone(&shared),
            listener,
            factory: Box::new(factory),
            scheduler: Arc::clone(&scheduler),
            config,
            slots: Vec::new(),
            free: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            active: Arc::clone(&active),
            queued_bytes: Arc::clone(&queued_bytes),
            accepted: accepted.clone(),
            disconnected: disconnected.clone(),
            reaccept_at: None,
            next_sweep: Instant::now(),
            stopping: false,
        };
        let thread = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || core.run())
            .expect("spawn reactor thread");
        Ok(Reactor {
            addr: local,
            shared,
            active,
            queued_bytes,
            accepted,
            disconnected,
            thread: Some(thread),
            scheduler,
        })
    }

    /// Wires this reactor's telemetry into `registry` under `prefix`
    /// (several reactors — broker frontend, HTTP frontends — can share a
    /// registry, each with its own prefix): `<prefix>.accepted` /
    /// `<prefix>.disconnected` counters plus derived gauges
    /// `<prefix>.active_connections` and `<prefix>.outbox_bytes` (the
    /// aggregate outbox depth [`Reactor::queued_bytes`] reports).
    pub fn attach_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.accepted"), &self.accepted);
        registry.register_counter(&format!("{prefix}.disconnected"), &self.disconnected);
        let active = Arc::clone(&self.active);
        registry.register_derived(&format!("{prefix}.active_connections"), move || {
            active.load(Ordering::Relaxed) as f64
        });
        let queued = Arc::clone(&self.queued_bytes);
        registry.register_derived(&format!("{prefix}.outbox_bytes"), move || {
            queued.load(Ordering::Relaxed) as f64
        });
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Outbound bytes currently queued across every connection of this
    /// frontend: the aggregate outbox depth. A persistently high value
    /// means consumers are slower than producers (fan-out bursts, slow
    /// subscribers) and backpressure caps are doing the bounding.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every connection, drains queued jobs and
    /// joins the event-loop and worker threads. Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.push(Command::Shutdown);
            let _ = thread.join();
        }
        // After the event loop is gone: the scheduler runs still-queued
        // jobs (including on_close cleanup the teardown dispatched).
        self.scheduler.shutdown();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One slab slot; `gen` disambiguates commands aimed at a previous
/// occupant of the same index.
struct Slot {
    gen: u32,
    state: Option<ConnState>,
}

struct ConnState {
    stream: TcpStream,
    protocol: Box<dyn Protocol>,
    shared: Arc<ConnShared>,
    /// Readiness mask currently registered with epoll.
    interest: u32,
    read_paused: bool,
    /// The peer's EOF was read: reads stay stopped.
    read_eof: bool,
    last_activity: Instant,
}

impl ConnState {
    fn handle(&self) -> ConnHandle {
        ConnHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

struct Core {
    epoll: Epoll,
    shared: Arc<ReactorShared>,
    listener: TcpListener,
    factory: Box<dyn Fn() -> Box<dyn Protocol> + Send>,
    /// Spawns each connection's job task; [`Reactor`] shuts it down after
    /// the event loop has exited.
    scheduler: Arc<Scheduler<Job>>,
    config: ReactorConfig,
    slots: Vec<Slot>,
    free: Vec<usize>,
    read_buf: Vec<u8>,
    active: Arc<AtomicUsize>,
    queued_bytes: Arc<AtomicUsize>,
    accepted: Counter,
    disconnected: Counter,
    /// When set, the listener is disarmed after an accept error until
    /// this instant.
    reaccept_at: Option<Instant>,
    next_sweep: Instant,
    stopping: bool,
}

impl Core {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        while !self.stopping {
            let timeout = self.poll_timeout();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!(
                        "safeweb-reactor[{}]: epoll_wait failed: {e}",
                        self.config.name
                    );
                    break;
                }
            };
            let now = Instant::now();
            for event in &events[..n] {
                let (token, mask) = (event.data, event.events);
                if token == WAKE_TOKEN {
                    self.shared.drain_wakeups();
                } else if token == LISTEN_TOKEN {
                    self.accept_ready(now);
                } else if let Some(idx) = self.lookup(token) {
                    self.conn_ready(idx, mask, now);
                }
            }
            self.process_commands();
            self.maybe_rearm_listener(now);
            self.maybe_sweep(now);
        }
        self.teardown();
    }

    fn poll_timeout(&self) -> i32 {
        let mut timeout: i32 = -1;
        if self.config.idle_timeout.is_some() {
            timeout = 500;
        }
        if let Some(at) = self.reaccept_at {
            let ms = at
                .saturating_duration_since(Instant::now())
                .as_millis()
                .min(i32::MAX as u128) as i32
                + 1;
            timeout = if timeout < 0 { ms } else { timeout.min(ms) };
        }
        timeout
    }

    fn lookup(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        match self.slots.get(idx) {
            Some(slot) if slot.gen == gen && slot.state.is_some() => Some(idx),
            _ => None,
        }
    }

    // ---- accepting -----------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        if self.reaccept_at.is_some() {
            return; // disarmed after an error; wait out the backoff
        }
        for _ in 0..ACCEPT_BUDGET {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream, now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    // A transient accept failure (EMFILE, ECONNABORTED,
                    // EINTR storm, ...) must never stop the server: log,
                    // disarm the listener briefly so a persistent error
                    // cannot spin the loop, and retry.
                    eprintln!(
                        "safeweb-reactor[{}]: accept error (retrying in {:?}): {e}",
                        self.config.name, ACCEPT_BACKOFF
                    );
                    let _ = self
                        .epoll
                        .modify(self.listener.as_raw_fd(), 0, LISTEN_TOKEN);
                    self.reaccept_at = Some(now + ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }

    fn maybe_rearm_listener(&mut self, now: Instant) {
        if let Some(at) = self.reaccept_at {
            if now >= at {
                self.reaccept_at = None;
                let _ = self
                    .epoll
                    .modify(self.listener.as_raw_fd(), EPOLLIN, LISTEN_TOKEN);
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                state: None,
            });
            self.slots.len() - 1
        });
        let gen = self.slots[idx].gen;
        let token = (u64::from(gen) << 32) | idx as u64;
        let shared = ConnShared::new(
            token,
            Arc::clone(&self.shared),
            self.config.outbox_cap,
            Arc::clone(&self.queued_bytes),
            &self.scheduler,
        );
        let state = ConnState {
            stream,
            protocol: (self.factory)(),
            shared,
            interest: EPOLLIN | EPOLLRDHUP,
            read_paused: false,
            read_eof: false,
            last_activity: now,
        };
        if self
            .epoll
            .add(state.stream.as_raw_fd(), state.interest, token)
            .is_err()
        {
            self.free.push(idx);
            return; // conn dropped; epoll table exhausted
        }
        self.slots[idx].state = Some(state);
        self.active.fetch_add(1, Ordering::Relaxed);
        self.accepted.inc();
    }

    // ---- per-connection events -----------------------------------------

    fn conn_ready(&mut self, idx: usize, mask: u32, now: Instant) {
        let mut close = false;
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            close = self.read_ready(idx, now);
        } else if mask & (EPOLLERR | EPOLLHUP) != 0 {
            close = true;
        }
        if !close && mask & EPOLLOUT != 0 {
            close = self.flush_ready(idx, now);
        }
        if close {
            self.close_conn(idx);
        }
    }

    /// Reads until drained/budget and feeds the protocol. Returns whether
    /// the connection must be closed now.
    fn read_ready(&mut self, idx: usize, now: Instant) -> bool {
        let buf = &mut self.read_buf;
        let Some(state) = self.slots[idx].state.as_mut() else {
            return false;
        };
        if state.read_paused {
            return false;
        }
        let mut total = 0;
        loop {
            match state.stream.read(buf) {
                Ok(0) => {
                    // Clean EOF. Stop reading (level-triggered epoll would
                    // otherwise spin) and let the protocol pick shutdown
                    // or flush-then-close.
                    state.last_activity = now;
                    state.read_paused = true;
                    state.read_eof = true;
                    set_interest(&self.epoll, state, desired_interest(state));
                    let handle = state.handle();
                    state.protocol.on_eof(&handle);
                    return false;
                }
                Ok(n) => {
                    state.last_activity = now;
                    let handle = state.handle();
                    state.protocol.on_bytes(&buf[..n], &handle);
                    total += n;
                    // A full job queue stops the reads here, before the
                    // pause command is applied; fairness stops them at
                    // the budget. Epoll re-reports the rest either way.
                    if total >= READ_BUDGET || state.shared.pause_requested() {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Writes queued outbound bytes. Returns whether the connection must
    /// be closed now.
    fn flush_ready(&mut self, idx: usize, now: Instant) -> bool {
        let Some(state) = self.slots[idx].state.as_mut() else {
            return false;
        };
        match flush_outbox(state) {
            Err(_) => true,
            Ok((drained, close_after_flush)) => {
                if drained && close_after_flush {
                    return true;
                }
                state.last_activity = now;
                set_interest(&self.epoll, state, desired_interest(state));
                false
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(mut state) = slot.state.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.disconnected.inc();
        let _ = self.epoll.delete(state.stream.as_raw_fd());
        {
            let mut out = state.shared.out.lock().unwrap_or_else(|e| e.into_inner());
            out.closed = true;
            out.depth.fetch_sub(out.len, Ordering::Relaxed);
            out.chunks.clear();
            out.len = 0;
        }
        let handle = state.handle();
        state.protocol.on_close(&handle);
        // `state` drops here, closing the socket.
    }

    // ---- commands & timers ---------------------------------------------

    fn process_commands(&mut self) {
        for cmd in self.shared.drain() {
            match cmd {
                Command::Flush(token) => {
                    if let Some(idx) = self.lookup(token) {
                        if self.flush_ready(idx, Instant::now()) {
                            self.close_conn(idx);
                        }
                    }
                }
                Command::Close(token) => {
                    if let Some(idx) = self.lookup(token) {
                        self.close_conn(idx);
                    }
                }
                Command::PauseReads(token) => self.set_paused(token, true),
                Command::ResumeReads(token) => self.set_paused(token, false),
                Command::Shutdown => self.stopping = true,
            }
        }
    }

    /// Applies a pause or resume of reads; a pause only if it still
    /// stands ([`ConnShared::pause_stands`]), and neither once the peer's
    /// EOF stopped reads for good.
    fn set_paused(&mut self, token: u64, paused: bool) {
        if let Some(idx) = self.lookup(token) {
            let state = self.slots[idx].state.as_mut().expect("looked up");
            if state.read_eof || (paused && !state.shared.pause_stands()) {
                return;
            }
            if state.read_paused != paused {
                state.read_paused = paused;
                set_interest(&self.epoll, state, desired_interest(state));
            }
        }
    }

    fn maybe_sweep(&mut self, now: Instant) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + Duration::from_secs(1);
        let idle: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let state = slot.state.as_ref()?;
                (now.duration_since(state.last_activity) > timeout).then_some(idx)
            })
            .collect();
        for idx in idle {
            self.close_conn(idx);
        }
    }

    fn teardown(&mut self) {
        for idx in 0..self.slots.len() {
            self.close_conn(idx);
        }
        // The scheduler outlives the event loop: [`Reactor::shutdown`]
        // drains it (including on_close cleanup dispatched just above)
        // after this thread has joined.
    }
}

/// The epoll mask a connection should be registered for.
///
/// A paused connection drops `EPOLLRDHUP` along with `EPOLLIN`: epoll is
/// level-triggered, so keeping RDHUP armed while `read_ready` no-ops
/// would spin the reactor at 100% CPU whenever a half-closed peer sits
/// behind a paused (or EOF'd, close-pending) connection. A fully dead
/// peer still surfaces as `EPOLLERR`/`EPOLLHUP`, which cannot be masked.
fn desired_interest(state: &ConnState) -> u32 {
    let mut mask = 0;
    if !state.read_paused {
        mask |= EPOLLIN | EPOLLRDHUP;
    }
    let out = state.shared.out.lock().unwrap_or_else(|e| e.into_inner());
    if out.len > 0 {
        mask |= EPOLLOUT;
    }
    mask
}

fn set_interest(epoll: &Epoll, state: &mut ConnState, want: u32) {
    if want != state.interest {
        let _ = epoll.modify(state.stream.as_raw_fd(), want, state.shared.token);
        state.interest = want;
    }
}

/// Writes as much of the outbox as the socket accepts.
///
/// Returns `(drained, close_after_flush)`.
fn flush_outbox(state: &mut ConnState) -> io::Result<(bool, bool)> {
    let mut out = state.shared.out.lock().unwrap_or_else(|e| e.into_inner());
    let drained = write_outbox(&mut state.stream, &mut out)?;
    Ok((drained, out.close_after_flush))
}

/// Gather-writes the queued chunks with `writev`: one syscall flushes up
/// to [`sys::WRITEV_BATCH`] chunks (the broker's per-event frames queue
/// as one chunk each, so a fan-out burst previously cost one `write`
/// syscall per frame). Returns whether the queue fully drained.
///
/// A short write may stop anywhere — mid-chunk, or exactly on a chunk
/// boundary partway through the vector — so the queue is advanced purely
/// by byte count.
fn write_outbox(stream: &mut TcpStream, out: &mut Outbox) -> io::Result<bool> {
    loop {
        if out.chunks.is_empty() {
            return Ok(true);
        }
        // The gather list is an iterator straight over the chunk queue
        // (front chunk offset by its partial-write position): no
        // allocation on the flush path; `writev_fd` stops at its
        // stack-array batch cap.
        let result = sys::writev_fd(
            stream.as_raw_fd(),
            std::iter::once(&out.chunks[0][out.front_pos..])
                .chain(out.chunks.iter().skip(1).map(Vec::as_slice)),
        );
        let wrote = match result {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        advance_outbox(out, wrote);
    }
}

/// Advances the chunk queue past `wrote` bytes, wherever the short write
/// landed.
fn advance_outbox(out: &mut Outbox, mut wrote: usize) {
    debug_assert!(wrote <= out.len, "wrote more than was queued");
    out.len -= wrote;
    out.depth.fetch_sub(wrote, Ordering::Relaxed);
    while wrote > 0 {
        let front_remaining =
            out.chunks.front().expect("bytes imply a chunk").len() - out.front_pos;
        if wrote >= front_remaining {
            wrote -= front_remaining;
            out.chunks.pop_front();
            out.front_pos = 0;
        } else {
            out.front_pos += wrote;
            wrote = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The gather-write flush against a real socket with a deliberately
    /// tiny kernel send buffer: `writev` keeps returning **short
    /// writes** — landing mid-chunk or exactly on a chunk boundary
    /// partway through the iovec — and the queue accounting must
    /// advance correctly through every one of them, delivering the byte
    /// stream intact and in order.
    #[test]
    fn writev_flush_survives_partial_vector_short_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut writer = TcpStream::connect(addr).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        // Shrink the send buffer so one writev can never take the whole
        // queue (the kernel clamps to its floor — still far below the
        // queued total).
        sys::set_send_buffer(writer.as_raw_fd(), 4096).unwrap();
        writer.set_nonblocking(true).unwrap();

        // Way more chunks than one WRITEV_BATCH, in awkward sizes, with
        // a position-dependent pattern so any reorder/skip is caught.
        let mut out = Outbox {
            chunks: VecDeque::new(),
            front_pos: 0,
            len: 0,
            cap: usize::MAX,
            closed: false,
            close_after_flush: false,
            depth: Arc::new(AtomicUsize::new(0)),
        };
        let mut expected = Vec::new();
        for i in 0..300usize {
            let size = 1 + (i * 37) % 900;
            let chunk: Vec<u8> = (0..size).map(|j| ((i + j) % 251) as u8).collect();
            expected.extend_from_slice(&chunk);
            out.len += chunk.len();
            out.chunks.push_back(chunk);
        }
        out.depth.store(out.len, Ordering::Relaxed);
        let total = expected.len();
        assert!(total > 64 * 1024, "queue must dwarf the send buffer");

        let mut received = Vec::new();
        let mut read_buf = vec![0u8; 8 * 1024];
        let mut rounds = 0;
        loop {
            rounds += 1;
            match write_outbox(&mut writer, &mut out).expect("flush") {
                true => break,
                false => {
                    // Short write: the queue must be mid-flight and
                    // internally consistent.
                    let queued: usize = out.chunks.iter().map(Vec::len).sum();
                    assert_eq!(out.len + out.front_pos, queued, "len bookkeeping");
                    if let Some(front) = out.chunks.front() {
                        assert!(out.front_pos < front.len(), "front_pos past front");
                    }
                    // Drain the peer so the socket opens up again.
                    let n = reader.read(&mut read_buf).expect("peer read");
                    received.extend_from_slice(&read_buf[..n]);
                }
            }
        }
        assert!(rounds > 2, "send buffer never forced a partial write");
        assert_eq!(out.len, 0);
        assert!(out.chunks.is_empty());
        while received.len() < total {
            let n = reader.read(&mut read_buf).expect("peer read");
            assert!(n > 0, "stream ended early");
            received.extend_from_slice(&read_buf[..n]);
        }
        assert_eq!(received, expected, "bytes reordered or lost");
    }

    /// Byte-count advancement over the chunk queue: cuts mid-chunk, on
    /// exact chunk boundaries, and across several chunks at once.
    #[test]
    fn advance_outbox_handles_every_cut_point() {
        let build = || {
            let chunks: VecDeque<Vec<u8>> = vec![vec![1u8; 4], vec![2u8; 6], vec![3u8; 2]].into();
            Outbox {
                len: 12,
                chunks,
                front_pos: 0,
                cap: usize::MAX,
                closed: false,
                close_after_flush: false,
                depth: Arc::new(AtomicUsize::new(12)),
            }
        };
        // Mid-first-chunk.
        let mut out = build();
        advance_outbox(&mut out, 3);
        assert_eq!((out.len, out.front_pos, out.chunks.len()), (9, 3, 3));
        // Exactly one chunk.
        let mut out = build();
        advance_outbox(&mut out, 4);
        assert_eq!((out.len, out.front_pos, out.chunks.len()), (8, 0, 2));
        // Across a boundary into the middle of the second chunk.
        let mut out = build();
        advance_outbox(&mut out, 7);
        assert_eq!((out.len, out.front_pos, out.chunks.len()), (5, 3, 2));
        // Everything.
        let mut out = build();
        advance_outbox(&mut out, 12);
        assert_eq!((out.len, out.front_pos, out.chunks.len()), (0, 0, 0));
        // Resume from a mid-chunk position across the rest.
        let mut out = build();
        advance_outbox(&mut out, 3);
        advance_outbox(&mut out, 8);
        assert_eq!((out.len, out.front_pos, out.chunks.len()), (1, 1, 1));
    }

    /// Echoes each read back through a dispatched job. On its first read it
    /// replays a pause racing its jobs: `resume_first` has the worker's
    /// resume land *before* the `PauseReads` command; otherwise the jobs
    /// drained before the pause was applied, and nothing will resume it.
    struct RacedPause {
        resume_first: bool,
        raced: bool,
    }

    impl Protocol for RacedPause {
        fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
            if !std::mem::replace(&mut self.raced, true) {
                let shared = &conn.shared;
                // `pause_reads(0)` up to its command: the pause is asked for.
                shared.resume_at.store(0, Ordering::SeqCst);
                if self.resume_first {
                    // A worker brings the count to 0 and posts the resume.
                    shared.job_finished(0);
                }
                shared.reactor.push(Command::PauseReads(shared.token));
            }
            let io = conn.clone();
            let echo = data.to_vec();
            conn.dispatch(move || {
                let _ = io.send(echo);
            });
        }
    }

    /// Either way the pause is dropped when the reactor applies it, and
    /// the connection goes on reading instead of waiting for a resume
    /// that will never come.
    #[test]
    fn a_pause_whose_jobs_drained_first_leaves_the_connection_reading() {
        for resume_first in [true, false] {
            let config = ReactorConfig {
                name: "raced-pause".to_string(),
                ..ReactorConfig::default()
            };
            let reactor = Reactor::start("127.0.0.1:0", config, 1, move || {
                Box::new(RacedPause {
                    resume_first,
                    raced: false,
                })
            })
            .unwrap();
            let mut stream = TcpStream::connect(reactor.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // The echo is flushed after the reactor took the pause and
            // resume commands, which were queued before it.
            for word in [&b"one"[..], b"two", b"three"] {
                io::Write::write_all(&mut stream, word).unwrap();
                let mut got = vec![0u8; word.len()];
                stream
                    .read_exact(&mut got)
                    .unwrap_or_else(|e| panic!("resume_first={resume_first}: {e}"));
                assert_eq!(got, word);
            }
        }
    }

    /// Echoes each byte back through a job of its own; the job for `!`
    /// panics. Counts the jobs that ran to completion and the `on_close`
    /// cleanups that ran.
    struct PanicOnMarker {
        ran: Arc<AtomicUsize>,
        cleaned: Arc<AtomicUsize>,
    }

    impl Protocol for PanicOnMarker {
        fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
            for &byte in data {
                let (io, ran) = (conn.clone(), Arc::clone(&self.ran));
                conn.dispatch(move || {
                    assert_ne!(byte, b'!', "marker byte");
                    ran.fetch_add(1, Ordering::SeqCst);
                    let _ = io.send(vec![byte]);
                });
            }
        }

        fn on_close(&mut self, conn: &ConnHandle) {
            let cleaned = Arc::clone(&self.cleaned);
            conn.dispatch(move || {
                cleaned.fetch_add(1, Ordering::SeqCst);
            });
        }
    }

    /// Spins (bounded, sleeping) until `done` holds.
    fn wait_until(done: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// On the only worker, a panicking job closes its own connection; the
    /// job queued behind it and the protocol's `on_close` cleanup still
    /// run, and the worker goes on serving other connections.
    #[test]
    fn a_panicking_job_closes_only_its_connection() {
        let (ran, cleaned) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (conn_ran, conn_cleaned) = (Arc::clone(&ran), Arc::clone(&cleaned));
        let config = ReactorConfig {
            name: "panic-test".to_string(),
            ..ReactorConfig::default()
        };
        let reactor = Reactor::start("127.0.0.1:0", config, 1, move || {
            Box::new(PanicOnMarker {
                ran: Arc::clone(&conn_ran),
                cleaned: Arc::clone(&conn_cleaned),
            })
        })
        .unwrap();
        let connect = || {
            let stream = TcpStream::connect(reactor.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream
        };
        let mut doomed = connect();
        io::Write::write_all(&mut doomed, b"!x").unwrap();
        let mut rest = Vec::new();
        doomed
            .read_to_end(&mut rest)
            .expect("EOF on the panicking connection");
        assert!(rest.is_empty(), "{rest:?}");
        wait_until(
            || ran.load(Ordering::SeqCst) == 1 && cleaned.load(Ordering::SeqCst) == 1,
            "jobs after the panic never ran",
        );
        let mut fresh = connect();
        io::Write::write_all(&mut fresh, b"ok").unwrap();
        let mut got = [0u8; 2];
        fresh
            .read_exact(&mut got)
            .expect("a fresh connection is served");
        assert_eq!(&got, b"ok");
        assert!(
            reactor.scheduler.panics().is_empty(),
            "the task was poisoned"
        );
    }

    /// Answers one request, then closes.
    struct OneShot;

    impl Protocol for OneShot {
        fn on_bytes(&mut self, data: &[u8], conn: &ConnHandle) {
            let (io, reply) = (conn.clone(), data.to_vec());
            conn.dispatch(move || {
                let _ = io.send(reply);
                io.close_after_flush();
            });
        }
    }

    /// A served connection's task is dropped with it: the scheduler keeps
    /// no task per connection it has ever served.
    #[test]
    fn closed_connections_leave_no_scheduler_task() {
        let config = ReactorConfig {
            name: "leak-test".to_string(),
            ..ReactorConfig::default()
        };
        let reactor = Reactor::bind("127.0.0.1:0", config, || Box::new(OneShot)).unwrap();
        for _ in 0..10_000 {
            let mut stream = TcpStream::connect(reactor.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            io::Write::write_all(&mut stream, b"ping").unwrap();
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).unwrap();
            assert_eq!(reply, b"ping");
        }
        wait_until(
            || reactor.active_connections() == 0 && reactor.scheduler.live_tasks() == 0,
            "tasks of closed connections are still registered",
        );
    }
}
