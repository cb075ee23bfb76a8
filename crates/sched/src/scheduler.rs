//! The worker pool, its one run queue and the per-task state machine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use safeweb_obs::{Counter, Histogram, MetricsRegistry};
use safeweb_sync::{Mutex, Signal};

use crate::inbox::{Backlog, Inbox, Pushed, SendError, TrySendError};

/// Tuning knobs for a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerOptions {
    /// Worker threads. `0` picks one per available core — the production
    /// setting, making the thread count `min(requested, cores)`-shaped
    /// and independent of task count. Explicit values are honored as
    /// given (tests oversubscribe a small machine on purpose to provoke
    /// interleavings between workers).
    pub workers: usize,
    /// Per-task inbox capacity; sends beyond it block the producer.
    pub inbox_cap: usize,
    /// Most messages one activation hands the handler before the task
    /// re-queues at the back of the run queue (fairness between tasks).
    pub burst: usize,
    /// Thread-name prefix for the worker threads.
    pub name: String,
    /// Registry for the scheduler's metrics (`sched.activation_ns`,
    /// `sched.parks`, `sched.queued_messages`, `sched.blocked_senders`,
    /// `sched.inbox_cap`). `None` keeps detached handles:
    /// everything still counts, nothing is published to a snapshot.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for SchedulerOptions {
    fn default() -> SchedulerOptions {
        SchedulerOptions {
            workers: 0,
            inbox_cap: 1024,
            burst: 128,
            name: "safeweb-sched".to_string(),
            metrics: None,
        }
    }
}

/// The scheduler's metric handles (detached unless a registry was
/// supplied in [`SchedulerOptions::metrics`]).
#[derive(Debug, Default)]
struct SchedMetrics {
    activation_ns: Histogram,
    parks: Counter,
}

impl SchedMetrics {
    fn registered(
        registry: &MetricsRegistry,
        backlog: &Arc<Backlog>,
        inbox_cap: usize,
    ) -> SchedMetrics {
        let queued = Arc::clone(backlog);
        registry.register_derived("sched.queued_messages", move || {
            queued.depth.load(Ordering::Relaxed) as f64
        });
        // Senders parked at a full inbox's cap.
        let blocked = Arc::clone(backlog);
        registry.register_derived("sched.blocked_senders", move || {
            blocked.space.waiters() as f64
        });
        // The static cap next to the live depth, so an ops page can
        // render "queued / cap" without knowing the builder options.
        registry.register_derived("sched.inbox_cap", move || inbox_cap as f64);
        SchedMetrics {
            activation_ns: registry.histogram("sched.activation_ns"),
            parks: registry.counter("sched.parks"),
        }
    }
}

/// A handler panic the scheduler contained: the task was poisoned, the
/// worker and every other task kept running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The poisoned task's name.
    pub task: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

/// A panic payload rendered as text, as [`TaskPanic::message`] holds it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

// Task states. A task is in the run queue iff its state is QUEUED;
// only the worker that dequeued it moves QUEUED→RUNNING, which is what
// makes concurrent execution impossible.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
/// Running, with a notify observed mid-run: re-queue on completion.
const RUNNING_NOTIFIED: u8 = 3;

/// Empty queue checks a worker burns through (with `spin_loop` hints)
/// before it parks on the pool's `ready` signal. Under load, new work
/// usually arrives within this window and the worker never pays the
/// futex round-trip; once the pool is truly idle the spin ends and the
/// worker parks with **no timeout**, so an idle pool makes zero wakeups
/// per second.
const IDLE_SPINS: usize = 64;

/// Distinguishes tasks across every scheduler in the process, so the
/// self-send check cannot confuse tasks of nested schedulers.
static NEXT_TASK_UID: AtomicU64 = AtomicU64::new(1);
static NEXT_SCHED_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The task whose handler is executing on this thread (0 = none).
    static CURRENT_TASK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// The id of the scheduler whose pool this thread works in (0 = none).
    static WORKER: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

type Handler<M> = Box<dyn FnMut(&mut Vec<M>) + Send>;

struct Task<M> {
    uid: u64,
    name: String,
    state: AtomicU8,
    inbox: Inbox<M>,
    /// Uncontended by construction (no concurrent execution); the mutex
    /// only exists to make the `FnMut` shareable through the `Arc`.
    handler: Mutex<Handler<M>>,
}

struct Inner<M> {
    id: u64,
    burst: usize,
    /// The pool's one run queue of ready tasks: every enqueue pushes its
    /// back, from any thread, and every worker pops its front.
    queue: Mutex<VecDeque<Arc<Task<M>>>>,
    workers: usize,
    /// Tasks in `queue`; lets idle workers sleep without locking it.
    pending: AtomicUsize,
    /// Notified (one worker) by every enqueue and (every worker) by
    /// `shutdown`; idle workers park on it.
    ready: Signal,
    stopping: AtomicBool,
    tasks: Mutex<Registry<M>>,
    panics: Mutex<Vec<TaskPanic>>,
    /// Shared by every task inbox: the queued-message count (one relaxed
    /// load serves the engine/deployment stats surface) and the signal
    /// blocked senders park on.
    backlog: Arc<Backlog>,
    metrics: SchedMetrics,
}

/// Every task the scheduler has spawned, held weakly: a task lives as
/// long as a [`TaskSender`] or the run queue holds it, so one whose
/// senders are gone is forgotten once drained. A queued task is held by
/// the run queue, so no task is dropped with messages in its inbox.
struct Registry<M> {
    tasks: Vec<Weak<Task<M>>>,
    /// Length at which the next `spawn` prunes dead entries: twice the
    /// live count after the last prune, so pruning is amortised O(1).
    prune_at: usize,
}

impl<M> Registry<M> {
    fn insert(&mut self, task: &Arc<Task<M>>) {
        if self.tasks.len() >= self.prune_at {
            self.tasks.retain(|task| task.strong_count() > 0);
            self.prune_at = (2 * self.tasks.len()).max(64);
        }
        self.tasks.push(Arc::downgrade(task));
    }

    fn live(&self) -> impl Iterator<Item = Arc<Task<M>>> + '_ {
        self.tasks.iter().filter_map(Weak::upgrade)
    }
}

impl<M: Send + 'static> Inner<M> {
    /// Queues a ready task at the back of the run queue.
    fn enqueue(&self, task: Arc<Task<M>>) {
        self.queue.lock().push_back(task);
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.ready.notify_one();
    }

    /// The empty→non-empty inbox transition makes a task ready.
    fn notify(&self, task: &Arc<Task<M>>) {
        loop {
            match task
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.enqueue(Arc::clone(task));
                    return;
                }
                Err(QUEUED) | Err(RUNNING_NOTIFIED) => return,
                Err(RUNNING) => {
                    if task
                        .state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_NOTIFIED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return;
                    }
                    // Raced with the run completing; retry from the top.
                }
                Err(_) => unreachable!("invalid task state"),
            }
        }
    }

    /// The task at the front of the run queue, if any.
    fn find_work(&self) -> Option<Arc<Task<M>>> {
        let task = self.queue.lock().pop_front()?;
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(task)
    }

    fn run_task(&self, task: &Arc<Task<M>>, scratch: &mut Vec<M>) {
        task.state.store(RUNNING, Ordering::SeqCst);
        scratch.clear();
        task.inbox.drain(self.burst, scratch);
        if !scratch.is_empty() {
            let mut handler = task.handler.lock();
            CURRENT_TASK.with(|current| current.set(task.uid));
            // Activation latency covers handler time only (not queueing).
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| handler(scratch)));
            let elapsed = started.elapsed();
            CURRENT_TASK.with(|current| current.set(0));
            drop(handler);
            scratch.clear();
            self.metrics.activation_ns.observe_ns(elapsed);
            if let Err(payload) = result {
                self.poison(task, &*payload);
            }
        }
        // Completion: settle back to IDLE unless a notify arrived mid-run
        // or messages remain (a burst-capped drain, or a send that raced
        // the IDLE transition without its notify landing yet).
        match task
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if task.inbox.len() > 0
                    && task
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    self.enqueue(Arc::clone(task));
                }
            }
            Err(RUNNING_NOTIFIED) => {
                task.state.store(QUEUED, Ordering::SeqCst);
                self.enqueue(Arc::clone(task));
            }
            Err(_) => unreachable!("only the running worker completes a task"),
        }
    }

    fn poison(&self, task: &Task<M>, payload: &(dyn std::any::Any + Send)) {
        task.inbox.close(true);
        let message = panic_message(payload);
        self.panics.lock().push(TaskPanic {
            task: task.name.clone(),
            message,
        });
    }

    /// Brief spin between an empty scan and a full park; returns whether
    /// work (or shutdown) showed up while spinning.
    fn spin_for_work(&self) -> bool {
        for _ in 0..IDLE_SPINS {
            if self.pending.load(Ordering::SeqCst) > 0 || self.stopping.load(Ordering::SeqCst) {
                return true;
            }
            std::hint::spin_loop();
        }
        false
    }

    /// Parks with no timeout until an enqueue or `shutdown` notifies
    /// `ready`. `enqueue` publishes `pending` before it notifies, and the
    /// epoch is read before `pending` is checked, so an enqueue racing
    /// the park moves the epoch past `seen` (see [`Signal`]).
    fn park(&self) {
        self.metrics.parks.inc();
        let seen = self.ready.epoch();
        if self.pending.load(Ordering::SeqCst) == 0 && !self.stopping.load(Ordering::SeqCst) {
            self.ready.wait_past(seen, Duration::MAX);
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        WORKER.with(|worker| worker.set(self.id));
        let mut scratch = Vec::new();
        loop {
            match self.find_work() {
                Some(task) => self.run_task(&task, &mut scratch),
                None => {
                    if self.stopping.load(Ordering::SeqCst) {
                        // Queue empty and no new sends can arrive
                        // (inboxes are closed): this worker is done.
                        return;
                    }
                    if !self.spin_for_work() {
                        self.park();
                    }
                }
            }
        }
    }
}

/// A fixed-size worker pool running message-driven tasks. See the crate
/// docs for the scheduling model and guarantees.
pub struct Scheduler<M: Send + 'static> {
    inner: Arc<Inner<M>>,
    inbox_cap: usize,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Send + 'static> Scheduler<M> {
    /// Starts the worker pool. With `workers == 0` the pool gets one
    /// worker per available core.
    pub fn new(options: SchedulerOptions) -> Scheduler<M> {
        let workers = match options.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            n => n,
        }
        .max(1);
        let backlog = Arc::new(Backlog::default());
        let inbox_cap = options.inbox_cap.max(1);
        let metrics = match &options.metrics {
            Some(registry) => SchedMetrics::registered(registry, &backlog, inbox_cap),
            None => SchedMetrics::default(),
        };
        let inner = Arc::new(Inner {
            id: NEXT_SCHED_ID.fetch_add(1, Ordering::Relaxed),
            burst: options.burst.max(1),
            queue: Mutex::new(VecDeque::new()),
            workers,
            pending: AtomicUsize::new(0),
            ready: Signal::new(),
            stopping: AtomicBool::new(false),
            tasks: Mutex::new(Registry {
                tasks: Vec::new(),
                prune_at: 64,
            }),
            panics: Mutex::new(Vec::new()),
            backlog,
            metrics,
        });
        let threads = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{}-worker-{index}", options.name))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            inner,
            inbox_cap,
            threads: Mutex::new(threads),
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Messages currently queued across every task inbox — the
    /// scheduler-wide backlog, maintained as one shared atomic so the
    /// read is O(1) regardless of task count.
    pub fn queued_messages(&self) -> usize {
        self.inner.backlog.depth.load(Ordering::Relaxed)
    }

    /// Tasks alive: held by a [`TaskSender`] or queued to run. A task
    /// whose senders are all dropped stops counting once it has drained.
    ///
    /// Public as a signal: the reactor's tests wait on it reaching 0 after
    /// their connections close.
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.lock().live().count()
    }

    /// Registers a task: a bounded inbox plus a handler the pool invokes
    /// with batches of queued messages (at most
    /// [`SchedulerOptions::burst`] per activation, in send order). The
    /// handler must drain or inspect the batch; the scheduler clears it
    /// afterwards either way. The task is dropped, handler and all, once
    /// every sender is gone and its inbox has drained.
    ///
    /// Spawning on a scheduler that is already shutting down returns a
    /// sender whose sends fail.
    pub fn spawn(
        &self,
        name: &str,
        handler: impl FnMut(&mut Vec<M>) + Send + 'static,
    ) -> TaskSender<M> {
        let task = Arc::new(Task {
            uid: NEXT_TASK_UID.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            state: AtomicU8::new(IDLE),
            inbox: Inbox::new(self.inbox_cap, Arc::clone(&self.inner.backlog)),
            handler: Mutex::new(Box::new(handler)),
        });
        {
            let mut tasks = self.inner.tasks.lock();
            if self.inner.stopping.load(Ordering::SeqCst) {
                task.inbox.close(true);
            } else {
                tasks.insert(&task);
            }
        }
        TaskSender {
            task,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Handler panics contained so far (each one poisoned its task).
    pub fn panics(&self) -> Vec<TaskPanic> {
        self.inner.panics.lock().clone()
    }

    /// Graceful shutdown: closes every inbox (senders start failing,
    /// blocked senders wake), lets the workers drain everything already
    /// accepted, then joins them. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Closing inboxes under the tasks lock serialises with `spawn`,
        // so no task slips in unclosed.
        {
            let tasks = self.inner.tasks.lock();
            self.inner.stopping.store(true, Ordering::SeqCst);
            for task in tasks.live() {
                task.inbox.close(false);
            }
        }
        self.inner.ready.notify_all();
        for thread in self.threads.lock().drain(..) {
            let _ = thread.join();
        }
        // Final sweep, on this thread, after every worker has exited: a
        // send whose inbox push won the race against the close above but
        // whose wakeup had not landed when the workers last checked the
        // queue leaves messages behind with nobody to run them. The
        // inboxes are closed, so this drains to empty in bounded work —
        // and every send that returned Ok stays processed, as promised.
        let tasks: Vec<Arc<Task<M>>> = self.inner.tasks.lock().live().collect();
        let mut scratch = Vec::new();
        for task in tasks {
            while task.inbox.len() > 0 {
                self.inner.run_task(&task, &mut scratch);
            }
        }
    }
}

impl<M: Send + 'static> Drop for Scheduler<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: Send + 'static> std::fmt::Debug for Scheduler<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.inner.workers)
            .finish_non_exhaustive()
    }
}

/// Cloneable, thread-safe sending handle to one task.
pub struct TaskSender<M: Send + 'static> {
    task: Arc<Task<M>>,
    inner: Arc<Inner<M>>,
}

impl<M: Send + 'static> Clone for TaskSender<M> {
    fn clone(&self) -> TaskSender<M> {
        TaskSender {
            task: Arc::clone(&self.task),
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> TaskSender<M> {
    /// Queues a message, blocking while the inbox is at capacity — the
    /// backpressure edge for **external** producers (bus frontends, HTTP
    /// workers, importer threads).
    ///
    /// Sends from one of this scheduler's own worker threads — a task
    /// handler publishing to itself or to any sibling task — bypass the
    /// cap instead of blocking: a blocked worker cannot drain anyone's
    /// inbox, so capping intra-pool edges would deadlock a single-worker
    /// pool on the first full sibling inbox (and any pool on a saturated
    /// cycle). Backpressure therefore applies where load enters the
    /// pool; in-pool fan-out is bounded by what the capped ingress
    /// admits times the pipeline's amplification. Ticks are ingress too,
    /// admitted against the whole pool's backlog (see
    /// [`TaskSender::try_send`]).
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] (with the message) if the task is closed:
    /// scheduler shut down, or the task was poisoned by a panic.
    pub fn send(&self, msg: M) -> Result<(), SendError<M>> {
        let pool_thread = WORKER.with(std::cell::Cell::get) == self.inner.id;
        let own_task = CURRENT_TASK.with(std::cell::Cell::get) == self.task.uid;
        let pushed = self.task.inbox.push(msg, pool_thread || own_task)?;
        self.after_push(pushed);
        Ok(())
    }

    /// Queues a message without blocking — the **ingress** edge for
    /// timer ticks (the engine's timer driver is its caller).
    ///
    /// A tick is refused while
    ///
    /// * the pool's backlog ([`Scheduler::queued_messages`], every task's
    ///   inbox together) is at or above [`SchedulerOptions::inbox_cap`] —
    ///   even when other tasks' messages make up all of it — so a source
    ///   is only ticked while the pool holds less than one inbox of work;
    /// * the task is still queued or running: the work ahead of this tick
    ///   has not fanned out yet, so the backlog cannot see it, and a
    ///   second tick would only stack on the first (ticks coalesce while
    ///   the task lags);
    /// * the task's own inbox is full.
    ///
    /// At most one admitted tick is therefore in flight per task, and the
    /// backlog a tick-driven source builds is bounded by the cap plus one
    /// tick's fan-out, each times the pipeline's amplification. Refused
    /// ticks are skipped, not queued; ticks are admitted again once the
    /// task is idle and the backlog has drained below the cap (a poisoned
    /// task's discarded backlog counts as drained).
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the tick is refused for any of the
    /// reasons above, [`TrySendError::Closed`] when the task is closed;
    /// both return the message.
    pub fn try_send(&self, msg: M) -> Result<(), TrySendError<M>> {
        let busy = self.task.state.load(Ordering::SeqCst) != IDLE;
        let pushed = self.task.inbox.try_push(msg, busy)?;
        self.after_push(pushed);
        Ok(())
    }

    fn after_push(&self, pushed: Pushed) {
        if pushed.was_empty {
            self.inner.notify(&self.task);
        }
    }

    /// Messages currently queued in the task's inbox.
    pub fn queued(&self) -> usize {
        self.task.inbox.len()
    }

    /// Whether the task no longer accepts messages.
    pub fn is_closed(&self) -> bool {
        self.task.inbox.is_closed()
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.task.name
    }
}

impl<M: Send + 'static> std::fmt::Debug for TaskSender<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSender")
            .field("task", &self.task.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A one-shot latch: handlers block on `wait` (with a generous
    /// failsafe deadline so a bug cannot hang the suite) until the test
    /// calls `open`, the signal's only notify. Replaces sleep-polling so
    /// the tests are driven by events, not timing.
    struct Gate(Signal);

    impl Gate {
        fn new() -> Arc<Gate> {
            Arc::new(Gate(Signal::new()))
        }

        fn open(&self) {
            self.0.notify_all();
        }

        fn wait(&self) {
            assert!(
                self.0.wait_past(0, Duration::from_secs(10)),
                "gate never opened"
            );
        }
    }

    fn options(workers: usize) -> SchedulerOptions {
        SchedulerOptions {
            workers,
            inbox_cap: 8,
            burst: 4,
            name: "sched-test".to_string(),
            ..Default::default()
        }
    }

    #[test]
    fn messages_arrive_in_order() {
        let sched: Scheduler<u32> = Scheduler::new(options(2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let tx = sched.spawn("t", move |batch| sink.lock().extend(batch.drain(..)));
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        sched.shutdown();
        assert_eq!(*log.lock(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_drains_accepted_messages() {
        let sched: Scheduler<u32> = Scheduler::new(options(1));
        let count = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&count);
        // The gate stalls the first activation, so shutdown is called
        // while accepted messages are still queued and must drain them.
        let gate = Gate::new();
        let open = Arc::clone(&gate);
        let tx = sched.spawn("t", move |batch| {
            open.wait();
            counter.fetch_add(batch.len() as u32, Ordering::SeqCst);
            batch.clear();
        });
        for i in 0..8 {
            tx.send(i).unwrap();
        }
        gate.open();
        sched.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 8);
        assert!(tx.send(9).is_err(), "sends fail after shutdown");
    }

    #[test]
    fn panic_poisons_one_task_only() {
        let sched: Scheduler<u32> = Scheduler::new(options(1));
        let bad = sched.spawn("bad", |_batch| panic!("boom {}", 7));
        let count = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&count);
        let good = sched.spawn("good", move |batch| {
            counter.fetch_add(batch.len() as u32, Ordering::SeqCst);
            batch.clear();
        });
        bad.send(1).unwrap();
        for i in 0..5 {
            // The poisoned inbox starts refusing at some point; the good
            // task must keep working regardless.
            let _ = bad.send(i);
            good.send(i).unwrap();
        }
        sched.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 5);
        let panics = sched.panics();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].task, "bad");
        assert_eq!(panics[0].message, "boom 7");
        assert!(bad.is_closed());
    }

    #[test]
    fn self_send_bypasses_the_cap() {
        let sched: Scheduler<u32> = Scheduler::new(options(1));
        let holder: Arc<Mutex<Option<TaskSender<u32>>>> = Arc::new(Mutex::new(None));
        let own = Arc::clone(&holder);
        let done = Arc::new(AtomicU32::new(0));
        let signal = Arc::clone(&done);
        let tx = sched.spawn("feedback", move |batch| {
            for msg in batch.drain(..) {
                if msg > 0 {
                    // Refill past the cap from inside the handler: with
                    // cap 8 this would deadlock the only worker if
                    // self-sends blocked.
                    let tx = own.lock().clone().unwrap();
                    for _ in 0..20 {
                        tx.send(0).unwrap();
                    }
                } else {
                    signal.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        *holder.lock() = Some(tx.clone());
        tx.send(1).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 20 {
            assert!(std::time::Instant::now() < deadline, "self-send deadlock");
            std::thread::yield_now();
        }
        sched.shutdown();
    }

    /// Spins (bounded, yielding) until `done` holds.
    fn wait_until(done: impl Fn() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    /// Offers ticks to `source` one at a time, each handled before the
    /// next is offered, until the pool backlog refuses one; returns how
    /// many were admitted. `ticked` counts ticks the source has handled.
    fn ticks_until_refused(
        sched: &Scheduler<u32>,
        source: &TaskSender<u32>,
        ticked: &AtomicU32,
        cap: usize,
        limit: u32,
    ) -> u32 {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut admitted = 0;
        loop {
            let handled = ticked.load(Ordering::SeqCst);
            if source.try_send(0).is_ok() {
                admitted += 1;
                assert!(admitted <= limit, "ticks never refused");
                wait_until(
                    || ticked.load(Ordering::SeqCst) > handled,
                    "tick not handled",
                );
            } else if sched.queued_messages() >= cap {
                return admitted;
            } else {
                // Refused as busy: the source is still finishing the
                // tick it just counted.
                assert!(std::time::Instant::now() < deadline, "source never idle");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn ticks_back_off_while_the_pool_backlog_is_at_the_cap() {
        // A source that fans K messages per tick into a sink from inside
        // the pool (the producer's shape): in-pool sends bypass the
        // sink's cap, so only tick admission can bound the backlog.
        const CAP: u32 = 8;
        const K: u32 = 3;
        const PLUG: u32 = 1;
        const PILL: u32 = 2;
        let sched: Scheduler<u32> = Scheduler::new(SchedulerOptions {
            inbox_cap: CAP as usize,
            ..options(2)
        });
        // The plug holds the sink until `drain` opens, the pill until
        // `poison` opens and then panics; what the source sends meanwhile
        // queues behind them.
        let (drain, poison) = (Gate::new(), Gate::new());
        let held = Arc::new(AtomicU32::new(0));
        let (drain_open, poison_open, entered) =
            (Arc::clone(&drain), Arc::clone(&poison), Arc::clone(&held));
        let sink = sched.spawn("sink", move |batch| {
            if batch.contains(&PLUG) {
                entered.fetch_add(1, Ordering::SeqCst);
                drain_open.wait();
            }
            if batch.contains(&PILL) {
                entered.fetch_add(1, Ordering::SeqCst);
                poison_open.wait();
                panic!("poison pill");
            }
            batch.clear();
        });
        let ticked = Arc::new(AtomicU32::new(0));
        let (to_sink, count) = (sink.clone(), Arc::clone(&ticked));
        let source = sched.spawn("source", move |batch| {
            for _ in batch.drain(..) {
                for _ in 0..K {
                    // Refused once the sink is poisoned; the tick counts.
                    let _ = to_sink.send(0);
                }
                count.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Never ticked, so never busy: only the backlog can refuse it.
        let idle = sched.spawn("idle", |batch| batch.clear());
        let limit = CAP.div_ceil(K) + 1;
        let entered = |n| wait_until(|| held.load(Ordering::SeqCst) >= n, "sink never entered");

        sink.send(PLUG).unwrap();
        entered(1);
        // A running task coalesces ticks, whatever the backlog.
        assert!(sink.try_send(0).is_err(), "tick into a running task");
        let admitted = ticks_until_refused(&sched, &source, &ticked, CAP as usize, 10 * limit);
        assert!(
            admitted <= limit,
            "{admitted} ticks admitted, cap allows {limit}"
        );
        let backlog = sched.queued_messages();
        assert!(
            (CAP..CAP + K).contains(&(backlog as u32)),
            "backlog {backlog}"
        );
        // The sink's messages alone make up the backlog, and still no
        // task is ticked.
        assert!(idle.try_send(0).is_err(), "tick admitted at the cap");

        // Draining the sink admits ticks again.
        drain.open();
        wait_until(|| sched.queued_messages() == 0, "sink never drained");
        // (Retried: the source may still be settling from its last tick.)
        wait_until(|| source.try_send(0).is_ok(), "ticks never resumed");
        wait_until(
            || ticked.load(Ordering::SeqCst) > admitted,
            "resumed tick not handled",
        );

        // So does discarding a poisoned task's backlog.
        sink.send(PILL).unwrap();
        entered(2);
        let admitted = ticks_until_refused(&sched, &source, &ticked, CAP as usize, 10 * limit);
        assert!(
            admitted <= limit,
            "{admitted} ticks admitted, cap allows {limit}"
        );
        assert!(sched.queued_messages() >= CAP as usize);
        assert!(idle.try_send(0).is_err(), "tick admitted at the cap");
        poison.open();
        wait_until(
            || sink.is_closed() && sched.queued_messages() == 0,
            "poisoned backlog never discarded",
        );
        wait_until(|| source.try_send(0).is_ok(), "ticks never resumed");
        sched.shutdown();
        assert_eq!(sched.panics().len(), 1);
    }

    /// A task that re-queues after its burst goes to the back of the one
    /// run queue, behind a task woken from outside meanwhile: with one
    /// worker and `burst: 1`, B's single message runs within the first
    /// two activations, not after all of A's hundred.
    #[test]
    fn a_requeued_task_waits_behind_one_woken_from_outside() {
        let sched: Scheduler<char> = Scheduler::new(SchedulerOptions {
            inbox_cap: 128,
            burst: 1,
            ..options(1)
        });
        // The gate task holds the only worker while A and B are sent.
        let (entered, gate) = (Gate::new(), Gate::new());
        let (enter, open) = (Arc::clone(&entered), Arc::clone(&gate));
        let holder = sched.spawn("gate", move |batch| {
            enter.open();
            open.wait();
            batch.clear();
        });
        let log = Arc::new(Mutex::new(Vec::new()));
        let spawn_logged = |name| {
            let log = Arc::clone(&log);
            sched.spawn(name, move |batch| log.lock().extend(batch.drain(..)))
        };
        let (a, b) = (spawn_logged("a"), spawn_logged("b"));
        holder.send('g').unwrap();
        entered.wait();
        for _ in 0..100 {
            a.send('A').unwrap();
        }
        b.send('B').unwrap();
        gate.open();
        sched.shutdown();
        let log = log.lock();
        assert_eq!(log.len(), 101);
        let at = log.iter().position(|&name| name == 'B').unwrap();
        assert!(at < 2, "B ran as activation {}", at + 1);
    }

    #[test]
    fn full_inbox_blocks_the_sender_until_drained() {
        let sched: Scheduler<u32> = Scheduler::new(options(1));
        let gate = Gate::new();
        let open = Arc::clone(&gate);
        let tx = sched.spawn("slow", move |batch| {
            open.wait();
            batch.clear();
        });
        // Fill: the stalled handler eats the first drain, then the cap-8
        // queue fills and the 30-message sender must block.
        let tx2 = tx.clone();
        let sender = std::thread::spawn(move || {
            for i in 0..30 {
                tx2.send(i).unwrap();
            }
        });
        // Deadline wait for the observable condition (inbox at cap)
        // instead of a fixed sleep: the only way the queue reaches the
        // cap is the sender pushing against a stalled handler, at which
        // point its next send is blocked inside `Inbox::push`.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tx.queued() < 8 {
            assert!(
                std::time::Instant::now() < deadline,
                "sender never reached the cap"
            );
            std::thread::yield_now();
        }
        assert!(!sender.is_finished(), "sender should be blocked at the cap");
        gate.open();
        sender.join().unwrap();
        sched.shutdown();
    }
}
