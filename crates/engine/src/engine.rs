//! The event processing engine (§4.3): configures, instantiates and runs
//! units, wiring their subscriptions to the broker and executing their
//! callbacks inside the IFC jail.
//!
//! # Execution
//!
//! Every unit is one task on a fixed [`safeweb_sched`] worker pool with
//! a bounded inbox: deliveries wake the task instead of a parked
//! per-unit thread, and the thread count is set by
//! [`SchedulerOptions::workers`] — independent of the unit count, so one
//! process hosts thousands of units (one per tenant). One timer thread
//! drives every unit's timers.
//!
//! Unit-facing guarantees: strict FIFO event order within a unit, no
//! concurrent execution of one unit's callbacks, burst-capped draining
//! ([`SchedulerOptions::burst`]) so a hot unit cannot starve the rest,
//! and batched flushing of each activation's published events in one
//! broker pass.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use safeweb_broker::Delivery;
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{LabelSet, Policy, PrincipalKind};
use safeweb_obs::TraceId;
use safeweb_sched::{Scheduler, SchedulerOptions, TaskSender};

use crate::bus::EventBus;
use crate::error::{EngineError, UnitError};
use crate::jail::{EventBuilder, Jail, LabelledStore, PublishSink};

/// A unit callback: receives the jail and the event being processed.
pub type Callback = Box<dyn FnMut(&mut Jail<'_>, &Event) -> Result<(), UnitError> + Send>;

/// A timer callback for source units: receives only the jail (there is no
/// triggering event; `$LABELS` starts empty).
pub type TimerCallback = Box<dyn FnMut(&mut Jail<'_>) -> Result<(), UnitError> + Send>;

/// Declarative description of one event-processing unit, mirroring the
/// paper's Listing 1:
///
/// ```
/// use safeweb_engine::{Relabel, UnitSpec};
/// use safeweb_labels::Label;
///
/// let unit = UnitSpec::new("daily_list")
///     .subscribe("/patient_report", Some("type = 'cancer'"), |jail, event| {
///         let mut list = jail.get("patient_list").unwrap_or_default();
///         list.push_str(event.attr("patient_id").unwrap_or(""));
///         list.push(',');
///         jail.set("patient_list", list, Relabel::keep())
///     })
///     .subscribe("/next_day", None, |jail, _event| {
///         let list = jail.get("patient_list").unwrap_or_default();
///         jail.publish(
///             safeweb_events::Event::new("/daily_report").unwrap().with_payload(list),
///             Relabel::keep()
///                 .remove_all()
///                 .add(Label::conf("ecric.org.uk", "patient_list")),
///         )
///     });
/// assert_eq!(unit.name(), "daily_list");
/// ```
pub struct UnitSpec {
    name: String,
    subscriptions: Vec<(String, Option<String>, Callback)>,
    timers: Vec<(Duration, TimerCallback)>,
}

impl UnitSpec {
    /// Creates an empty unit description.
    pub fn new(name: &str) -> UnitSpec {
        UnitSpec {
            name: name.to_string(),
            subscriptions: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The unit's name (its principal in the policy file).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a subscription callback.
    pub fn subscribe(
        mut self,
        topic: &str,
        selector: Option<&str>,
        callback: impl FnMut(&mut Jail<'_>, &Event) -> Result<(), UnitError> + Send + 'static,
    ) -> UnitSpec {
        self.subscriptions.push((
            topic.to_string(),
            selector.map(str::to_string),
            Box::new(callback),
        ));
        self
    }

    /// Registers a timer-driven callback (for source units that import
    /// data into the system, like the MDT data producer).
    pub fn every(
        mut self,
        interval: Duration,
        callback: impl FnMut(&mut Jail<'_>) -> Result<(), UnitError> + Send + 'static,
    ) -> UnitSpec {
        self.timers.push((interval, Box::new(callback)));
        self
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// When `false`, all label bookkeeping is skipped. Exists **only** for
    /// the paper's §5.3 baseline measurements; never disable in production.
    pub label_tracking: bool,
    /// Sizing of the worker pool the units run on.
    pub scheduler: SchedulerOptions,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            label_tracking: true,
            scheduler: SchedulerOptions::default(),
        }
    }
}

/// A policy violation observed at runtime: a unit attempted an operation
/// the jail refused. These are the bugs SafeWeb exists to contain — the
/// operation was suppressed; the record is for operators and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending unit.
    pub unit: String,
    /// What was refused.
    pub error: UnitError,
}

/// The event processing engine. Construct with [`Engine::new`], add units,
/// then [`Engine::start`].
pub struct Engine {
    bus: Arc<dyn EventBus>,
    policy: Policy,
    options: EngineOptions,
    units: Vec<UnitSpec>,
}

impl Engine {
    /// Creates an engine over `bus` with privileges assigned from
    /// `policy`.
    pub fn new(bus: Arc<dyn EventBus>, policy: Policy) -> Engine {
        Engine {
            bus,
            policy,
            options: EngineOptions::default(),
            units: Vec::new(),
        }
    }

    /// Overrides engine options (worker-pool sizing; label tracking for
    /// baseline benchmarking only).
    pub fn with_options(mut self, options: EngineOptions) -> Engine {
        self.options = options;
        self
    }

    /// Adds a unit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DuplicateUnit`] if a unit with the same name
    /// was already added.
    pub fn add_unit(&mut self, unit: UnitSpec) -> Result<(), EngineError> {
        if self.units.iter().any(|u| u.name == unit.name) {
            return Err(EngineError::DuplicateUnit(unit.name));
        }
        self.units.push(unit);
        Ok(())
    }

    /// Starts every unit as a task on the shared worker pool and returns
    /// a handle for observing violations and stopping the engine. Thread
    /// cost: `workers` pool threads plus one timer thread when any unit
    /// has timers — regardless of how many units there are.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if any subscription cannot be established.
    pub fn start(self) -> Result<EngineHandle, EngineError> {
        let violations = Arc::new(Mutex::new(Vec::new()));
        let scheduler: Scheduler<UnitMsg> = Scheduler::new(self.options.scheduler);
        let mut timers: Vec<TimerEntry> = Vec::new();

        for unit in self.units {
            let privileges = self.policy.privileges(PrincipalKind::Unit, &unit.name);
            let privileged = self.policy.is_privileged_unit(&unit.name);
            let UnitSpec {
                name,
                subscriptions,
                timers: unit_timers,
            } = unit;

            // Split the spec: wiring metadata stays here, the callbacks
            // move into the task's handler.
            let mut topics = Vec::with_capacity(subscriptions.len());
            let mut callbacks: Vec<Callback> = Vec::with_capacity(subscriptions.len());
            for (topic, selector, callback) in subscriptions {
                topics.push((topic, selector));
                callbacks.push(callback);
            }
            let mut intervals = Vec::with_capacity(unit_timers.len());
            let mut timer_callbacks: Vec<TimerCallback> = Vec::with_capacity(unit_timers.len());
            for (interval, callback) in unit_timers {
                intervals.push(interval);
                timer_callbacks.push(callback);
            }

            let bus = Arc::clone(&self.bus);
            let tracking = self.options.label_tracking;
            let unit_violations = Arc::clone(&violations);
            let unit_name = name.clone();
            let jail_privileges = privileges;
            let mut store = LabelledStore::new();

            let sender = scheduler.spawn(&name, move |batch| {
                // One publish sink per activation: everything the burst's
                // callbacks emit flushes to the broker in a single
                // batched pass.
                let sink = BufferedBusSink::default();
                let mut failures: Vec<UnitError> = Vec::new();
                for msg in batch.drain(..) {
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match msg {
                            UnitMsg::Event { callback, delivery } => {
                                let initial = if tracking {
                                    *delivery.event.labels()
                                } else {
                                    LabelSet::new()
                                };
                                // The delivery's trace becomes the ambient
                                // scope: everything the callback publishes
                                // inherits it.
                                let trace = delivery.event.trace_id();
                                let _scope = safeweb_obs::trace_scope(trace);
                                let span_start = safeweb_obs::now_ns();
                                let mut jail = Jail::new(
                                    initial,
                                    &jail_privileges,
                                    privileged,
                                    &mut store,
                                    &sink,
                                    tracking,
                                );
                                let result =
                                    (callbacks[callback])(&mut jail, delivery.event.event());
                                safeweb_obs::record_span(
                                    "engine",
                                    &unit_name,
                                    trace,
                                    span_start,
                                    Some(delivery.event.labels().id().as_u32()),
                                );
                                result
                            }
                            UnitMsg::Timer { timer } => {
                                let mut jail = Jail::new(
                                    LabelSet::new(),
                                    &jail_privileges,
                                    privileged,
                                    &mut store,
                                    &sink,
                                    tracking,
                                );
                                (timer_callbacks[timer])(&mut jail)
                            }
                        }));
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err(error)) => failures.push(error),
                        Err(payload) => {
                            // The callback panicked mid-burst. Everything
                            // the jail already admitted — this burst's
                            // earlier callbacks' events included — still
                            // flushes, and recorded failures survive;
                            // only then does the panic continue to the
                            // scheduler, which poisons the unit.
                            sink.flush(
                                bus.as_ref(),
                                &unit_name,
                                &unit_violations,
                                std::mem::take(&mut failures),
                            );
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
                // Events the jail admitted are published even when their
                // callback later failed.
                sink.flush(bus.as_ref(), &unit_name, &unit_violations, failures);
            });

            // Deliveries land straight in the unit's bounded inbox and
            // make its task ready; a full inbox blocks an external
            // publisher — backpressure on the bus instead of unbounded
            // buffering. (Unit-to-unit publishes run on pool workers
            // and bypass the cap; see `TaskSender::send`.)
            for (idx, (topic, selector)) in topics.iter().enumerate() {
                let tx = sender.clone();
                self.bus.subscribe(
                    &name,
                    &format!("{name}-{idx}"),
                    topic,
                    selector.as_deref(),
                    privileges,
                    Box::new(move |delivery| {
                        tx.send(UnitMsg::Event {
                            callback: idx,
                            delivery,
                        })
                        .is_ok()
                    }),
                )?;
            }
            for (timer, interval) in intervals.into_iter().enumerate() {
                timers.push(TimerEntry {
                    interval,
                    next: Instant::now() + interval,
                    sender: sender.clone(),
                    timer,
                });
            }
        }

        let timer = (!timers.is_empty()).then(|| TimerDriver::start(timers));
        Ok(EngineHandle {
            violations,
            scheduler,
            timer,
        })
    }
}

/// One message in a unit's inbox.
enum UnitMsg {
    /// A broker delivery for subscription callback `callback`.
    Event { callback: usize, delivery: Delivery },
    /// Timer `timer` fired.
    Timer { timer: usize },
}

/// One armed unit timer, driven by the shared [`TimerDriver`] thread.
struct TimerEntry {
    interval: Duration,
    next: Instant,
    sender: TaskSender<UnitMsg>,
    timer: usize,
}

/// One thread drives **all** units' timers. Ticks are ingress, delivered
/// with [`TaskSender::try_send`]: a tick is dropped while its unit is
/// still queued or running, while the worker pool's backlog is at or
/// above the inbox cap (whichever units' messages make it up), or when
/// the unit is closed. A lagging unit sees coalesced ticks, never a
/// backlog, and a timer-driven source (the MDT data producer) backs off
/// until the pool drains below the cap; its skipped ticks are not
/// replayed.
/// Between ticks the thread sleeps on a condvar until the earliest
/// deadline — zero wakeups while no timer is due — and `stop` notifies
/// it out of the wait immediately.
struct TimerDriver {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl TimerDriver {
    fn start(mut entries: Vec<TimerEntry>) -> TimerDriver {
        let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stop_pair = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("safeweb-engine-timers".to_string())
            .spawn(move || {
                let (stopped, wake) = &*stop_pair;
                loop {
                    let now = Instant::now();
                    let mut earliest: Option<Instant> = None;
                    for entry in &mut entries {
                        if entry.next <= now {
                            let _ = entry.sender.try_send(UnitMsg::Timer { timer: entry.timer });
                            // Missed ticks are skipped, not replayed.
                            entry.next = now + entry.interval;
                        }
                        earliest = Some(match earliest {
                            Some(at) => at.min(entry.next),
                            None => entry.next,
                        });
                    }
                    let wait = earliest
                        .map(|at| at.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_secs(1))
                        .max(Duration::from_millis(1));
                    let guard = stopped.lock().unwrap_or_else(|e| e.into_inner());
                    if *guard {
                        return;
                    }
                    let (guard, _) = wake
                        .wait_timeout(guard, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    if *guard {
                        return;
                    }
                }
            })
            .expect("spawn engine timer thread");
        TimerDriver {
            stop,
            thread: Some(thread),
        }
    }

    fn stop(&mut self) {
        let (stopped, wake) = &*self.stop;
        *stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Handle to a running engine.
pub struct EngineHandle {
    violations: Arc<Mutex<Vec<Violation>>>,
    scheduler: Scheduler<UnitMsg>,
    timer: Option<TimerDriver>,
}

impl EngineHandle {
    /// Policy violations observed so far (suppressed unit operations),
    /// including contained unit panics ([`UnitError::Panicked`]).
    pub fn violations(&self) -> Vec<Violation> {
        let mut all = self.violations.lock().clone();
        all.extend(self.scheduler.panics().into_iter().map(panic_violation));
        all
    }

    /// Stops all units and joins their threads. The shutdown is
    /// graceful: inboxes close, everything already accepted is drained,
    /// then the workers join. Returns the final violation list — the
    /// place where panics contained during the run surface.
    pub fn stop(mut self) -> Vec<Violation> {
        self.shutdown();
        self.violations()
    }

    /// Idempotent: the timer is taken once and the scheduler's own
    /// shutdown is idempotent.
    fn shutdown(&mut self) {
        if let Some(mut timer) = self.timer.take() {
            timer.stop();
        }
        self.scheduler.shutdown();
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn panic_violation(panic: safeweb_sched::TaskPanic) -> Violation {
    Violation {
        unit: panic.task,
        error: UnitError::Panicked(panic.message),
    }
}

/// Publish sink handed to jails: buffers every event the callbacks of one
/// activation emit, then flushes them to the bus in a single
/// [`EventBus::publish_batch`] pass. Label checks still happen eagerly
/// inside [`Jail::publish`] — an event only reaches the buffer if its
/// relabelling was permitted, so batching changes delivery timing, not
/// policy enforcement.
///
/// A [`Jail::publish_latest`] supersedes the publish buffered last under
/// the same key when both have the same topic and the same interned
/// label set: that one is dropped without being built, and the
/// activation builds and flushes only the newest, in its own place.
#[derive(Default)]
struct BufferedBusSink {
    /// Publishes in order.
    pending: RefCell<Vec<Pending>>,
    /// Index in `pending` of the publish last made under each key.
    latest: RefCell<HashMap<String, usize>>,
}

/// One buffered publish.
enum Pending {
    /// A [`Jail::publish`].
    Event(LabelledEvent),
    /// A [`Jail::publish_latest`], built at flush.
    Keyed {
        topic: &'static str,
        labels: LabelSet,
        trace: TraceId,
        build: EventBuilder,
    },
    /// A keyed publish a later one superseded.
    Superseded,
}

impl BufferedBusSink {
    /// Ends one activation: builds the surviving keyed publishes, flushes
    /// every buffered event in a single broker pass, and records the
    /// burst's callback `failures`, failed builds and a transport failure
    /// as violations against `unit`. A builder that panics is one
    /// [`UnitError::Panicked`] violation and poisons nothing: it holds
    /// none of the unit's state. Also runs on the panic path, so admitted
    /// events and recorded failures survive a poisoned unit.
    fn flush(
        &self,
        bus: &dyn EventBus,
        unit: &str,
        violations: &Mutex<Vec<Violation>>,
        mut failures: Vec<UnitError>,
    ) {
        self.latest.borrow_mut().clear();
        let events: Vec<LabelledEvent> = (self.pending.take().into_iter())
            .filter_map(|pending| match pending {
                Pending::Event(event) => Some(event),
                Pending::Keyed {
                    labels,
                    trace,
                    build,
                    ..
                } => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
                    Ok(Ok(event)) => {
                        let mut event = LabelledEvent::new(event, labels);
                        event.set_trace_id(trace);
                        Some(event)
                    }
                    Ok(Err(error)) => {
                        failures.push(error);
                        None
                    }
                    Err(payload) => {
                        failures.push(UnitError::Panicked(safeweb_sched::panic_message(&*payload)));
                        None
                    }
                },
                Pending::Superseded => None,
            })
            .collect();
        if !events.is_empty() {
            if let Err(e) = bus.publish_batch(events) {
                failures.push(UnitError::Application(format!("publish failed: {e}")));
            }
        }
        if !failures.is_empty() {
            let violation = |error| Violation {
                unit: unit.to_string(),
                error,
            };
            violations
                .lock()
                .extend(failures.into_iter().map(violation));
        }
    }
}

impl PublishSink for BufferedBusSink {
    fn deliver(&self, event: LabelledEvent) {
        self.pending.borrow_mut().push(Pending::Event(event));
    }

    fn deliver_latest(
        &self,
        key: String,
        topic: &'static str,
        labels: LabelSet,
        build: EventBuilder,
    ) -> Result<(), UnitError> {
        let mut pending = self.pending.borrow_mut();
        let last = self.latest.borrow_mut().insert(key, pending.len());
        if let Some(last) = last {
            if let Pending::Keyed {
                topic: t,
                labels: l,
                ..
            } = &pending[last]
            {
                if *t == topic && *l == labels {
                    pending[last] = Pending::Superseded;
                }
            }
        }
        pending.push(Pending::Keyed {
            topic,
            labels,
            trace: safeweb_obs::current_trace(),
            build,
        });
        Ok(())
    }
}
