//! Scheduler property tests, in the style of the broker's
//! `routing_equivalence` suite: a deliberately trivial
//! **sequential executable specification** says what any correct
//! execution must deliver, and the real scheduler (one run queue shared
//! by a pool of workers) is held to it under randomized worker counts,
//! inbox capacities, burst limits, handler delays and producer
//! interleavings.
//!
//! The spec: a task is a FIFO queue processed by at most one executor at
//! a time. Therefore, for every task,
//!
//! 1. the handler observes exactly the messages sent to it, in send
//!    order (per-task FIFO, no loss after a draining shutdown);
//! 2. handler executions never overlap (no concurrent execution), even
//!    while the task moves between workers, one activation at a time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use safeweb_sched::{Scheduler, SchedulerOptions};

/// What the sequential specification expects a task to have observed
/// once every send completed and the scheduler drained: the sent
/// sequence itself, unchanged. (This is the scheduler analogue of the
/// linear broker: obviously correct, no concurrency.)
fn oracle(sent: &[u32]) -> Vec<u32> {
    sent.to_vec()
}

#[derive(Debug, Clone)]
struct Plan {
    workers: usize,
    inbox_cap: usize,
    burst: usize,
    /// Messages per task; length = task count.
    messages: Vec<u32>,
    /// Tasks whose handler sleeps a little, so activations overlap other
    /// workers' pops of the run queue.
    slow: Vec<bool>,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        1usize..5,
        1usize..6,
        1usize..6,
        proptest::collection::vec((1u32..40, any::<bool>()), 1..6),
    )
        .prop_map(|(workers, inbox_cap, burst, tasks)| Plan {
            workers,
            inbox_cap,
            burst,
            messages: tasks.iter().map(|(n, _)| *n).collect(),
            slow: tasks.iter().map(|(_, s)| *s).collect(),
        })
}

struct TaskProbe {
    log: Mutex<Vec<u32>>,
    /// Set while the handler runs; a second concurrent entry trips
    /// `overlap`.
    executing: AtomicBool,
    overlap: AtomicBool,
}

proptest! {
    /// FIFO + no-concurrent-execution + no loss, against the sequential
    /// oracle, under random interleavings of the workers.
    #[test]
    fn scheduled_tasks_match_the_sequential_spec(plan in arb_plan()) {
        let sched: Scheduler<u32> = Scheduler::new(SchedulerOptions {
            workers: plan.workers,
            inbox_cap: plan.inbox_cap,
            burst: plan.burst,
            name: "props".to_string(),
            ..Default::default()
        });

        let mut probes = Vec::new();
        let mut senders = Vec::new();
        for (index, slow) in plan.slow.iter().enumerate() {
            let probe = Arc::new(TaskProbe {
                log: Mutex::new(Vec::new()),
                executing: AtomicBool::new(false),
                overlap: AtomicBool::new(false),
            });
            let handler_probe = Arc::clone(&probe);
            let slow = *slow;
            let tx = sched.spawn(&format!("task-{index}"), move |batch| {
                if handler_probe.executing.swap(true, Ordering::SeqCst) {
                    handler_probe.overlap.store(true, Ordering::SeqCst);
                }
                if slow {
                    std::thread::sleep(Duration::from_micros(200));
                }
                handler_probe
                    .log
                    .lock()
                    .unwrap()
                    .extend(batch.drain(..));
                handler_probe.executing.store(false, Ordering::SeqCst);
            });
            probes.push(probe);
            senders.push(tx);
        }

        // One producer thread per task: the send order per task is the
        // thread's program order, which is exactly what the spec
        // expects back. Concurrent producers + bounded inboxes +
        // multiple workers is where the interleavings come from.
        let producers: Vec<_> = plan
            .messages
            .iter()
            .zip(&senders)
            .map(|(&n, tx)| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for value in 0..n {
                        tx.send(value).expect("send during run");
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().expect("producer");
        }
        sched.shutdown();

        for (index, probe) in probes.iter().enumerate() {
            let sent: Vec<u32> = (0..plan.messages[index]).collect();
            let got = probe.log.lock().unwrap().clone();
            prop_assert_eq!(&got, &oracle(&sent), "task {} diverged", index);
            prop_assert!(
                !probe.overlap.load(Ordering::SeqCst),
                "task {} ran on two workers at once",
                index
            );
        }
        prop_assert!(sched.panics().is_empty());
    }

    /// A poisoned task never corrupts its neighbours: whichever task
    /// panics, every other task still matches the sequential spec, and
    /// the panic is reported exactly once.
    #[test]
    fn panic_isolation_under_stealing(
        plan in arb_plan(),
        poison_pick in 0usize..64,
    ) {
        let victim = poison_pick % plan.messages.len();
        let sched: Scheduler<u32> = Scheduler::new(SchedulerOptions {
            workers: plan.workers,
            inbox_cap: plan.inbox_cap,
            burst: plan.burst,
            name: "props-poison".to_string(),
            ..Default::default()
        });

        let mut logs = Vec::new();
        let mut senders = Vec::new();
        for index in 0..plan.messages.len() {
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            let poisoned = index == victim;
            let tx = sched.spawn(&format!("task-{index}"), move |batch| {
                if poisoned {
                    panic!("injected");
                }
                sink.lock().unwrap().extend(batch.drain(..));
            });
            logs.push(log);
            senders.push(tx);
        }

        let producers: Vec<_> = plan
            .messages
            .iter()
            .zip(&senders)
            .enumerate()
            .map(|(index, (&n, tx))| {
                let tx = tx.clone();
                let expect_ok = index != victim;
                std::thread::spawn(move || {
                    for value in 0..n {
                        // The victim's sends may fail once poisoned;
                        // everyone else's must succeed.
                        let result = tx.send(value);
                        if expect_ok {
                            result.expect("healthy task refused a send");
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().expect("producer");
        }
        sched.shutdown();

        for (index, log) in logs.iter().enumerate() {
            if index == victim {
                continue;
            }
            let sent: Vec<u32> = (0..plan.messages[index]).collect();
            prop_assert_eq!(&*log.lock().unwrap(), &oracle(&sent));
        }
        let panics = sched.panics();
        prop_assert_eq!(panics.len(), 1);
        prop_assert_eq!(&panics[0].task, &format!("task-{victim}"));
        prop_assert_eq!(&panics[0].message, &"injected".to_string());
    }
}

/// Races `shutdown()` against in-flight sends, repeatedly: every send
/// that returned `Ok` must be processed, even when its wakeup lands
/// after the workers have already scanned their queues for the last
/// time (the final sweep in `shutdown` covers that window).
#[test]
fn shutdown_never_loses_accepted_sends() {
    for round in 0..60 {
        let sched: Scheduler<u32> = Scheduler::new(SchedulerOptions {
            workers: 1 + round % 3,
            inbox_cap: 4,
            burst: 2,
            name: "props-race".to_string(),
            ..Default::default()
        });
        let processed = Arc::new(AtomicUsize::new(0));
        let senders: Vec<_> = (0..3)
            .map(|i| {
                let counter = Arc::clone(&processed);
                sched.spawn(&format!("t{i}"), move |batch| {
                    counter.fetch_add(batch.len(), Ordering::SeqCst);
                    batch.clear();
                })
            })
            .collect();
        let accepted = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = senders
            .iter()
            .map(|tx| {
                let tx = tx.clone();
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    for v in 0..50u32 {
                        if tx.send(v).is_ok() {
                            accepted.fetch_add(1, Ordering::SeqCst);
                        } else {
                            break; // closed by the racing shutdown
                        }
                    }
                })
            })
            .collect();
        // Race the shutdown into the middle of the sends.
        std::thread::sleep(Duration::from_micros(50 * (round as u64 % 7)));
        sched.shutdown();
        for producer in producers {
            producer.join().expect("producer");
        }
        assert_eq!(
            processed.load(Ordering::SeqCst),
            accepted.load(Ordering::SeqCst),
            "round {round}: an accepted send was dropped by shutdown"
        );
    }
}

/// Deterministic scale check outside proptest: 2000 tasks on 3 workers,
/// every message accounted for — thread count stays 3 while task count
/// is three orders of magnitude larger.
#[test]
fn thousands_of_tasks_on_a_handful_of_workers() {
    let sched: Scheduler<u32> = Scheduler::new(SchedulerOptions {
        workers: 3,
        inbox_cap: 16,
        burst: 8,
        name: "props-scale".to_string(),
        ..Default::default()
    });
    let total = Arc::new(AtomicUsize::new(0));
    let senders: Vec<_> = (0..2000)
        .map(|index| {
            let counter = Arc::clone(&total);
            sched.spawn(&format!("unit-{index}"), move |batch| {
                counter.fetch_add(batch.len(), Ordering::SeqCst);
                batch.clear();
            })
        })
        .collect();
    assert_eq!(sched.workers(), 3);
    for (index, tx) in senders.iter().enumerate() {
        for value in 0..3 {
            tx.send(index as u32 + value).unwrap();
        }
    }
    sched.shutdown();
    assert_eq!(total.load(Ordering::SeqCst), 2000 * 3);
}
