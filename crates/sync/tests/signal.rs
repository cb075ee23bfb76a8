//! `Signal`'s contract: a notify is never lost between a waiter's
//! `epoch()` and its park, a timeout is reported as such, `waiters()`
//! counts parked threads, and many notifiers and waiters make progress.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use safeweb_sync::Signal;

/// Runs `f` on a thread and fails the test if it has not finished
/// within `limit`, instead of letting a lost wake-up hang the suite.
fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().unwrap();
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still waiting after {limit:?}"),
    }
}

#[test]
fn a_notify_between_epoch_and_wait_past_is_not_lost() {
    let signal = Signal::new();
    let seen = signal.epoch();
    signal.notify_all();
    let started = Instant::now();
    assert!(signal.wait_past(seen, Duration::from_secs(5)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "parked through a notify"
    );
    assert_eq!(signal.waiters(), 0);

    let seen = signal.epoch();
    signal.notify_one();
    assert!(signal.wait_past(seen, Duration::from_secs(5)));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "parked through a notify"
    );
}

#[test]
fn a_timeout_returns_false() {
    let signal = Signal::new();
    let started = Instant::now();
    assert!(!signal.wait_past(signal.epoch(), Duration::from_millis(20)));
    assert!(started.elapsed() >= Duration::from_millis(20));
    assert_eq!(signal.waiters(), 0);
}

#[test]
fn waiters_counts_a_parked_thread_until_it_wakes() {
    let signal = Arc::new(Signal::new());
    let seen = signal.epoch();
    let parked = {
        let signal = Arc::clone(&signal);
        thread::spawn(move || signal.wait_past(seen, Duration::from_secs(10)))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while signal.waiters() == 0 {
        assert!(Instant::now() < deadline, "the waiter never parked");
        thread::yield_now();
    }
    assert_eq!(signal.waiters(), 1);
    signal.notify_one();
    assert!(parked.join().unwrap(), "woken, not timed out");
    assert_eq!(signal.waiters(), 0);
}

/// Each waiter follows a shared counter up to `ROUNDS` while notifiers
/// advance it, each advance followed by a notify, so a lost wake-up
/// leaves a waiter parked for good and trips the watchdog.
#[test]
fn many_notifiers_and_waiters_make_progress() {
    const ROUNDS: u64 = 2_000;
    within(Duration::from_secs(60), || {
        let signal = Arc::new(Signal::new());
        let count = Arc::new(AtomicU64::new(0));
        let spawn_all = |n: usize, f: fn(&Signal, &AtomicU64)| -> Vec<thread::JoinHandle<()>> {
            (0..n)
                .map(|_| {
                    let (signal, count) = (Arc::clone(&signal), Arc::clone(&count));
                    thread::spawn(move || f(&signal, &count))
                })
                .collect()
        };
        let waiters = spawn_all(3, |signal, count| loop {
            let seen = signal.epoch();
            if count.load(Ordering::SeqCst) >= ROUNDS {
                return;
            }
            signal.wait_past(seen, Duration::MAX);
        });
        let notifiers = spawn_all(3, |signal, count| {
            while count.fetch_add(1, Ordering::SeqCst) < ROUNDS {
                signal.notify_all();
                thread::yield_now();
            }
        });
        for thread in waiters.into_iter().chain(notifiers) {
            thread.join().unwrap();
        }
        assert_eq!(signal.waiters(), 0);
    });
}
