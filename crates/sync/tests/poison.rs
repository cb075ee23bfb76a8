//! The facade's one poison policy, held: a thread that panics while
//! holding a guard leaves the value readable and writable, and a
//! condvar wait on a poisoned mutex returns.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use safeweb_sync::{Condvar, Mutex, RwLock};

static STATIC_MUTEX: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static STATIC_RWLOCK: RwLock<u32> = RwLock::new(0);
static STATIC_CONDVAR: Condvar = Condvar::new();

/// Runs `f` on a thread that is expected to panic.
fn panic_on_a_thread(f: impl FnOnce() + Send + 'static) {
    let joined = thread::spawn(f).join();
    assert!(joined.is_err(), "the thread was meant to panic");
}

#[test]
fn a_mutex_poisoned_mid_section_still_yields_its_value() {
    let m = Arc::new(Mutex::new(1));
    let held = Arc::clone(&m);
    panic_on_a_thread(move || {
        let mut guard = held.lock();
        *guard = 2;
        panic!("poison the mutex");
    });
    assert_eq!(*m.lock(), 2);
    *m.lock() += 1;
    assert_eq!(Arc::into_inner(m).unwrap().into_inner(), 3);
}

#[test]
fn an_rwlock_poisoned_under_write_still_reads_and_writes() {
    let l = Arc::new(RwLock::new(vec![1]));
    let held = Arc::clone(&l);
    panic_on_a_thread(move || {
        held.write().push(2);
        let _guard = held.write();
        panic!("poison the rwlock");
    });
    assert_eq!(*l.read(), vec![1, 2]);
    l.write().push(3);
    assert_eq!(*l.read(), vec![1, 2, 3]);
}

#[test]
fn a_condvar_wait_on_a_poisoned_mutex_returns() {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let held = Arc::clone(&pair);
    panic_on_a_thread(move || {
        let _guard = held.0.lock();
        panic!("poison the mutex");
    });
    let (lock, cv) = &*pair;

    // A timed wait with nobody to notify hands back the guard.
    let (guard, _) = cv.wait_timeout(lock.lock(), Duration::from_millis(1));
    assert!(!*guard);
    drop(guard);

    // A predicate wait returns at once when its condition is already false.
    let (guard, timeout) =
        cv.wait_timeout_while(lock.lock(), Duration::from_secs(10), |ready| *ready);
    assert!(!timeout.timed_out());
    assert!(!*guard);
    drop(guard);

    // An untimed wait returns once a notifier flips the flag.
    let notifier = Arc::clone(&pair);
    let waker = thread::spawn(move || {
        *notifier.0.lock() = true;
        notifier.1.notify_all();
    });
    let mut ready = lock.lock();
    while !*ready {
        ready = cv.wait(ready);
    }
    drop(ready);
    waker.join().unwrap();
}

#[test]
fn static_locks_compile_and_work() {
    STATIC_MUTEX.lock().push(7);
    *STATIC_RWLOCK.write() += 1;
    assert!(STATIC_MUTEX.lock().contains(&7));
    assert!(*STATIC_RWLOCK.read() >= 1);
    STATIC_CONDVAR.notify_one();
    STATIC_CONDVAR.notify_all();
}
