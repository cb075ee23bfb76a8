//! The facade's one poison policy, held: a thread that panics while
//! holding a guard leaves the value readable and writable.

use std::sync::Arc;
use std::thread;

use safeweb_sync::{Mutex, RwLock, Signal};

static STATIC_MUTEX: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static STATIC_RWLOCK: RwLock<u32> = RwLock::new(0);
static STATIC_SIGNAL: Signal = Signal::new();

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
fn static_locks_compile_and_work() {
    STATIC_MUTEX.lock().push(7);
    *STATIC_RWLOCK.write() += 1;
    assert!(STATIC_MUTEX.lock().contains(&7));
    assert!(*STATIC_RWLOCK.read() >= 1);
    STATIC_SIGNAL.notify_one();
    STATIC_SIGNAL.notify_all();
    assert!(STATIC_SIGNAL.epoch() >= 2);
}
