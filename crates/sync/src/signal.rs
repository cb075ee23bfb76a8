//! [`Signal`]: the workspace's one way for a thread to wait for another.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::recover;

/// An event count: the one blocking wait in `crates/*/src` apart from
/// thread joins, `mpsc` receives and socket I/O.
///
/// A `Signal` holds no condition of its own. Its *epoch* counts the
/// notifies so far; the condition a thread waits for lives wherever its
/// owner keeps it (an atomic, a value behind a [`Mutex`](crate::Mutex),
/// a store's contents). Every wait follows one protocol:
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
/// use safeweb_sync::Signal;
///
/// let ready = Arc::new(AtomicBool::new(false));
/// let signal = Arc::new(Signal::new());
/// // The notifier: make the condition true, then notify.
/// let notifier = {
///     let (ready, signal) = (Arc::clone(&ready), Arc::clone(&signal));
///     std::thread::spawn(move || {
///         ready.store(true, Ordering::SeqCst);
///         signal.notify_all();
///     })
/// };
/// // The waiter: read the epoch, check the condition, and park until the
/// // epoch moves past what was read.
/// loop {
///     let seen = signal.epoch();
///     if ready.load(Ordering::SeqCst) {
///         break;
///     }
///     signal.wait_past(seen, Duration::MAX);
/// }
/// notifier.join().unwrap();
/// ```
///
/// ## Why no wake-up is lost
///
/// A notifier makes its condition true, then bumps the epoch, then reads
/// [`Signal::waiters`]; a waiter in [`Signal::wait_past`] counts itself
/// in `waiters`, then re-reads the epoch, both under the signal's private
/// lock, and parks only if the epoch is still `seen`. All four accesses
/// are sequentially consistent, so one of two things holds:
///
/// - the notifier read `waiters` before the waiter counted itself: then
///   its bump came earlier still, and the waiter's re-read sees the epoch
///   past `seen` and returns without parking;
/// - the notifier saw the waiter counted: then it takes the private lock
///   before it wakes anyone, and the lock is free only once the waiter
///   has either returned or parked, so the wake reaches it.
///
/// And a notify that lands anywhere between the waiter's `epoch()` and
/// its park moves the epoch past `seen`, so the waiter's own check of its
/// condition may run outside every lock (a store scan, say) and still
/// cannot miss the notify that made it true. Where a lock of the owner's
/// guards the condition and the notifier changes it under that lock and
/// notifies after releasing it, the waiter may instead read the epoch
/// under that lock, once it has found the condition false: the change it
/// waits for cannot begin until it lets the lock go.
///
/// A notify that nobody waits for costs two atomic operations and no
/// system call. The epoch only ever grows; a spurious wake-up of the
/// private condition variable is absorbed inside `wait_past`.
#[derive(Debug, Default)]
pub struct Signal {
    epoch: AtomicU64,
    waiters: AtomicUsize,
    lock: std::sync::Mutex<()>,
    wake: std::sync::Condvar,
}

impl Signal {
    /// Creates a signal at epoch 0 with no waiters; usable in a `static`.
    pub const fn new() -> Signal {
        Signal {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: std::sync::Mutex::new(()),
            wake: std::sync::Condvar::new(),
        }
    }

    /// The number of notifies so far. Read it *before* checking the
    /// condition a later [`Signal::wait_past`] waits for.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Threads parked in (or entering) [`Signal::wait_past`] right now.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::SeqCst)
    }

    /// Blocks until the epoch has moved past `seen` or `timeout` has
    /// elapsed; returns whether the epoch moved. `Duration::MAX` waits
    /// with no timeout.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let started = Instant::now();
        let mut guard = recover(self.lock.lock());
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self.epoch() == seen {
            match timeout.checked_sub(started.elapsed()) {
                Some(left) if !left.is_zero() => {
                    guard = recover(self.wake.wait_timeout(guard, left)).0;
                }
                _ => break,
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        self.epoch() != seen
    }

    /// Moves the epoch and wakes one parked thread, if any.
    #[inline]
    pub fn notify_one(&self) {
        if self.bump() {
            self.wake.notify_one();
        }
    }

    /// Moves the epoch and wakes every parked thread.
    #[inline]
    pub fn notify_all(&self) {
        if self.bump() {
            self.wake.notify_all();
        }
    }

    /// Moves the epoch; returns whether anyone is waiting, after taking
    /// and releasing the private lock so that each counted waiter is
    /// parked (or gone) before the caller wakes it. The wake itself is
    /// issued with the lock released, so a woken thread does not run
    /// straight into it.
    #[inline]
    fn bump(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters() == 0 {
            return false;
        }
        drop(recover(self.lock.lock()));
        true
    }
}
