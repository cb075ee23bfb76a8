//! Clean twin of `sync_violation.rs`: the same locks from the facade.
//! Atomics, `Arc` and `mpsc` stay `std`, and a `std::sync::Mutex` in a
//! comment or a string does not count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use safeweb_sync::{Condvar, Mutex, RwLock};

/// A counter guarded by the facade's mutex.
pub struct Counter {
    hits: Arc<Mutex<u64>>,
    names: RwLock<Vec<String>>,
    ready: Condvar,
    seen: AtomicU64,
}

impl Counter {
    /// Bumps the counter; a poisoned lock still yields its value.
    pub fn bump(&self, tx: &mpsc::Sender<u64>) -> u64 {
        let mut hits = self.hits.lock();
        *hits += 1;
        self.ready.notify_all();
        self.seen.fetch_add(1, Ordering::Relaxed);
        let _ = (Duration::from_millis(1), self.names.read().len());
        let _note = "std::sync::Mutex only as a string literal";
        let _ = tx.send(*hits);
        *hits
    }
}
