//! SEEDED VIOLATION (sync-confinement): three std lock types named
//! outside the lock facade — a braced import, a nested use tree and an
//! inline path — each deciding its own poison policy at the call site.

use std::sync::{Arc, Mutex};
use std::{sync::RwLock, time::Duration};

/// A counter guarded by a std mutex.
pub struct Counter {
    hits: Arc<Mutex<u64>>,
    names: RwLock<Vec<String>>,
    ready: std::sync::Condvar,
}

impl Counter {
    /// Bumps the counter, panicking if a holder ever panicked.
    pub fn bump(&self) -> u64 {
        let mut hits = self.hits.lock().expect("counter poisoned");
        *hits += 1;
        self.ready.notify_all();
        let _ = Duration::from_millis(1);
        let _ = self.names.read().unwrap_or_else(|e| e.into_inner()).len();
        *hits
    }
}
