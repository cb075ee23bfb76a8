//! # safeweb-sync
//!
//! The workspace's one lock-and-wait vocabulary. Every `Mutex` and
//! `RwLock` in `crates/*/src` is built here, and every blocking wait
//! apart from thread joins, `mpsc` receives and socket I/O is a
//! [`Signal`], so what a lock means and why no wake-up is lost are each
//! decided once (the `sync-confinement` rule in `safeweb-lint` flags
//! `std::sync::{Mutex, RwLock, Condvar}` anywhere else). The locks wrap
//! `std::sync` one-to-one; each method is `#[inline]` and adds no work
//! beyond the poison policy below, so the hot-path locks (the scheduler
//! inbox, the docstore, the render-cache shards) cost what std costs.
//! Guards are std's own guard types, re-exported. There is no condition
//! variable: a thread waits for a condition by reading a [`Signal`]'s
//! epoch, checking the condition and parking until the epoch moves.
//!
//! Atomics, `Arc`, `OnceLock` and `mpsc` stay `std`: re-exporting them
//! here would hide nothing.
//!
//! The one structure built on these locks is [`BoundedCache`], the
//! sharded, clear-on-overflow map that every bounded cache of
//! recomputable values in the workspace uses.
//!
//! ## The poison policy: recover
//!
//! A std lock is *poisoned* when a thread panics while holding its
//! guard; every later acquisition then returns an error. This facade
//! has one answer for every lock in the workspace: take the guard
//! anyway ([`PoisonError::into_inner`]).
//!
//! Recovering is sound for a structure exactly when no guarded section
//! can panic between two writes that must happen together, so a section
//! that unwinds leaves the value in a state some complete section could
//! also have left. Panicking instead would turn one contained failure
//! (the scheduler catches handler panics and poisons only that task)
//! into a process-wide one: every later request touching the lock would
//! panic too. Each structure that panicked on poison before this crate
//! existed was checked against the rule:
//!
//! - label-set intern table (`labels`): a write section's one mutation
//!   is its final `insert`; the `u32` overflow `expect` and the leak of
//!   the canonical repr run before it, so ids stay dense.
//! - privilege-set intern table (`labels`): the same shape.
//! - [`BoundedCache`] shards (the `flows_to` memo in `labels`, the render
//!   cache in `web`): `clear` then `insert`; a cleared shard is a valid,
//!   empty cache that only misses.
//! - metrics registry (`obs`): each write section ends in its one
//!   `insert` or `remove`; the kind-mismatch panics run before it.
//! - tracer ring list (`obs`): one `push` of a fully built ring, last.
//! - span ring (`obs`): `pop_front` then `push_back`; a panic between
//!   them leaves the ring one span shorter and still bounded.
//! - declassification audit log (`safeq`): one `push` of an event whose
//!   preview is built before it.
//!
//! A new lock must pass the same check: write its section so that the
//! value is consistent at every point a panic can unwind from.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod signal;

use std::sync::{LockResult, PoisonError};

pub use cache::BoundedCache;
pub use signal::Signal;
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// The poison policy, in one place: a poisoned lock yields its guard.
#[inline]
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex; usable in a `static`.
    #[inline]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    #[inline]
    pub fn into_inner(self) -> T {
        recover(self.0.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is free.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.0.lock())
    }
}

/// A reader-writer lock whose `read` and `write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock; usable in a `static`.
    #[inline]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquires an exclusive write guard.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }
}
