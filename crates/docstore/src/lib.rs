//! # safeweb-docstore
//!
//! A CouchDB-like document database: the *application database* of the
//! SafeWeb architecture (Figure 1). The backend's privileged storage unit
//! writes processed, labelled result documents here; the web frontend
//! reads them (labels included) to serve requests.
//!
//! Reproduces the CouchDB features the paper's deployment relies on:
//!
//! * JSON documents with `_id`/`_rev` MVCC conflict detection,
//! * by-field views (CouchRest's `Records.by_mid` in Listing 2),
//!   **incrementally indexed** so queries are lookups rather than scans,
//! * id-prefix range queries over the ordered id space
//!   ([`DocStore::scan_prefix`]),
//! * a **compacting changes feed** (bounded at one latest entry per live
//!   document plus a recent tail) and **one-way push replication** with
//!   resumable checkpoints, per-batch deduplication, and a full-resync
//!   fallback once a checkpoint predates the compaction horizon,
//! * a **read-only mode** for the DMZ replica, enforcing requirement S1,
//! * an optional **durable mode** ([`DocStore::open`]): an append-only,
//!   checksummed write-ahead log plus periodic background snapshots that
//!   prune the log segments they cover, recovering documents *and* the
//!   replication checkpoint after a crash (views and the changes feed are
//!   rebuilt, not serialised). The record format is documented in
//!   `wal.rs` and in the repository's `ARCHITECTURE.md`.
//!
//! Security labels are first-class document metadata (not body fields), so
//! application code cannot accidentally strip them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod document;
mod frame;
mod replication;
mod snapshot;
mod store;
mod wal;

pub use document::{Document, Revision};
pub use replication::{ReplicationHandle, ReplicationReport, Replicator};
pub use store::{Change, DocStore, StoreError, DEFAULT_CHANGES_RETENTION, DEFAULT_SNAPSHOT_EVERY};
pub use wal::{WalError, WalSync};
