//! Durability: the write-ahead log under a store, its snapshots and
//! recovery.
//!
//! Invariant: a write's records reach the log before
//! [`super::Inner::apply`] changes memory, so the log is never behind
//! what a caller was told; a failed append is sticky, so it never falls
//! behind silently later. Bound: the log to replay holds at most
//! `max(snapshot_every, 2 × live documents)` records, plus those
//! appended while a snapshot is still being written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use safeweb_json::Str;
use safeweb_sync::Mutex;

use super::documents::Id;
use super::{DocStore, Inner, StoreError, Write};
use crate::document::Document;
use crate::snapshot;
use crate::wal::{self, GroupCommit, Record, Wal, WalError, WalSync};

/// Default floor on the number of WAL records between automatic snapshots
/// in a durable store (a store holding more than half this many documents
/// waits for twice its document count instead): the recovery replay and
/// the on-disk log stay bounded while each snapshot's full-store write is
/// amortised over at least as many appends as it writes documents.
/// See [`DocStore::set_snapshot_every`].
pub const DEFAULT_SNAPSHOT_EVERY: usize = 8192;

/// Shared state of the background snapshot writer. Every snapshot
/// ([`Inner::start_snapshot`]) rotates the WAL segment and takes a handle
/// onto every document under the store lock — both cheap — and pushes
/// the expensive full-store file write onto a background thread, so
/// writers never stall behind it.
#[derive(Debug, Default)]
struct SnapshotTask {
    /// The running (or just-finished) writer thread; see
    /// [`SnapshotTask::join`].
    handle: Mutex<Option<JoinHandle<()>>>,
    /// A writer is still running. At most one runs at a time, so
    /// snapshot files land in capture order.
    inflight: AtomicBool,
    /// `(sealed-segment boundary, result)` posted by a finished writer;
    /// reaped under the store lock to prune covered segments or record
    /// the failure.
    outcome: Mutex<Option<(u64, Result<(), String>)>>,
}

/// A pending group-commit ack: the WAL append landed in the log, but the
/// fsync covering it may not have happened yet. Callers wait on it
/// *after* releasing the store's write lock, which is what lets
/// concurrent appenders batch behind one leader fsync.
pub(super) struct WriteTicket {
    group: Arc<GroupCommit>,
    ticket: u64,
}

/// The persistence state of a durable store: its open WAL, snapshot
/// cadence, and the recovered replication checkpoint.
#[derive(Debug)]
pub(super) struct Durability {
    pub(super) wal: Wal,
    dir: PathBuf,
    /// Floor on the WAL records between automatic snapshots (0 = manual
    /// only); see [`Inner::maybe_snapshot`] for the trigger.
    snapshot_every: usize,
    /// Records appended since the last snapshot.
    pub(super) since_snapshot: usize,
    /// The replication checkpoint this store has durably applied through
    /// (see [`DocStore::persist_replication_checkpoint`]).
    pub(super) rep_checkpoint: u64,
    /// Sticky WAL-append failure: once set, external writes are refused
    /// and the checkpoint stops advancing, so recovery can never claim
    /// more than what actually reached the log.
    pub(super) failed: Option<String>,
    /// Last snapshot failure (non-fatal: the WAL still holds everything).
    snapshot_error: Option<String>,
    snapshots: Arc<SnapshotTask>,
}

impl Drop for Durability {
    /// Releases the directory's advisory lock. Runs when the last handle
    /// onto the store drops; a `SIGKILL` skips this, which is why
    /// acquisition treats dead holders as stale.
    fn drop(&mut self) {
        // Wait out an in-flight background snapshot first: it writes into
        // this directory, and the advisory lock is what keeps another
        // process from opening the directory mid-write. Reaping it prunes
        // the sealed segments it covers, so the next open does not replay
        // them.
        self.snapshots.join();
        reap_snapshot(self);
        let _ = std::fs::remove_file(self.dir.join(wal::LOCK_FILE));
    }
}

impl SnapshotTask {
    /// Waits until no snapshot writer runs. The slot stays locked for the
    /// join, so a concurrent caller waits for the same writer instead of
    /// returning while it still runs. A writer posts its outcome before it
    /// ends, so the outcome is ready for [`reap_snapshot`] afterwards.
    fn join(&self) {
        let mut slot = self.handle.lock();
        if let Some(h) = slot.take() {
            let _ = h.join();
        }
    }
}

/// Applies a finished background snapshot's outcome (called under the
/// store's write lock): on success the sealed segments the snapshot
/// covers are deleted; on failure the error is recorded and the records
/// stay in the log for the next attempt.
fn reap_snapshot(d: &mut Durability) {
    let outcome = d.snapshots.outcome.lock().take();
    let Some((boundary, result)) = outcome else {
        return;
    };
    match result {
        Ok(()) => {
            d.snapshot_error = None;
            if let Err(e) = d.wal.drop_sealed_through(boundary) {
                d.snapshot_error = Some(format!("pruning sealed WAL segments: {e}"));
            }
        }
        Err(why) => d.snapshot_error = Some(why),
    }
}

impl Inner {
    /// Appends WAL records — one `write(2)` for all of them — *before*
    /// the in-memory mutations they describe; a no-op for in-memory
    /// stores. The encoding closure only runs when the store is durable.
    /// On failure the mutation must not proceed — the caller propagates
    /// the error — and an I/O failure is sticky: later writes are refused
    /// too, so the durable state can never silently fall behind the
    /// acknowledged state. A *validation* refusal (oversized record)
    /// touches nothing and is not sticky — only that one write is
    /// rejected, the store stays healthy.
    ///
    /// Under [`WalSync::Always`] the records are not yet fsynced when
    /// this returns: the caller must wait on the returned [`WriteTicket`]
    /// (via [`DocStore::wait_durable`], after releasing the store lock)
    /// before acknowledging the write.
    pub(super) fn persist<R: AsRef<[String]>>(
        &mut self,
        encode: impl FnOnce() -> R,
    ) -> Result<Option<WriteTicket>, StoreError> {
        let Some(d) = self.durability.as_mut() else {
            return Ok(None);
        };
        if let Some(why) = &d.failed {
            return Err(StoreError::Io(format!("log previously failed: {why}")));
        }
        let records = encode();
        match d.wal.append_many(records.as_ref()) {
            Ok(ticket) => {
                d.since_snapshot += records.as_ref().len();
                Ok(ticket.map(|ticket| WriteTicket {
                    group: Arc::clone(d.wal.group()),
                    ticket,
                }))
            }
            Err(e) => {
                if e.kind() != std::io::ErrorKind::InvalidInput {
                    d.failed = Some(e.to_string());
                }
                Err(StoreError::Io(e.to_string()))
            }
        }
    }

    /// Automatic snapshotting: a snapshot is due once the records since
    /// the last one reach `max(snapshot_every, 2 × live documents)`. A
    /// snapshot costs `O(live)`, so its cost per record is `O(1)` whatever
    /// the store's size, while the log holds `max(snapshot_every,
    /// 2 × live)` records to replay, plus those appended while the
    /// previous snapshot is still being written. Also reaps a finished
    /// snapshot's outcome, so covered segments go as soon as it lands.
    pub(super) fn maybe_snapshot(&mut self) {
        let live = self.docs.len();
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        reap_snapshot(d);
        if d.snapshot_every > 0 && d.since_snapshot >= d.snapshot_every.max(2 * live) {
            // A failure is recorded in the store (sticky for a rotation,
            // `snapshot_error` otherwise); the write that tripped the
            // snapshot is already logged and stands.
            let _ = self.start_snapshot();
        }
    }

    /// Starts a snapshot without making writers wait for the full-store
    /// file write: under the store lock it only **rotates** the
    /// WAL segment (every record the snapshot will cover is now in sealed
    /// segments ≤ the boundary) and takes a handle onto every document;
    /// the write itself runs on a background thread, and the covered
    /// segments are deleted when its outcome is reaped. A crash before the
    /// write completes loses nothing — the sealed segments still hold
    /// every record. Starts nothing while the previous snapshot is still
    /// being written.
    fn start_snapshot(&mut self) -> Result<(), StoreError> {
        let Some(d) = self.durability.as_mut() else {
            return Err(StoreError::Io("store is not durable".to_string()));
        };
        if d.snapshots.inflight.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        // The previous writer has finished — `inflight` was false — so
        // its outcome is posted and this join only reclaims the thread.
        d.snapshots.join();
        reap_snapshot(d);
        let boundary = match d.wal.rotate() {
            Ok(boundary) => boundary,
            Err(e) => {
                // The log's shape is now ambiguous (mid-rotation): treat
                // like any WAL I/O failure — sticky, no further acks.
                d.failed = Some(e.to_string());
                d.snapshots.inflight.store(false, Ordering::SeqCst);
                return Err(StoreError::Io(e.to_string()));
            }
        };
        d.since_snapshot = 0;
        let (dir, rep, seq) = (d.dir.clone(), d.rep_checkpoint, self.feed.seq);
        let shared = Arc::clone(&d.snapshots);
        let docs: Vec<Document> = self.docs.values().cloned().collect();
        self.snapshots.inc();
        let spawned = std::thread::Builder::new()
            .name("safeweb-snapshot".to_string())
            .spawn(move || {
                let result =
                    snapshot::write(&dir, seq, rep, docs.iter()).map_err(|e| e.to_string());
                *shared.outcome.lock() = Some((boundary, result));
                shared.inflight.store(false, Ordering::SeqCst);
            });
        let d = self.durability.as_mut().expect("checked durable above");
        match spawned {
            Ok(handle) => {
                *d.snapshots.handle.lock() = Some(handle);
                Ok(())
            }
            Err(e) => {
                let why = format!("spawning snapshot writer: {e}");
                d.snapshot_error = Some(why.clone());
                d.snapshots.inflight.store(false, Ordering::SeqCst);
                Err(StoreError::Io(why))
            }
        }
    }
}

impl DocStore {
    /// Opens (or creates) a **durable** store rooted at directory `path`.
    ///
    /// Recovery is snapshot-then-WAL: the snapshot (if any) restores the
    /// documents, sequence number and replication checkpoint in one step,
    /// then every WAL record past the snapshot's sequence is replayed in
    /// order. Replay stops cleanly at the first torn or corrupt record —
    /// the expected residue of a crash mid-append — discarding that tail.
    /// Views, prefix ranges and the changes feed are *rebuilt*, not
    /// deserialised: views re-index on [`DocStore::create_view`], prefix
    /// queries ride the ordered id map, and the feed restarts at the
    /// snapshot horizon (so [`DocStore::compacted_seq`] equals the
    /// snapshot sequence and replication checkpoints older than it full
    /// resync, exactly as after an in-memory compaction).
    ///
    /// Every subsequent [`DocStore::put`] / [`DocStore::delete`] /
    /// replication apply appends to the WAL *before* mutating memory and
    /// is durable against process death (`SIGKILL`) when it returns; see
    /// [`WalSync`] for power-loss durability. The store's name is the
    /// directory's file name.
    ///
    /// One handle graph per directory: the open takes an advisory lock
    /// (`lock` file carrying the owner pid, reclaimed automatically when
    /// that process is gone) and a second concurrent open — from this or
    /// any other process — fails with [`WalError::Locked`] rather than
    /// letting two writers interleave appends into one log. The lock is
    /// released when the last clone of the returned store drops.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on filesystem failures, [`WalError::Corrupt`] if
    /// an existing snapshot fails validation (a torn WAL tail is *not* an
    /// error), [`WalError::Locked`] if a live handle already owns the
    /// directory.
    pub fn open(path: impl AsRef<Path>) -> Result<DocStore, WalError> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        wal::acquire_dir_lock(&dir)?;
        DocStore::open_locked(&dir).inspect_err(|_| {
            let _ = std::fs::remove_file(dir.join(wal::LOCK_FILE));
        })
    }

    fn open_locked(dir: &Path) -> Result<DocStore, WalError> {
        let mut inner = Inner::default();
        let mut rep_checkpoint = 0;
        if let Some(snap) = snapshot::read(dir)? {
            inner.feed.seq = snap.seq;
            inner.feed.compacted_seq = snap.seq;
            rep_checkpoint = snap.rep_checkpoint;
            for doc in snap.docs {
                inner.docs.insert(Id(doc.id_str().clone()), doc);
            }
        }
        let (wal, records) = Wal::open(dir)?;
        // Replayed records count toward the snapshot window: a workload
        // of short process lifetimes must still prune its log once
        // the accumulated records cross the threshold, instead of
        // growing the WAL (and the replay time) run over run.
        let replayed = records.len();
        for record in records {
            match record {
                // Records at or below the snapshot sequence are the
                // residue of a crash between snapshot rename and the
                // pruning of the sealed segments it covers; the snapshot
                // already covers them.
                Record::Put { seq, doc } if seq > inner.feed.seq => {
                    inner.apply(seq, Write::Put(doc));
                }
                Record::Delete { seq, id } if seq > inner.feed.seq => {
                    inner.apply(seq, Write::Delete(Str::from(id)));
                }
                Record::Checkpoint { rep } => rep_checkpoint = rep,
                Record::Put { .. } | Record::Delete { .. } => {}
            }
        }
        inner.feed.maybe_compact(&inner.docs);
        inner.durability = Some(Durability {
            wal,
            dir: dir.to_path_buf(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            since_snapshot: replayed,
            rep_checkpoint,
            failed: None,
            snapshot_error: None,
            snapshots: Arc::default(),
        });
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "durable".to_string());
        Ok(DocStore::with_inner(name, inner))
    }

    /// The WAL flush policy of a durable store, or `None` for an
    /// in-memory store; health endpoints report it as the sync state.
    pub fn wal_sync(&self) -> Option<WalSync> {
        self.inner
            .read()
            .durability
            .as_ref()
            .map(|d| d.wal.sync_mode())
    }

    /// Whether this store persists through a write-ahead log
    /// ([`DocStore::open`]) rather than living purely in memory.
    pub fn is_durable(&self) -> bool {
        self.inner.read().durability.is_some()
    }

    /// The durable store's directory, or `None` for an in-memory store.
    pub fn path(&self) -> Option<PathBuf> {
        self.inner.read().durability.as_ref().map(|d| d.dir.clone())
    }

    /// Sets the floor on how many WAL records accumulate before an
    /// automatic snapshot + log pruning (default
    /// [`DEFAULT_SNAPSHOT_EVERY`]; 0 = only [`DocStore::snapshot_now`]
    /// snapshots). A snapshot writes every live document, so a store
    /// holding more than `records / 2` documents waits for twice its
    /// document count instead: the snapshot cost per write stays constant
    /// as the store grows, and the log to replay on recovery stays at
    /// `max(records, 2 × live documents)` records, plus what is appended
    /// while a snapshot is still being written. No-op for in-memory
    /// stores. Public as a test seam: the crash and WAL tests pick
    /// their snapshot points with it.
    pub fn set_snapshot_every(&self, records: usize) {
        if let Some(d) = self.inner.write().durability.as_mut() {
            d.snapshot_every = records;
        }
    }

    /// Sets the WAL flush policy (default [`WalSync::OsBuffered`]:
    /// `SIGKILL`-durable; [`WalSync::Always`] makes every acknowledged
    /// write power-loss durable — concurrent writers share one
    /// group-commit `fdatasync` rather than paying one each). No-op for
    /// in-memory stores.
    pub fn set_wal_sync(&self, sync: WalSync) {
        if let Some(d) = self.inner.write().durability.as_mut() {
            d.wal.set_sync(sync);
        }
    }

    /// Sets the WAL segment size bound: once the active segment crosses
    /// it, the segment is sealed (fsynced + renamed aside) and a fresh
    /// one starts. Snapshots delete the sealed segments they cover.
    /// Default 8 MiB; 0 disables rotation. No-op for in-memory stores.
    /// Public as a test seam: the crash tests rotate tiny segments.
    pub fn set_wal_segment_bytes(&self, bytes: u64) {
        if let Some(d) = self.inner.write().durability.as_mut() {
            d.wal.set_segment_bytes(bytes);
        }
    }

    /// Blocks until the group-commit sync covering `ticket` has
    /// completed; called after the store lock is released so concurrent
    /// writers batch behind one leader fsync. A sync failure is promoted
    /// to the sticky store failure — after an ambiguous fsync no further
    /// write may be acknowledged.
    pub(super) fn wait_durable(&self, ticket: Option<WriteTicket>) -> Result<(), StoreError> {
        let Some(t) = ticket else {
            return Ok(());
        };
        if let Err(why) = t.group.wait_durable(t.ticket) {
            if let Some(d) = self.inner.write().durability.as_mut() {
                if d.failed.is_none() {
                    d.failed = Some(why.clone());
                }
            }
            return Err(StoreError::Io(why));
        }
        Ok(())
    }

    /// Takes a snapshot now, through the same path as the automatic ones:
    /// the WAL segment rotates under the store lock, the file is written
    /// in the background, and the sealed segments it covers are pruned.
    /// Returns once a snapshot captured after the call began has landed:
    /// the one this call starts, or one an automatic trigger or a
    /// concurrent caller started first, which covers the same writes. A
    /// snapshot still being written when this is called may predate the
    /// call, so it is waited out first. Writers are not blocked while the
    /// file is written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the store is in-memory, the WAL cannot be
    /// rotated, or the snapshot write fails (the sealed segments then stay
    /// on disk — nothing is lost).
    ///
    /// Public as a test seam: the snapshot and WAL tests snapshot at
    /// chosen points.
    pub fn snapshot_now(&self) -> Result<(), StoreError> {
        self.settle_snapshot();
        self.inner.write().start_snapshot()?;
        self.settle_snapshot();
        // Reaped: the outcome of the snapshot waited for, or of a later
        // one (which covers it a fortiori).
        let inner = self.inner.read();
        let error = inner
            .durability
            .as_ref()
            .and_then(|d| d.snapshot_error.clone());
        error.map_or(Ok(()), |why| Err(StoreError::Io(why)))
    }

    /// Join-and-reap: waits for the snapshot writer running now, if any,
    /// outside the store lock, then applies its outcome under it.
    pub(super) fn settle_snapshot(&self) {
        let task = self
            .inner
            .read()
            .durability
            .as_ref()
            .map(|d| Arc::clone(&d.snapshots));
        if let Some(task) = task {
            task.join();
        }
        if let Some(d) = self.inner.write().durability.as_mut() {
            reap_snapshot(d);
        }
    }

    /// Current WAL length in bytes (`None` for in-memory stores);
    /// diagnostics and crash-point tests.
    pub fn wal_len(&self) -> Option<u64> {
        self.inner.read().durability.as_ref().map(|d| d.wal.len())
    }

    /// The first unrecovered persistence failure, if any: a failed WAL
    /// append (fatal for writes) or the last failed snapshot (non-fatal).
    pub fn persistence_error(&self) -> Option<String> {
        let inner = self.inner.read();
        let d = inner.durability.as_ref()?;
        d.failed.clone().or_else(|| d.snapshot_error.clone())
    }

    /// Durably records that this replica has applied the replication
    /// stream through source sequence `checkpoint`; recovered by
    /// [`DocStore::replication_checkpoint_persisted`] after a restart.
    /// This is a replication write transaction with no documents, so the
    /// record lands in the same WAL as the replicated writes it follows
    /// and a recovered checkpoint never claims more than what was actually
    /// applied. A checkpoint equal to the logged one appends nothing. (A
    /// [`crate::Replicator`] run logs its checkpoint itself, in the same
    /// append as its batch.)
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the store is in-memory or the log is
    /// unavailable (including a previous append failure — the checkpoint
    /// must not outrun lost writes).
    ///
    /// Public as a test seam: the recovery tests log checkpoints without
    /// running a replicator.
    pub fn persist_replication_checkpoint(&self, checkpoint: u64) -> Result<(), StoreError> {
        self.apply_replicated(Vec::new(), Some(checkpoint));
        match self.inner.read().durability.as_ref() {
            None => Err(StoreError::Io("store is not durable".to_string())),
            Some(d) => match &d.failed {
                Some(why) => Err(StoreError::Io(why.clone())),
                None => Ok(()),
            },
        }
    }

    /// The durably recorded replication checkpoint (0 until one is
    /// persisted), or `None` for an in-memory store. A
    /// [`crate::Replicator`] into this store resumes from it, so a
    /// restarted replica does not re-transfer the history it holds.
    pub fn replication_checkpoint_persisted(&self) -> Option<u64> {
        self.inner
            .read()
            .durability
            .as_ref()
            .map(|d| d.rep_checkpoint)
    }
}
