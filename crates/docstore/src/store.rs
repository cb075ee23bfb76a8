//! The document store: MVCC puts, incrementally indexed views, a
//! compacting changes feed, a read-only mode for DMZ replicas (§5.1:
//! "The DMZ instance is read-only in order to prevent modifications by the
//! web frontend, thus satisfying requirement S1"), and an optional durable
//! mode ([`DocStore::open`]) backed by a write-ahead log plus periodic
//! snapshots.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use safeweb_json::{Str, Value};
use safeweb_labels::LabelSet;
use safeweb_obs::{Counter, Histogram, MetricsRegistry};
use safeweb_sync::{Mutex, RwLock};

use crate::document::{Document, Revision};
use crate::replication::CommitSignal;
use crate::snapshot;
use crate::wal::{self, GroupCommit, Record, Wal, WalError, WalSync};

/// Default bound on the verbatim tail of the changes feed: once the feed
/// holds twice as many entries as live documents plus this many, it is
/// compacted down to the latest entry per id plus this many recent
/// entries. See [`DocStore::set_changes_retention`].
pub const DEFAULT_CHANGES_RETENTION: usize = 1024;

/// Default floor on the number of WAL records between automatic snapshots
/// in a durable store (a store holding more than half this many documents
/// waits for twice its document count instead): the recovery replay and
/// the on-disk log stay bounded while each snapshot's full-store write is
/// amortised over at least as many appends as it writes documents.
/// See [`DocStore::set_snapshot_every`].
pub const DEFAULT_SNAPSHOT_EVERY: usize = 8192;

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The supplied revision does not match the current one (concurrent
    /// update).
    Conflict {
        /// The id of the conflicting document.
        id: String,
        /// The revision currently stored.
        current: Option<Revision>,
    },
    /// The store is in read-only (DMZ replica) mode.
    ReadOnly,
    /// No view registered under this name.
    UnknownView(String),
    /// The document id is empty or contains control characters.
    BadId(String),
    /// A durable store failed to append to its write-ahead log; the write
    /// was **not** applied. Carries the underlying I/O error text.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Conflict { id, current } => match current {
                Some(rev) => write!(f, "document conflict on {id:?} (current rev {rev})"),
                None => write!(f, "document conflict on {id:?} (deleted or never existed)"),
            },
            StoreError::ReadOnly => write!(f, "store is read-only"),
            StoreError::UnknownView(v) => write!(f, "unknown view {v:?}"),
            StoreError::BadId(id) => write!(f, "invalid document id {id:?}"),
            StoreError::Io(e) => write!(f, "write-ahead log failure: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One entry in the changes feed.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The changed document id; it dereferences to `str`.
    pub id: Str,
    /// The revision after the change (`None` = deletion).
    pub rev: Option<Revision>,
}

/// One document's state as a replication run carries it.
#[derive(Debug)]
pub(crate) enum Replicated {
    /// The document's current version.
    Put(Document),
    /// The id is deleted.
    Delete(Str),
}

/// What one [`DocStore::apply_replicated`] transaction did.
#[derive(Debug, Default)]
pub(crate) struct Applied {
    /// Documents written (entries already at their revision are skipped).
    pub(crate) written: u64,
    /// Documents deleted.
    pub(crate) deleted: u64,
    /// The replication checkpoint the store has logged afterwards; `None`
    /// for an in-memory store.
    pub(crate) logged: Option<u64>,
}

/// A registered view: the indexed body field plus the index itself,
/// maintained incrementally on every write. Index keys are the
/// [order-preserving encoding](index_key) of the field value, so equal
/// values always collide on the same bucket **and** the map's key order
/// is the value order — which is what `query_view_range` walks.
#[derive(Debug, Default)]
struct View {
    field: String,
    index: BTreeMap<String, BTreeSet<Id>>,
}

/// A document id as the store's maps key it: a [`Str`], inline for every
/// id this system writes, so keying a document costs no allocation. It
/// is ordered and probed by its bytes (`map.get(id.as_bytes())`), which
/// order as the text does, so a lookup re-checks no UTF-8.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Id(Str);

impl Borrow<[u8]> for Id {
    fn borrow(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// Shared state of the background snapshot writer. Every snapshot
/// ([`Inner::start_snapshot`]) rotates the WAL segment and takes a handle
/// onto every document under the store lock — both cheap — and pushes
/// the expensive full-store file write onto a background thread, so
/// writers never stall behind it.
#[derive(Debug)]
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
struct WriteTicket {
    group: Arc<GroupCommit>,
    ticket: u64,
}

/// The persistence state of a durable store: its open WAL, snapshot
/// cadence, and the recovered replication checkpoint.
#[derive(Debug)]
struct Durability {
    wal: Wal,
    dir: PathBuf,
    /// Floor on the WAL records between automatic snapshots (0 = manual
    /// only); see [`Inner::maybe_snapshot`] for the trigger.
    snapshot_every: usize,
    /// Records appended since the last snapshot.
    since_snapshot: usize,
    /// The replication checkpoint this store has durably applied through
    /// (see [`DocStore::persist_replication_checkpoint`]).
    rep_checkpoint: u64,
    /// Sticky WAL-append failure: once set, external writes are refused
    /// and the checkpoint stops advancing, so recovery can never claim
    /// more than what actually reached the log.
    failed: Option<String>,
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

#[derive(Debug)]
struct Inner {
    docs: BTreeMap<Id, Document>,
    seq: u64,
    /// Strictly seq-ascending, so lookups can binary-search.
    changes: Vec<Change>,
    /// Horizon of the last compaction: entries with `seq <=
    /// compacted_seq` have been reduced to one latest entry per live id,
    /// and delete tombstones below it are gone.
    compacted_seq: u64,
    /// Auto-compaction threshold (0 = never compact automatically).
    changes_retention: usize,
    views: BTreeMap<String, View>,
    read_only: bool,
    /// `Some` iff the store was opened with [`DocStore::open`].
    durability: Option<Durability>,
    /// End-to-end [`DocStore::put`] latency (including the group-commit
    /// durability wait). Detached until [`DocStore::attach_metrics`]
    /// swaps in a registry-backed handle.
    put_ns: Histogram,
    /// Snapshots started (automatic and [`DocStore::snapshot_now`]) and
    /// changes-feed compactions run; surfaced by
    /// [`DocStore::attach_metrics`].
    snapshots: Counter,
    compactions: Counter,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            docs: BTreeMap::new(),
            seq: 0,
            changes: Vec::new(),
            compacted_seq: 0,
            changes_retention: DEFAULT_CHANGES_RETENTION,
            views: BTreeMap::new(),
            read_only: false,
            durability: None,
            put_ns: Histogram::new(),
            snapshots: Counter::new(),
            compactions: Counter::new(),
        }
    }
}

/// The **order-preserving** index key for a field value, or `None` when
/// the value cannot be indexed faithfully (non-finite floats: `NaN` does
/// not even equal itself, so such values are never indexed and never
/// matched — same as the seed's equality scan).
///
/// The encoding is a type tag byte followed by a per-type payload whose
/// byte order equals the value order, which is what lets
/// [`DocStore::query_view_range`] run as one `BTreeMap::range` walk:
///
/// * `b0`/`b1` — booleans;
/// * `f` + 16 hex digits — finite floats, IEEE-754 bits sign-flipped into
///   a lexicographically sortable integer (`-0.0` canonicalised to
///   `0.0`, matching f64 equality);
/// * `i` + 16 hex digits — integers, offset-binary (`value ^ i64::MIN`);
/// * `j` + deterministic JSON — arrays/objects (equality lookups only;
///   their relative order is the encoding's, not anything semantic);
/// * `s` + the raw string — strings, byte order = `str` order;
/// * `z` — null.
///
/// The tag keeps types in disjoint key ranges, so a typed range bound can
/// never sweep in values of another type, and `Int(1)`/`Float(1.0)`
/// remain distinct buckets exactly as they were under the previous
/// JSON-encoding key. Keys live only in memory (views are rebuilt on
/// recovery), so the encoding can evolve without a WAL migration.
fn index_key(value: &Value) -> Option<String> {
    fn finite(value: &Value) -> bool {
        match value {
            Value::Float(f) => f.is_finite(),
            Value::Array(items) => items.iter().all(finite),
            Value::Object(map) => map.values().all(finite),
            _ => true,
        }
    }
    Some(match value {
        Value::Null => "z".to_string(),
        Value::Bool(false) => "b0".to_string(),
        Value::Bool(true) => "b1".to_string(),
        Value::Int(i) => format!("i{:016x}", (*i as u64) ^ (1 << 63)),
        Value::Float(f) => {
            if !f.is_finite() {
                return None;
            }
            // `-0.0` canonicalises to `0.0`: f64 comparison (and
            // `Value`'s derived equality, which the linear-scan oracle
            // uses) treats them as equal, so they must share one bucket
            // and one ordering position.
            let f = if *f == 0.0 { 0.0 } else { *f };
            let bits = f.to_bits();
            // Standard total-order transform: flip everything for
            // negatives, flip only the sign for positives.
            let ordered = if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            };
            format!("f{ordered:016x}")
        }
        Value::Str(s) => format!("s{s}"),
        Value::Array(_) | Value::Object(_) => {
            if !finite(value) {
                return None;
            }
            format!("j{}", value.to_json())
        }
    })
}

/// Moves a document id between view buckets as its stored document
/// changes from `old` to `new` (`None` = absent before / deleted after).
/// The common update leaves the indexed field alone and touches nothing.
fn reindex(views: &mut BTreeMap<String, View>, old: Option<&Document>, new: Option<&Document>) {
    for view in views.values_mut() {
        let old_value = old.and_then(|d| d.body().get(&view.field));
        let new_value = new.and_then(|d| d.body().get(&view.field));
        if old_value == new_value {
            continue;
        }
        if let Some((doc, key)) = old.zip(old_value.and_then(index_key)) {
            if let Some(ids) = view.index.get_mut(&key) {
                ids.remove(doc.id_str().as_bytes());
                if ids.is_empty() {
                    view.index.remove(&key);
                }
            }
        }
        if let Some((doc, key)) = new.zip(new_value.and_then(index_key)) {
            view.index
                .entry(key)
                .or_default()
                .insert(Id(doc.id_str().clone()));
        }
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
    fn persist<R: AsRef<[String]>>(
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
    fn maybe_snapshot(&mut self) {
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
        let (dir, rep, seq) = (d.dir.clone(), d.rep_checkpoint, self.seq);
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

    /// Replaces (or inserts) `doc`, keeping every view index in sync —
    /// including re-indexing when the indexed field's value changed.
    fn store_doc(&mut self, doc: Document) {
        match self.docs.get_mut(doc.id_str().as_bytes()) {
            Some(slot) => {
                reindex(&mut self.views, Some(slot), Some(&doc));
                *slot = doc;
            }
            None => {
                reindex(&mut self.views, None, Some(&doc));
                self.docs.insert(Id(doc.id_str().clone()), doc);
            }
        }
    }

    fn remove_doc(&mut self, id: &str) -> Option<Document> {
        let doc = self.docs.remove(id.as_bytes())?;
        reindex(&mut self.views, Some(&doc), None);
        Some(doc)
    }

    fn record_change(&mut self, id: Str, rev: Option<Revision>) {
        self.seq += 1;
        self.changes.push(Change {
            seq: self.seq,
            id,
            rev,
        });
        self.maybe_compact();
    }

    /// Auto-compaction, on a geometric trigger: the feed is compacted
    /// once it holds `2 × (live docs + retention)` entries, down to at
    /// most `live + retention`. Each `O(feed)` compaction is therefore
    /// paid for by at least `live + retention` writes — `O(1)` per write
    /// — while the feed stays at `O(live docs + retention)` entries.
    fn maybe_compact(&mut self) {
        let retention = self.changes_retention;
        if retention == 0 || self.changes.len() < 2 * (self.docs.len() + retention) {
            return;
        }
        let horizon = self.changes[self.changes.len() - retention - 1].seq;
        self.compact_to(horizon);
    }

    /// Compacts every entry with `seq <= horizon` down to the latest entry
    /// per still-live id. Tombstones and superseded revisions below the
    /// horizon are dropped; a replication checkpoint below `compacted_seq`
    /// can therefore no longer be served incrementally and must full-resync
    /// ([`crate::Replicator`] does this automatically).
    fn compact_to(&mut self, horizon: u64) {
        let cut = self.changes.partition_point(|c| c.seq <= horizon);
        self.compacted_seq = self.compacted_seq.max(horizon);
        if cut == 0 {
            return;
        }
        self.compactions.inc();
        // An id "seen" at a higher seq supersedes every earlier entry.
        let mut seen: HashSet<&str> = self.changes[cut..].iter().map(|c| c.id.as_str()).collect();
        let mut keep = vec![false; cut];
        for (slot, change) in keep.iter_mut().zip(&self.changes[..cut]).rev() {
            let newest = seen.insert(&change.id);
            *slot = newest && change.rev.is_some() && self.docs.contains_key(change.id.as_bytes());
        }
        let mut below_horizon = keep.into_iter();
        self.changes
            .retain(|_| below_horizon.next().unwrap_or(true));
    }
}

/// A CouchDB-style document database. Cheap to clone (shared state).
///
/// Views are *incrementally indexed*: [`DocStore::create_view`] builds a
/// `field value → document ids` index which every subsequent write keeps
/// current, so [`DocStore::query_view`] is a lookup, not a scan. Id-prefix
/// families (`record-*`) are served by [`DocStore::scan_prefix`] /
/// [`DocStore::count_prefix`] as ordered-map range queries.
///
/// ```
/// use safeweb_docstore::DocStore;
/// use safeweb_json::jobject;
/// use safeweb_labels::{Label, LabelSet};
///
/// let store = DocStore::new("app");
/// let labels = LabelSet::singleton(Label::conf("ecric.org.uk", "mdt/a"));
/// let rev = store.put("rec-1", jobject!{"mdt" => "a"}, labels, None)?;
/// let doc = store.get("rec-1").expect("stored");
/// assert_eq!(doc.rev(), &rev);
/// # Ok::<(), safeweb_docstore::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DocStore {
    name: String,
    inner: Arc<RwLock<Inner>>,
    /// Raised after every committed write; replication parks on it.
    commits: Arc<CommitSignal>,
}

impl DocStore {
    /// Creates an empty store named `name` (names appear in replication
    /// diagnostics).
    pub fn new(name: &str) -> DocStore {
        DocStore {
            name: name.to_string(),
            inner: Arc::new(RwLock::new(Inner::default())),
            commits: Arc::default(),
        }
    }

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
            inner.seq = snap.seq;
            inner.compacted_seq = snap.seq;
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
                Record::Put { seq, doc } if seq > inner.seq => {
                    let id = doc.id_str().clone();
                    let rev = doc.rev().clone();
                    inner.docs.insert(Id(id.clone()), doc);
                    inner.seq = seq;
                    inner.changes.push(Change {
                        seq,
                        id,
                        rev: Some(rev),
                    });
                }
                Record::Delete { seq, id } if seq > inner.seq => {
                    inner.docs.remove(id.as_bytes());
                    inner.seq = seq;
                    inner.changes.push(Change {
                        seq,
                        id: Str::from(id),
                        rev: None,
                    });
                }
                Record::Checkpoint { rep } => rep_checkpoint = rep,
                Record::Put { .. } | Record::Delete { .. } => {}
            }
        }
        inner.maybe_compact();
        inner.durability = Some(Durability {
            wal,
            dir: dir.to_path_buf(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            since_snapshot: replayed,
            rep_checkpoint,
            failed: None,
            snapshot_error: None,
            snapshots: Arc::new(SnapshotTask {
                handle: Mutex::new(None),
                inflight: AtomicBool::new(false),
                outcome: Mutex::new(None),
            }),
        });
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "durable".to_string());
        Ok(DocStore {
            name,
            inner: Arc::new(RwLock::new(inner)),
            commits: Arc::default(),
        })
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wires this store's telemetry into `registry` under `prefix`
    /// (e.g. `"docstore.app"`), so a deployment can attach several
    /// stores to one registry without name collisions:
    ///
    /// * `<prefix>.put_ns` — end-to-end [`DocStore::put`] latency;
    /// * `<prefix>.wal_fsync_ns` — group-commit leader `fdatasync` cost
    ///   (durable stores under [`WalSync::Always`] only);
    /// * `<prefix>.commit_batch_size` — appends released per leader sync;
    /// * `<prefix>.snapshots` / `<prefix>.compactions` — snapshots started
    ///   and changes-feed compactions run since the store was created;
    /// * `<prefix>.seq` / `<prefix>.docs` / `<prefix>.wal_bytes` —
    ///   derived gauges over the live store.
    ///
    /// Safe to call on any clone; handles are shared, so every clone's
    /// writes land in the registry afterwards. Metric values are counts,
    /// durations and sequence numbers — no document data.
    pub fn attach_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let put_ns = registry.histogram(&format!("{prefix}.put_ns"));
        let fsync_ns = registry.histogram(&format!("{prefix}.wal_fsync_ns"));
        let batch = registry.histogram_with(
            &format!("{prefix}.commit_batch_size"),
            Histogram::size_bounds(),
        );
        let mut inner = self.inner.write();
        inner.put_ns = put_ns;
        registry.register_counter(&format!("{prefix}.snapshots"), &inner.snapshots);
        registry.register_counter(&format!("{prefix}.compactions"), &inner.compactions);
        if let Some(d) = inner.durability.as_ref() {
            d.wal.group().set_metrics(fsync_ns, batch);
        }
        drop(inner);
        let store = self.clone();
        registry.register_derived(&format!("{prefix}.seq"), move || store.seq() as f64);
        let store = self.clone();
        registry.register_derived(&format!("{prefix}.docs"), move || store.len() as f64);
        let store = self.clone();
        registry.register_derived(&format!("{prefix}.wal_bytes"), move || {
            store.wal_len().unwrap_or(0) as f64
        });
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
    fn wait_durable(&self, ticket: Option<WriteTicket>) -> Result<(), StoreError> {
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
    fn settle_snapshot(&self) {
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

    /// Switches read-only mode (the DMZ replica runs with `true`).
    pub fn set_read_only(&self, read_only: bool) {
        self.inner.write().read_only = read_only;
    }

    /// Creates or updates a document.
    ///
    /// `expected_rev` must be `None` for a fresh id and the current
    /// revision for an update (MVCC).
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] on revision mismatch, [`StoreError::ReadOnly`]
    /// in replica mode, [`StoreError::BadId`] for malformed ids.
    pub fn put(
        &self,
        id: &str,
        body: Value,
        labels: LabelSet,
        expected_rev: Option<&Revision>,
    ) -> Result<Revision, StoreError> {
        validate_id(id)?;
        let span_start = safeweb_obs::now_ns();
        let trace = safeweb_obs::current_trace();
        // The one serialisation of this version: the revision digest and
        // the WAL record both take these bytes, outside the lock.
        let body_json = body.to_json();
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(StoreError::ReadOnly);
        }
        let put_ns = inner.put_ns.clone();
        let new_rev = match (inner.docs.get(id.as_bytes()), expected_rev) {
            (None, None) => Revision::first(&body_json),
            (Some(current), Some(expected)) if current.rev() == expected => {
                current.rev().next(&body_json)
            }
            (current, _) => {
                return Err(StoreError::Conflict {
                    id: id.to_string(),
                    current: current.map(|d| d.rev().clone()),
                })
            }
        };
        let id = Str::from(id);
        let doc = Document::new(id.clone(), new_rev.clone(), labels, body);
        let next_seq = inner.seq + 1;
        let ticket = inner.persist(|| [wal::encode_put(next_seq, &doc, Some(&body_json))])?;
        let labels_id = doc.labels().id().as_u32();
        inner.store_doc(doc);
        inner.record_change(id, Some(new_rev.clone()));
        inner.maybe_snapshot();
        drop(inner);
        self.commits.raise();
        self.wait_durable(ticket)?;
        // The span carries only structure: the store's name, the interned
        // label-set id, and timing — never the document id or body.
        put_ns.observe(safeweb_obs::now_ns().saturating_sub(span_start));
        safeweb_obs::record_span("docstore", &self.name, trace, span_start, Some(labels_id));
        Ok(new_rev)
    }

    /// Deletes a document (MVCC-checked).
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] if the revision does not match,
    /// [`StoreError::ReadOnly`] in replica mode.
    pub fn delete(&self, id: &str, expected_rev: &Revision) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        if inner.read_only {
            return Err(StoreError::ReadOnly);
        }
        match inner.docs.get(id.as_bytes()) {
            Some(doc) if doc.rev() == expected_rev => {
                let next_seq = inner.seq + 1;
                let ticket = inner.persist(|| [wal::encode_delete(next_seq, id)])?;
                inner.remove_doc(id);
                inner.record_change(Str::from(id), None);
                inner.maybe_snapshot();
                drop(inner);
                self.commits.raise();
                self.wait_durable(ticket)
            }
            other => Err(StoreError::Conflict {
                id: id.to_string(),
                current: other.map(|d| d.rev().clone()),
            }),
        }
    }

    /// Fetches a document by id.
    pub fn get(&self, id: &str) -> Option<Document> {
        self.inner.read().docs.get(id.as_bytes()).cloned()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.inner.read().docs.is_empty()
    }

    /// All document ids in order.
    pub fn ids(&self) -> Vec<String> {
        self.inner
            .read()
            .docs
            .keys()
            .map(|id| id.0.as_str().to_owned())
            .collect()
    }

    /// Registers a view indexing `field` of document bodies, CouchRest's
    /// `by_<field>` idiom (the paper's Listing 2 uses `Records.by_mid`).
    ///
    /// The index over the documents already stored is built immediately;
    /// every later [`DocStore::put`] / [`DocStore::delete`] / replication
    /// write maintains it incrementally (including moving a document
    /// between buckets when the indexed field's value changes).
    pub fn create_view(&self, view: &str, field: &str) {
        let mut inner = self.inner.write();
        let mut v = View {
            field: field.to_string(),
            index: BTreeMap::new(),
        };
        for doc in inner.docs.values() {
            if let Some(key) = doc.body().get(field).and_then(index_key) {
                v.index
                    .entry(key)
                    .or_default()
                    .insert(Id(doc.id_str().clone()));
            }
        }
        inner.views.insert(view.to_string(), v);
    }

    /// Queries a view: documents whose indexed field equals `key`, in id
    /// order. An index lookup — `O(log buckets + matches)`, independent of
    /// store size.
    ///
    /// Keys containing non-finite floats never match anything (JSON
    /// cannot represent them, and `NaN` does not equal itself).
    ///
    /// The view name selects query *structure*, so it is secure by
    /// construction: a compile-time literal, taint-checked string or
    /// audited declassify (see [`safeweb_safeq::TrustedLiteral`]). The
    /// key stays plain data — it is matched structurally against the
    /// index, so user input is safe there.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownView`] if the view was never created.
    pub fn query_view(
        &self,
        view: impl Into<safeweb_safeq::TrustedLiteral>,
        key: &Value,
    ) -> Result<Vec<Document>, StoreError> {
        let name = view.into();
        let inner = self.inner.read();
        let view = inner
            .views
            .get(name.as_str())
            .ok_or_else(|| StoreError::UnknownView(name.as_str().to_string()))?;
        let Some(ids) = index_key(key).and_then(|k| view.index.get(&k)) else {
            return Ok(Vec::new());
        };
        Ok(ids
            .iter()
            .map(|id| inner.docs.get(id).expect("view index in sync").clone())
            .collect())
    }

    /// Queries a view for documents whose indexed field falls in
    /// `range` — a walk over the ordered key index
    /// (`O(log buckets + matches)`), so `by_age.range(18..65)`-style
    /// lookups never scan the store. Results come back in ascending key
    /// order, id order within one key.
    ///
    /// Bounds compare in the index's order-preserving key encoding:
    /// numerically within `Int` keys and within
    /// finite `Float` keys, byte-lexicographically within `Str` keys.
    /// The two numeric types occupy disjoint tag ranges (as they are
    /// distinct buckets under equality too), so range ends should be the
    /// same scalar type as the indexed values. A bound that cannot be
    /// indexed (non-finite float) matches nothing, and an inverted range
    /// is empty. The view name is trusted as for
    /// [`DocStore::query_view`]; range bounds are data and need no trust.
    ///
    /// ```
    /// use safeweb_docstore::DocStore;
    /// use safeweb_json::{jobject, Value};
    /// use safeweb_labels::LabelSet;
    ///
    /// let store = DocStore::new("t");
    /// store.create_view("by_age", "age");
    /// for (id, age) in [("a", 17), ("b", 30), ("c", 64), ("d", 65)] {
    ///     store.put(id, jobject! {"age" => age}, LabelSet::new(), None).unwrap();
    /// }
    /// let adults = store
    ///     .query_view_range("by_age", Value::from(18)..Value::from(65))
    ///     .unwrap();
    /// let ids: Vec<&str> = adults.iter().map(|d| d.id()).collect();
    /// assert_eq!(ids, ["b", "c"]);
    /// ```
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownView`] if the view was never created.
    pub fn query_view_range<R>(
        &self,
        view: impl Into<safeweb_safeq::TrustedLiteral>,
        range: R,
    ) -> Result<Vec<Document>, StoreError>
    where
        R: std::ops::RangeBounds<Value>,
    {
        let name = view.into();
        let inner = self.inner.read();
        let view = inner
            .views
            .get(name.as_str())
            .ok_or_else(|| StoreError::UnknownView(name.as_str().to_string()))?;
        let encode = |bound: Bound<&Value>| -> Option<Bound<String>> {
            match bound {
                Bound::Unbounded => Some(Bound::Unbounded),
                Bound::Included(value) => index_key(value).map(Bound::Included),
                Bound::Excluded(value) => index_key(value).map(Bound::Excluded),
            }
        };
        let (Some(lo), Some(hi)) = (encode(range.start_bound()), encode(range.end_bound())) else {
            // A non-indexable bound (non-finite float) can match nothing.
            return Ok(Vec::new());
        };
        // `BTreeMap::range` panics on inverted ranges; they are simply
        // empty here.
        if let (
            Bound::Included(start) | Bound::Excluded(start),
            Bound::Included(end) | Bound::Excluded(end),
        ) = (&lo, &hi)
        {
            let both_excluded = matches!((&lo, &hi), (Bound::Excluded(_), Bound::Excluded(_)));
            if start > end || (start == end && both_excluded) {
                return Ok(Vec::new());
            }
        }
        let mut docs = Vec::new();
        for ids in view.index.range((lo, hi)).map(|(_, ids)| ids) {
            docs.extend(
                ids.iter()
                    .map(|id| inner.docs.get(id).expect("view index in sync").clone()),
            );
        }
        Ok(docs)
    }

    /// Scans all documents with a predicate over bodies. `O(n)` — prefer
    /// [`DocStore::query_view`] or [`DocStore::scan_prefix`] on hot paths.
    pub fn scan(&self, mut predicate: impl FnMut(&Document) -> bool) -> Vec<Document> {
        self.inner
            .read()
            .docs
            .values()
            .filter(|d| predicate(d))
            .cloned()
            .collect()
    }

    /// All documents whose id starts with `prefix`, in id order: a range
    /// query over the ordered id map (`O(log n + matches)`), serving id
    /// families like `record-*` without walking the whole store.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<Document> {
        self.inner
            .read()
            .docs
            .range::<[u8], _>((Bound::Included(prefix.as_bytes()), Bound::Unbounded))
            .take_while(|(id, _)| id.0.as_bytes().starts_with(prefix.as_bytes()))
            .map(|(_, d)| d.clone())
            .collect()
    }

    /// Counts documents whose id starts with `prefix` without cloning them.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.inner
            .read()
            .docs
            .range::<[u8], _>((Bound::Included(prefix.as_bytes()), Bound::Unbounded))
            .take_while(|(id, _)| id.0.as_bytes().starts_with(prefix.as_bytes()))
            .count()
    }

    /// The current sequence number (grows with every write).
    pub fn seq(&self) -> u64 {
        self.inner.read().seq
    }

    /// Changes with `seq > since`, for replication. A binary search into
    /// the seq-sorted feed plus a copy of the tail.
    ///
    /// When `since` predates [`DocStore::compacted_seq`], the result is
    /// *incomplete*: compaction has dropped tombstones and superseded
    /// entries below the horizon, so callers must fall back to a full
    /// resync instead (as [`crate::Replicator::run_once`] does with its
    /// own read of the feed).
    pub fn changes_since(&self, since: u64) -> Vec<Change> {
        let inner = self.inner.read();
        let start = inner.changes.partition_point(|c| c.seq <= since);
        inner.changes[start..].to_vec()
    }

    /// The compaction horizon: change entries at or below this sequence
    /// number may have been compacted away (deletions silently so). A
    /// replication checkpoint below the horizon cannot be served
    /// incrementally.
    pub fn compacted_seq(&self) -> u64 {
        self.inner.read().compacted_seq
    }

    /// Number of entries currently held by the changes feed (diagnostics:
    /// bounded at `O(live docs + retention)` when auto-compaction is on).
    /// Public for the `docstore` and `backend` benches, which report that
    /// bound.
    pub fn changes_len(&self) -> usize {
        self.inner.read().changes.len()
    }

    /// Sets the auto-compaction retention (default
    /// [`DEFAULT_CHANGES_RETENTION`]): the feed keeps at least this many
    /// most-recent entries verbatim and compacts everything older once it
    /// holds `2 × (live docs + retention)` entries, which leaves at most
    /// `live docs + retention` — so the feed is bounded and a compaction
    /// is paid for by at least as many writes as it scans entries. `0`
    /// disables auto-compaction (the seed's unbounded behaviour). Public
    /// for the `docstore` bench's unbounded arm and the feed-bound tests.
    pub fn set_changes_retention(&self, retention: usize) {
        self.inner.write().changes_retention = retention;
    }

    /// Compacts the changes feed now, keeping the most recent
    /// `retain_recent` entries verbatim and one latest entry per live id
    /// below that horizon. Tombstones below the horizon are dropped —
    /// replication checkpoints older than the horizon then require a full
    /// resync. Public as a test seam: the replication and view properties
    /// compact at random points.
    pub fn compact_changes(&self, retain_recent: usize) {
        let mut inner = self.inner.write();
        if inner.changes.len() <= retain_recent {
            return;
        }
        let horizon = inner.changes[inner.changes.len() - retain_recent - 1].seq;
        inner.compact_to(horizon);
    }

    /// An atomic snapshot of the store: the sequence number and every live
    /// document, taken under one read lock. Full replication resyncs use
    /// this so the checkpoint they install is consistent with the
    /// documents they copied.
    pub fn snapshot(&self) -> (u64, Vec<Document>) {
        let inner = self.inner.read();
        (inner.seq, inner.docs.values().cloned().collect())
    }

    /// Blocks until `done(self)` holds or `timeout` has passed; returns
    /// whether it held. `done` is checked on entry and again after every
    /// write committed to this store (local puts and deletions, and
    /// replicated ones — so a replica can be waited on), never on a
    /// timer: keep it cheap, it may run once per commit.
    pub fn wait_until(&self, timeout: Duration, mut done: impl FnMut(&DocStore) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Read the generation before checking, so a commit landing
            // between the check and the park ends the park at once.
            let seen = self.commits.generation();
            if done(self) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.commits.park_past(seen, left);
        }
    }

    /// The signal raised after every committed write to this store.
    pub(crate) fn commit_signal(&self) -> &Arc<CommitSignal> {
        &self.commits
    }

    /// A replication run's read transaction: every id changed past
    /// `since`, once and in id order, as its current version or its
    /// deletion, with the sequence number that state is current as of —
    /// all under one read lock, so no write can fall between the feed and
    /// the documents. `None` when the feed cannot serve `since`: it was
    /// compacted past it (the tombstones below the horizon are gone), or
    /// `since` is ahead of this store (the store was lost and recreated).
    /// The caller must then resync.
    pub(crate) fn replication_batch(&self, since: u64) -> Option<(u64, Vec<Replicated>)> {
        let inner = self.inner.read();
        if since > inner.seq || since < inner.compacted_seq {
            return None;
        }
        let start = inner.changes.partition_point(|c| c.seq <= since);
        // Past the horizon the feed is verbatim, so every id changed there
        // is present now exactly when its newest change is a put.
        let ids: BTreeSet<&Str> = inner.changes[start..].iter().map(|c| &c.id).collect();
        let batch = ids
            .into_iter()
            .map(|id| match inner.docs.get(id.as_bytes()) {
                Some(doc) => Replicated::Put(doc.clone()),
                None => Replicated::Delete(id.clone()),
            })
            .collect();
        Some((inner.seq, batch))
    }

    /// A replication run's write transaction, bypassing MVCC and the
    /// read-only switch: replication is a *trusted, internal* data path —
    /// the DMZ replica refuses writes from the web frontend but accepts
    /// pushes from the Intranet instance (Figure 4).
    ///
    /// Entries the store already reflects (same revision, or the deletion
    /// of an absent id) are skipped. A durable store logs the rest with
    /// one append — followed by `checkpoint` when it is not the one
    /// already logged — before anything changes in memory, so a torn
    /// append recovers a prefix of the batch and never a checkpoint past
    /// a missing document. Then everything applies and the commit signal
    /// is raised once (a checkpoint-only transaction raises it too).
    ///
    /// A log failure does not stop the apply — the replica stays correct
    /// at runtime — but it is made sticky, a validation refusal
    /// (oversized record) included, and the checkpoint does not advance:
    /// recovery then resumes from a checkpoint predating the unlogged
    /// writes and re-replicates them, instead of losing them silently.
    pub(crate) fn apply_replicated(
        &self,
        mut batch: Vec<Replicated>,
        checkpoint: Option<u64>,
    ) -> Applied {
        let mut inner = self.inner.write();
        batch.retain(|entry| match entry {
            Replicated::Put(doc) => inner
                .docs
                .get(doc.id_str().as_bytes())
                .is_none_or(|held| held.rev() != doc.rev()),
            Replicated::Delete(id) => inner.docs.contains_key(id.as_bytes()),
        });
        let logged = inner.durability.as_ref().map(|d| d.rep_checkpoint);
        let checkpoint = checkpoint.filter(|c| logged.is_some_and(|l| l != *c));
        if batch.is_empty() && checkpoint.is_none() {
            return Applied {
                logged,
                ..Applied::default()
            };
        }
        let first_seq = inner.seq + 1;
        let persisted = inner.persist(|| {
            let mut records: Vec<String> = batch
                .iter()
                .zip(first_seq..)
                .map(|(entry, seq)| match entry {
                    Replicated::Put(doc) => wal::encode_put(seq, doc, None),
                    Replicated::Delete(id) => wal::encode_delete(seq, id),
                })
                .collect();
            records.extend(checkpoint.map(wal::encode_checkpoint));
            records
        });
        let ticket = match (persisted, inner.durability.as_mut()) {
            (Ok(ticket), Some(d)) => {
                if let Some(c) = checkpoint {
                    d.rep_checkpoint = c;
                }
                ticket
            }
            (Err(StoreError::Io(why)), Some(d)) => {
                d.failed.get_or_insert(why);
                None
            }
            _ => None,
        };
        let mut applied = Applied::default();
        for entry in batch {
            match entry {
                Replicated::Put(doc) => {
                    let (id, rev) = (doc.id_str().clone(), doc.rev().clone());
                    inner.store_doc(doc);
                    inner.record_change(id, Some(rev));
                    applied.written += 1;
                }
                Replicated::Delete(id) => {
                    inner.remove_doc(&id);
                    inner.record_change(id, None);
                    applied.deleted += 1;
                }
            }
        }
        inner.maybe_snapshot();
        applied.logged = inner.durability.as_ref().map(|d| d.rep_checkpoint);
        drop(inner);
        self.commits.raise();
        if self.wait_durable(ticket).is_err() {
            applied.logged = logged;
        }
        applied
    }
}

fn validate_id(id: &str) -> Result<(), StoreError> {
    if id.is_empty() || id.chars().any(|c| c.is_control()) {
        return Err(StoreError::BadId(id.to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_json::jobject;
    use safeweb_labels::Label;

    fn labels(p: &str) -> LabelSet {
        LabelSet::singleton(Label::conf("e", p))
    }

    #[test]
    fn put_get_roundtrip() {
        let store = DocStore::new("t");
        let rev = store
            .put("a", jobject! {"x" => 1}, labels("p/1"), None)
            .unwrap();
        let doc = store.get("a").unwrap();
        assert_eq!(doc.rev(), &rev);
        assert_eq!(doc.body().get("x").and_then(Value::as_i64), Some(1));
        assert!(doc.labels().contains(&Label::conf("e", "p/1")));
    }

    #[test]
    fn update_requires_current_rev() {
        let store = DocStore::new("t");
        let rev1 = store
            .put("a", jobject! {"x" => 1}, LabelSet::new(), None)
            .unwrap();
        // Fresh put on existing id: conflict.
        assert!(matches!(
            store.put("a", jobject! {"x" => 2}, LabelSet::new(), None),
            Err(StoreError::Conflict { .. })
        ));
        let rev2 = store
            .put("a", jobject! {"x" => 2}, LabelSet::new(), Some(&rev1))
            .unwrap();
        assert_eq!(rev2.generation(), 2);
        // Stale rev: conflict.
        assert!(matches!(
            store.put("a", jobject! {"x" => 3}, LabelSet::new(), Some(&rev1)),
            Err(StoreError::Conflict { .. })
        ));
    }

    #[test]
    fn delete_is_mvcc_checked() {
        let store = DocStore::new("t");
        let rev = store.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let stale = Revision::first(&jobject! {"other" => 1}.to_json());
        assert!(store.delete("a", &stale).is_err());
        store.delete("a", &rev).unwrap();
        assert!(store.get("a").is_none());
        assert!(store.delete("a", &rev).is_err());
    }

    #[test]
    fn read_only_blocks_external_writes() {
        let store = DocStore::new("dmz");
        store.set_read_only(true);
        assert_eq!(
            store.put("a", jobject! {}, LabelSet::new(), None),
            Err(StoreError::ReadOnly)
        );
        // Internal replication path still works.
        let doc = Document::new(
            "a".into(),
            Revision::first(&jobject! {}.to_json()),
            LabelSet::new(),
            jobject! {},
        );
        let applied = store.apply_replicated(vec![Replicated::Put(doc)], None);
        assert_eq!((applied.written, applied.logged), (1, None));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn views_index_body_fields() {
        let store = DocStore::new("t");
        store.create_view("by_mid", "mdt_id");
        store
            .put(
                "r1",
                jobject! {"mdt_id" => "a", "n" => 1},
                LabelSet::new(),
                None,
            )
            .unwrap();
        store
            .put(
                "r2",
                jobject! {"mdt_id" => "b", "n" => 2},
                LabelSet::new(),
                None,
            )
            .unwrap();
        store
            .put(
                "r3",
                jobject! {"mdt_id" => "a", "n" => 3},
                LabelSet::new(),
                None,
            )
            .unwrap();
        let hits = store.query_view("by_mid", &Value::from("a")).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(store.query_view("nonexistent", &Value::from("a")).is_err());
    }

    #[test]
    fn view_created_after_puts_indexes_existing_docs() {
        let store = DocStore::new("t");
        store
            .put("r1", jobject! {"kind" => "m"}, LabelSet::new(), None)
            .unwrap();
        store
            .put("r2", jobject! {"kind" => "r"}, LabelSet::new(), None)
            .unwrap();
        store.create_view("by_kind", "kind");
        let hits = store.query_view("by_kind", &Value::from("m")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id(), "r1");
    }

    #[test]
    fn view_index_follows_field_changes_and_deletes() {
        let store = DocStore::new("t");
        store.create_view("by_mid", "mdt_id");
        let rev = store
            .put("r1", jobject! {"mdt_id" => "a"}, LabelSet::new(), None)
            .unwrap();
        // Update moves the doc to another bucket.
        let rev = store
            .put(
                "r1",
                jobject! {"mdt_id" => "b"},
                LabelSet::new(),
                Some(&rev),
            )
            .unwrap();
        assert!(store
            .query_view("by_mid", &Value::from("a"))
            .unwrap()
            .is_empty());
        assert_eq!(
            store.query_view("by_mid", &Value::from("b")).unwrap().len(),
            1
        );
        // Dropping the field removes it from the index entirely.
        let rev = store
            .put("r1", jobject! {"other" => 1}, LabelSet::new(), Some(&rev))
            .unwrap();
        assert!(store
            .query_view("by_mid", &Value::from("b"))
            .unwrap()
            .is_empty());
        // Restore and delete: bucket empties again.
        let rev = store
            .put(
                "r1",
                jobject! {"mdt_id" => "b"},
                LabelSet::new(),
                Some(&rev),
            )
            .unwrap();
        store.delete("r1", &rev).unwrap();
        assert!(store
            .query_view("by_mid", &Value::from("b"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn non_finite_floats_never_match_views() {
        let store = DocStore::new("t");
        store.create_view("by_v", "v");
        store
            .put("nan", jobject! {"v" => f64::NAN}, LabelSet::new(), None)
            .unwrap();
        store
            .put(
                "inf",
                jobject! {"v" => f64::INFINITY},
                LabelSet::new(),
                None,
            )
            .unwrap();
        store
            .put("null", jobject! {"v" => Value::Null}, LabelSet::new(), None)
            .unwrap();
        // Non-finite floats serialise to JSON null; they must NOT collide
        // with each other or with a real null bucket.
        let nulls = store.query_view("by_v", &Value::Null).unwrap();
        assert_eq!(nulls.len(), 1);
        assert_eq!(nulls[0].id(), "null");
        assert!(store
            .query_view("by_v", &Value::Float(f64::NAN))
            .unwrap()
            .is_empty());
        assert!(store
            .query_view("by_v", &Value::Float(f64::INFINITY))
            .unwrap()
            .is_empty());
        // Updating a non-finite doc must not corrupt the index either.
        let rev = store.get("inf").unwrap().rev().clone();
        store
            .put("inf", jobject! {"v" => 1}, LabelSet::new(), Some(&rev))
            .unwrap();
        assert_eq!(store.query_view("by_v", &Value::from(1)).unwrap().len(), 1);
    }

    /// The order-preserving key encoding: float range results come back
    /// in numeric order across signs (with `-0.0` sharing `0.0`'s
    /// bucket, as f64 equality demands), int ranges across the `i64`
    /// extremes, and neither type's range sweeps in the other's buckets.
    #[test]
    fn range_queries_order_numerically() {
        let store = DocStore::new("t");
        store.create_view("by_v", "v");
        let floats = [-1.5e300, -2.0, -0.5, -0.0, 0.0, 0.25, 3.5, 2.5e300];
        for (i, f) in floats.iter().enumerate() {
            store
                .put(
                    &format!("f{i}"),
                    jobject! {"v" => *f},
                    LabelSet::new(),
                    None,
                )
                .unwrap();
        }
        for (id, v) in [
            ("imin", i64::MIN),
            ("ineg", -7),
            ("izero", 0),
            ("imax", i64::MAX),
        ] {
            store
                .put(id, jobject! {"v" => v}, LabelSet::new(), None)
                .unwrap();
        }

        let all_floats = store
            .query_view_range(
                "by_v",
                Value::Float(f64::NEG_INFINITY.next_up())..=Value::Float(f64::INFINITY.next_down()),
            )
            .unwrap();
        let got: Vec<f64> = all_floats
            .iter()
            .map(|d| d.body().get("v").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(got, floats, "floats out of numeric order");

        let negative = store
            .query_view_range("by_v", Value::Float(-3.0)..Value::Float(0.0))
            .unwrap();
        let ids: Vec<&str> = negative.iter().map(Document::id).collect();
        assert_eq!(
            ids,
            ["f1", "f2"],
            "v < 0.0 must exclude -0.0 (f64 says -0.0 == 0.0)"
        );
        let zeros = store.query_view("by_v", &Value::Float(-0.0)).unwrap();
        assert_eq!(zeros.len(), 2, "-0.0 and 0.0 share one equality bucket");

        let ints = store
            .query_view_range("by_v", Value::Int(i64::MIN)..=Value::Int(i64::MAX))
            .unwrap();
        let ids: Vec<&str> = ints.iter().map(Document::id).collect();
        assert_eq!(
            ids,
            ["imin", "ineg", "izero", "imax"],
            "ints span extremes in order"
        );
    }

    #[test]
    fn prefix_scan_is_a_range_query() {
        let store = DocStore::new("t");
        for id in ["metrics-a", "record-1", "record-2", "record-3", "zz"] {
            store.put(id, jobject! {}, LabelSet::new(), None).unwrap();
        }
        let records = store.scan_prefix("record-");
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|d| d.id().starts_with("record-")));
        assert_eq!(store.count_prefix("record-"), 3);
        assert_eq!(store.count_prefix("metrics-"), 1);
        assert_eq!(store.count_prefix("nothing-"), 0);
        // Prefix results arrive in id order.
        let ids: Vec<&str> = records.iter().map(Document::id).collect();
        assert_eq!(ids, ["record-1", "record-2", "record-3"]);
    }

    #[test]
    fn changes_feed_tracks_writes_and_deletes() {
        let store = DocStore::new("t");
        let rev = store.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        store.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        store.delete("a", &rev).unwrap();
        let all = store.changes_since(0);
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].rev, None);
        let tail = store.changes_since(2);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].id, "a");
    }

    #[test]
    fn changes_since_matches_linear_filter() {
        let store = DocStore::new("t");
        for i in 0..20 {
            store
                .put(&format!("d{i}"), jobject! {}, LabelSet::new(), None)
                .unwrap();
        }
        for since in 0..=21 {
            let got = store.changes_since(since);
            let expected: Vec<Change> = store
                .changes_since(0)
                .into_iter()
                .filter(|c| c.seq > since)
                .collect();
            assert_eq!(got, expected, "since={since}");
        }
    }

    #[test]
    fn compaction_keeps_latest_entry_per_live_id() {
        let store = DocStore::new("t");
        let mut rev = store
            .put("a", jobject! {"v" => 0}, LabelSet::new(), None)
            .unwrap();
        for v in 1..10 {
            rev = store
                .put("a", jobject! {"v" => v}, LabelSet::new(), Some(&rev))
                .unwrap();
        }
        let rev_b = store.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        store.delete("b", &rev_b).unwrap();
        assert_eq!(store.changes_len(), 12);

        store.compact_changes(0);
        // One entry survives: a's latest put. b's tombstone is dropped.
        let feed = store.changes_since(0);
        assert_eq!(feed.len(), 1);
        assert_eq!(feed[0].id, "a");
        assert_eq!(feed[0].rev.as_ref(), Some(&rev));
        assert_eq!(store.compacted_seq(), 12);
        // The live data is untouched.
        assert_eq!(store.get("a").unwrap().rev(), &rev);
        assert!(store.get("b").is_none());
    }

    #[test]
    fn compaction_retains_recent_tail_verbatim() {
        let store = DocStore::new("t");
        for i in 0..10 {
            store
                .put(&format!("d{i}"), jobject! {}, LabelSet::new(), None)
                .unwrap();
        }
        store.compact_changes(4);
        assert_eq!(store.compacted_seq(), 6);
        // The last four entries are untouched; the rest keep one entry per
        // live id (all ten docs are live, so nothing is actually dropped).
        assert_eq!(store.changes_len(), 10);
        let tail = store.changes_since(6);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 7);
    }

    #[test]
    fn auto_compaction_bounds_feed_under_sustained_writes() {
        let store = DocStore::new("t");
        store.set_changes_retention(16);
        let mut rev = store
            .put("hot", jobject! {"v" => 0}, LabelSet::new(), None)
            .unwrap();
        for v in 1..500 {
            rev = store
                .put("hot", jobject! {"v" => v}, LabelSet::new(), Some(&rev))
                .unwrap();
        }
        // One live doc + retention 16: the feed must stay under
        // 2 × (1 + 16), not grow to 500.
        assert!(
            store.changes_len() < 2 * (1 + 16),
            "feed unbounded: {} entries",
            store.changes_len()
        );
        assert_eq!(store.seq(), 500);
        // Churn through distinct ids: tombstones must not accumulate.
        for i in 0..500 {
            let id = format!("tmp-{i}");
            let r = store.put(&id, jobject! {}, LabelSet::new(), None).unwrap();
            store.delete(&id, &r).unwrap();
        }
        assert!(
            store.changes_len() < 2 * (1 + 16),
            "tombstones accumulated: {} entries",
            store.changes_len()
        );
    }

    #[test]
    fn bad_ids_rejected() {
        let store = DocStore::new("t");
        assert!(store.put("", jobject! {}, LabelSet::new(), None).is_err());
        assert!(store
            .put("a\nb", jobject! {}, LabelSet::new(), None)
            .is_err());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "safeweb-docstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = DocStore::open(&dir).unwrap();
            assert!(store.is_durable());
            assert_eq!(store.path(), Some(dir.clone()));
            let rev = store
                .put("a", jobject! {"x" => 1}, labels("p/1"), None)
                .unwrap();
            store
                .put("a", jobject! {"x" => 2}, labels("p/2"), Some(&rev))
                .unwrap();
            let rev_b = store.put("b", jobject! {}, LabelSet::new(), None).unwrap();
            store.delete("b", &rev_b).unwrap();
        }
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.name(), dir.file_name().unwrap().to_str().unwrap());
        assert_eq!(store.len(), 1);
        assert_eq!(store.seq(), 4);
        let doc = store.get("a").unwrap();
        assert_eq!(doc.body().get("x").and_then(Value::as_i64), Some(2));
        assert_eq!(doc.rev().generation(), 2);
        assert!(doc.labels().contains(&Label::conf("e", "p/2")));
        assert!(store.get("b").is_none());
        // Views are rebuilt, not deserialised.
        store.create_view("by_x", "x");
        assert_eq!(store.query_view("by_x", &Value::from(2)).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_wal_and_recovers_identically() {
        let dir = temp_dir("snapshot");
        {
            let store = DocStore::open(&dir).unwrap();
            for i in 0..10 {
                store
                    .put(&format!("d{i}"), jobject! {"i" => i}, labels("p"), None)
                    .unwrap();
            }
            assert!(store.wal_len().unwrap() > 0);
            store.snapshot_now().unwrap();
            assert_eq!(store.wal_len(), Some(0));
            // Writes after the snapshot land in the (fresh) WAL.
            store
                .put("post", jobject! {}, LabelSet::new(), None)
                .unwrap();
            assert!(store.wal_len().unwrap() > 0);
        }
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.len(), 11);
        assert_eq!(store.seq(), 11);
        assert_eq!(
            store
                .get("d7")
                .unwrap()
                .body()
                .get("i")
                .and_then(Value::as_i64),
            Some(7)
        );
        // The feed restarts at the snapshot horizon: checkpoints below it
        // resync, checkpoints at or past it are served incrementally.
        assert_eq!(store.compacted_seq(), 10);
        assert_eq!(store.changes_since(10).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// WAL records appended since the last snapshot (replayed ones
    /// included).
    fn since_snapshot(store: &DocStore) -> usize {
        store
            .inner
            .read()
            .durability
            .as_ref()
            .unwrap()
            .since_snapshot
    }

    /// Writes update `n` of a deterministic stream over `ids` document
    /// ids to every store in `stores`.
    fn write_nth(stores: &[&DocStore], n: usize, ids: usize) {
        let id = format!("d{}", n % ids);
        for store in stores {
            let rev = store.get(&id).map(|d| d.rev().clone());
            store
                .put(&id, jobject! {"n" => n}, labels("p"), rev.as_ref())
                .unwrap();
        }
    }

    /// The automatic snapshot keeps the log bounded: across growth,
    /// updates and a restart, the records since the last snapshot never
    /// exceed `max(snapshot_every, 2 × live)` (+ 1 for the write that
    /// trips it), and what is recovered is what was written.
    #[test]
    fn auto_snapshot_bounds_the_log_across_restarts() {
        let dir = temp_dir("auto-snap");
        let oracle = DocStore::new("oracle");
        let mut store = DocStore::open(&dir).unwrap();
        store.set_snapshot_every(8);
        for n in 0..300 {
            if n == 150 {
                // Restart mid-stream, some records past the last snapshot.
                assert!(since_snapshot(&store) > 0);
                drop(store);
                store = DocStore::open(&dir).unwrap();
                store.set_snapshot_every(8);
            }
            // The first 40 writes create documents, the rest update them.
            write_nth(&[&store, &oracle], n, 40);
            // Snapshots write in the background; quiescing each write
            // keeps the snapshot points deterministic.
            store.settle_snapshot();
            let bound = 8.max(2 * store.len());
            assert!(
                since_snapshot(&store) <= bound + 1,
                "write {n}: {} records since the last snapshot, bound {bound}",
                since_snapshot(&store)
            );
        }
        assert!(store.inner.read().snapshots.get() >= 1);
        drop(store);
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.snapshot(), oracle.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With a floor of 64 records, 10 000 updates over 1 000 documents
    /// take a snapshot every 2 000 records (twice the live count), not
    /// every 64: each snapshot writes the whole store, so the cadence
    /// has to stretch with the store for a write to stay `O(1)`.
    #[test]
    fn snapshot_cadence_stretches_with_the_store() {
        let dir = temp_dir("snap-cadence");
        let oracle = DocStore::new("oracle");
        let store = DocStore::open(&dir).unwrap();
        store.set_snapshot_every(64);
        let registry = MetricsRegistry::new();
        store.attach_metrics(&registry, "t");
        for n in 0..11_000 {
            write_nth(&[&store, &oracle], n, 1_000);
            // A write that comes due while the previous snapshot is still
            // being written starts none; waiting each one out keeps the
            // snapshot points deterministic on a loaded host.
            store.settle_snapshot();
        }
        let snapshots = registry.counter("t.snapshots").get();
        assert!(
            (1..=6).contains(&snapshots),
            "{snapshots} snapshots for 11 000 records over 1 000 documents"
        );
        assert!(since_snapshot(&store) <= 2 * 1_000 + 1);
        // The registry's derived gauges hold clones of the store.
        drop((store, registry));
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.snapshot(), oracle.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replication_checkpoint_roundtrips() {
        let dir = temp_dir("ckpt");
        {
            let store = DocStore::open(&dir).unwrap();
            assert_eq!(store.replication_checkpoint_persisted(), Some(0));
            store.persist_replication_checkpoint(7).unwrap();
            store.persist_replication_checkpoint(42).unwrap();
        }
        {
            let store = DocStore::open(&dir).unwrap();
            assert_eq!(store.replication_checkpoint_persisted(), Some(42));
            // Survives a snapshot cycle too (carried in the meta frame).
            store.snapshot_now().unwrap();
        }
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.replication_checkpoint_persisted(), Some(42));
        // In-memory stores have no checkpoint to persist.
        assert_eq!(DocStore::new("m").replication_checkpoint_persisted(), None);
        assert!(DocStore::new("m")
            .persist_replication_checkpoint(1)
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An oversized record is refused at append (writing it would make
    /// the *next* recovery silently truncate it and everything after it
    /// away) — and the refusal is a clean per-write error, not a sticky
    /// store failure.
    #[test]
    fn oversized_put_refused_without_wedging_the_store() {
        let dir = temp_dir("oversize");
        let store = DocStore::open(&dir).unwrap();
        let huge = "x".repeat(64 * 1024 * 1024 + 16);
        assert!(matches!(
            store.put(
                "big",
                jobject! {"v" => huge.as_str()},
                LabelSet::new(),
                None
            ),
            Err(StoreError::Io(_))
        ));
        assert!(store.get("big").is_none(), "refused write must not apply");
        // Not sticky: normal writes keep working and recovering.
        store.put("ok", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(store.persistence_error().is_none());
        drop(store);
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.ids(), vec!["ok".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second concurrent open of the same directory must be refused —
    /// two writers interleaving appends would corrupt the WAL — while a
    /// lock left behind by a dead process (SIGKILL) is reclaimed.
    #[test]
    fn directory_lock_refuses_second_open_and_reclaims_stale() {
        let dir = temp_dir("lock");
        let store = DocStore::open(&dir).unwrap();
        assert!(matches!(
            DocStore::open(&dir),
            Err(WalError::Locked { pid: Some(_), .. })
        ));
        // A clone keeps the lock alive; only the last drop releases it.
        let clone = store.clone();
        drop(store);
        assert!(matches!(DocStore::open(&dir), Err(WalError::Locked { .. })));
        drop(clone);
        let store = DocStore::open(&dir).unwrap();
        drop(store);
        // Stale lock from a process that no longer exists: reclaimed.
        std::fs::write(dir.join("lock"), "4294967294").unwrap();
        let store = DocStore::open(&dir).unwrap();
        store.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records replayed at open count toward the snapshot window, so a
    /// workload of short process lifetimes still truncates its log once
    /// the bound is crossed instead of growing it run over run.
    #[test]
    fn replayed_records_count_toward_auto_snapshot() {
        let dir = temp_dir("replay-window");
        let oracle = DocStore::new("oracle");
        {
            let store = DocStore::open(&dir).unwrap();
            for n in 0..10 {
                write_nth(&[&store, &oracle], n, 10);
            }
        } // 10 records in the log, no snapshot yet
        let store = DocStore::open(&dir).unwrap();
        let replayed_len = store.wal_len().unwrap();
        assert!(replayed_len > 0);
        assert_eq!(since_snapshot(&store), 10);
        store.set_snapshot_every(8);
        // Ten live documents: a snapshot is due at max(8, 2 × 10) = 20
        // records. The ten replayed ones count, so the tenth update of
        // this process life — not the twentieth — trips it.
        for n in 10..19 {
            write_nth(&[&store, &oracle], n, 10);
            store.settle_snapshot();
        }
        assert_eq!(store.inner.read().snapshots.get(), 0);
        write_nth(&[&store, &oracle], 19, 10);
        store.settle_snapshot();
        assert_eq!(store.inner.read().snapshots.get(), 1);
        assert_eq!(since_snapshot(&store), 0);
        assert!(
            store.wal_len().unwrap() < replayed_len,
            "WAL kept growing across restarts: {} -> {}",
            replayed_len,
            store.wal_len().unwrap()
        );
        drop(store);
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.snapshot(), oracle.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_discarded_and_appends_resume() {
        let dir = temp_dir("torn");
        {
            let store = DocStore::open(&dir).unwrap();
            store.put("a", jobject! {}, LabelSet::new(), None).unwrap();
            store.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last frame.
        let wal = dir.join(wal::ACTIVE_SEGMENT);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.ids(), vec!["a".to_string()]);
        assert_eq!(store.seq(), 1);
        // The tail was truncated away; new writes recover cleanly.
        store.put("c", jobject! {}, LabelSet::new(), None).unwrap();
        drop(store);
        let store = DocStore::open(&dir).unwrap();
        assert_eq!(store.ids(), vec!["a".to_string(), "c".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
