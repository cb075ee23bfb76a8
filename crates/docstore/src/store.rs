//! The document store: MVCC puts, incrementally indexed views, a
//! compacting changes feed, a read-only mode for DMZ replicas (§5.1:
//! "The DMZ instance is read-only in order to prevent modifications by the
//! web frontend, thus satisfying requirement S1"), and an optional durable
//! mode ([`DocStore::open`]) backed by a write-ahead log plus periodic
//! snapshots.
//!
//! One `RwLock<Inner>` guards the whole store. Its fields belong to four
//! modules, which own state, not locks: `documents` (the id-ordered map
//! and its reads), `views` (the by-field indexes), `changes` (the
//! sequence number and the compacting feed) and `persist` (the WAL,
//! snapshots and recovery). Every write — [`DocStore::put`],
//! [`DocStore::delete`], each entry of a replication apply and each
//! replayed WAL record — changes memory through one step,
//! `Inner::apply`, and every committed transaction ends in one tail,
//! `DocStore::commit`.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use safeweb_json::{Str, Value};
use safeweb_labels::LabelSet;
use safeweb_obs::{Counter, Histogram, MetricsRegistry};
use safeweb_sync::{RwLock, RwLockWriteGuard, Signal};

use crate::document::{Document, Revision};
use crate::wal;

mod changes;
mod documents;
mod persist;
mod views;

use changes::Feed;
use documents::Id;
use persist::{Durability, WriteTicket};
use views::Views;

pub use changes::{Change, DEFAULT_CHANGES_RETENTION};
pub use persist::DEFAULT_SNAPSHOT_EVERY;

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

/// One write to one document id: what [`Inner::apply`] applies, and what
/// a replication run carries.
#[derive(Debug)]
pub(crate) enum Write {
    /// The document's new (or, in a replication run, current) version.
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

#[derive(Debug, Default)]
struct Inner {
    /// Live documents by id (`documents`).
    docs: documents::Docs,
    /// By-field indexes over `docs` (`views`).
    views: Views,
    /// The sequence number and the changes feed (`changes`).
    feed: Feed,
    read_only: bool,
    /// `Some` iff the store was opened with [`DocStore::open`] (`persist`).
    durability: Option<Durability>,
    /// End-to-end [`DocStore::put`] latency (including the group-commit
    /// durability wait). Detached until [`DocStore::attach_metrics`]
    /// swaps in a registry-backed handle.
    put_ns: Histogram,
    /// Snapshots started (automatic and [`DocStore::snapshot_now`]);
    /// surfaced by [`DocStore::attach_metrics`].
    snapshots: Counter,
}

impl Inner {
    /// The one in-memory write: stores or removes the document, moves its
    /// id between view buckets, and appends its feed entry at `seq`.
    /// External writes, replication applies and WAL replay all come here,
    /// after their own checks and logging; compaction and snapshots run
    /// once per transaction, not per write.
    fn apply(&mut self, seq: u64, write: Write) {
        let (id, rev) = match write {
            Write::Put(doc) => {
                let (id, rev) = (doc.id_str().clone(), doc.rev().clone());
                match self.docs.get_mut(id.as_bytes()) {
                    Some(slot) => {
                        self.views.reindex(Some(slot), Some(&doc));
                        *slot = doc;
                    }
                    None => {
                        self.views.reindex(None, Some(&doc));
                        self.docs.insert(Id(id.clone()), doc);
                    }
                }
                (id, Some(rev))
            }
            Write::Delete(id) => {
                if let Some(doc) = self.docs.remove(id.as_bytes()) {
                    self.views.reindex(Some(&doc), None);
                }
                (id, None)
            }
        };
        self.feed.push(seq, id, rev);
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
    /// Notified after every committed write; replication and
    /// [`DocStore::wait_until`] park on it.
    commits: Arc<Signal>,
}

impl DocStore {
    /// Creates an empty store named `name` (names appear in replication
    /// diagnostics).
    pub fn new(name: &str) -> DocStore {
        DocStore::with_inner(name.to_string(), Inner::default())
    }

    fn with_inner(name: String, inner: Inner) -> DocStore {
        DocStore {
            name,
            inner: Arc::new(RwLock::new(inner)),
            commits: Arc::default(),
        }
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
    ///   (durable stores under [`wal::WalSync::Always`] only);
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
        registry.register_counter(&format!("{prefix}.compactions"), &inner.feed.compactions);
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
        let doc = Document::new(Str::from(id), new_rev.clone(), labels, body);
        let seq = inner.feed.seq + 1;
        let ticket = inner.persist(|| [wal::encode_put(seq, &doc, Some(&body_json))])?;
        let labels_id = doc.labels().id().as_u32();
        inner.apply(seq, Write::Put(doc));
        self.commit(inner, ticket)?;
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
            Some(doc) if doc.rev() == expected_rev => {}
            other => {
                return Err(StoreError::Conflict {
                    id: id.to_string(),
                    current: other.map(|d| d.rev().clone()),
                })
            }
        }
        let seq = inner.feed.seq + 1;
        let ticket = inner.persist(|| [wal::encode_delete(seq, id)])?;
        inner.apply(seq, Write::Delete(Str::from(id)));
        self.commit(inner, ticket)
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
    /// is notified once (a checkpoint-only transaction notifies it too).
    ///
    /// A log failure does not stop the apply — the replica stays correct
    /// at runtime — but it is made sticky, a validation refusal
    /// (oversized record) included, and the checkpoint does not advance:
    /// recovery then resumes from a checkpoint predating the unlogged
    /// writes and re-replicates them, instead of losing them silently.
    pub(crate) fn apply_replicated(
        &self,
        mut batch: Vec<Write>,
        checkpoint: Option<u64>,
    ) -> Applied {
        let mut inner = self.inner.write();
        batch.retain(|entry| match entry {
            Write::Put(doc) => inner
                .docs
                .get(doc.id_str().as_bytes())
                .is_none_or(|held| held.rev() != doc.rev()),
            Write::Delete(id) => inner.docs.contains_key(id.as_bytes()),
        });
        let logged = inner.durability.as_ref().map(|d| d.rep_checkpoint);
        let checkpoint = checkpoint.filter(|c| logged.is_some_and(|l| l != *c));
        if batch.is_empty() && checkpoint.is_none() {
            return Applied {
                logged,
                ..Applied::default()
            };
        }
        let first_seq = inner.feed.seq + 1;
        let persisted = inner.persist(|| {
            let mut records: Vec<String> = batch
                .iter()
                .zip(first_seq..)
                .map(|(entry, seq)| match entry {
                    Write::Put(doc) => wal::encode_put(seq, doc, None),
                    Write::Delete(id) => wal::encode_delete(seq, id),
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
        for (entry, seq) in batch.into_iter().zip(first_seq..) {
            match entry {
                Write::Put(_) => applied.written += 1,
                Write::Delete(_) => applied.deleted += 1,
            }
            inner.apply(seq, entry);
        }
        applied.logged = inner.durability.as_ref().map(|d| d.rep_checkpoint);
        if self.commit(inner, ticket).is_err() {
            applied.logged = logged;
        }
        applied
    }

    /// The one commit tail, after a transaction's writes went through
    /// [`Inner::apply`]: compacts the feed and starts a snapshot when
    /// due, releases the lock, notifies the commit signal, and then waits
    /// for the group-commit sync covering `ticket`, if any.
    fn commit(
        &self,
        mut inner: RwLockWriteGuard<'_, Inner>,
        ticket: Option<WriteTicket>,
    ) -> Result<(), StoreError> {
        let Inner { docs, feed, .. } = &mut *inner;
        feed.maybe_compact(docs);
        inner.maybe_snapshot();
        drop(inner);
        self.commits.notify_all();
        self.wait_durable(ticket)
    }

    /// Blocks until `done(self)` holds or `timeout` has passed; returns
    /// whether it held. `done` is checked on entry and again after every
    /// write committed to this store (local puts and deletions, and
    /// replicated ones — so a replica can be waited on), never on a
    /// timer: keep it cheap, it may run once per commit.
    pub fn wait_until(&self, timeout: Duration, mut done: impl FnMut(&DocStore) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Read the epoch before checking, so a commit landing
            // between the check and the park ends the park at once.
            let seen = self.commits.epoch();
            if done(self) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.commits.wait_past(seen, left);
        }
    }

    /// The signal notified after every committed write to this store.
    pub(crate) fn commit_signal(&self) -> &Arc<Signal> {
        &self.commits
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
    use crate::wal::WalError;
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
        let applied = store.apply_replicated(vec![Write::Put(doc)], None);
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

    /// View buckets follow `Value` equality: `-0.0` and `0.0` share one,
    /// `Int(1)` and `Float(1.0)` do not, and the `i64` extremes are
    /// buckets like any other.
    #[test]
    fn view_buckets_follow_value_equality() {
        let store = DocStore::new("t");
        store.create_view("by_v", "v");
        let values = [
            ("neg-zero", Value::Float(-0.0)),
            ("zero", Value::Float(0.0)),
            ("int-one", Value::Int(1)),
            ("float-one", Value::Float(1.0)),
            ("imin", Value::Int(i64::MIN)),
            ("imax", Value::Int(i64::MAX)),
        ];
        for (id, v) in &values {
            store
                .put(id, jobject! {"v" => v.clone()}, LabelSet::new(), None)
                .unwrap();
        }
        let hits = |key: Value| -> Vec<String> {
            let docs = store.query_view("by_v", &key).unwrap();
            docs.iter().map(|d| d.id().to_string()).collect()
        };
        assert_eq!(hits(Value::Float(-0.0)), ["neg-zero", "zero"]);
        assert_eq!(hits(Value::Float(0.0)), ["neg-zero", "zero"]);
        assert_eq!(hits(Value::Int(1)), ["int-one"]);
        assert_eq!(hits(Value::Float(1.0)), ["float-one"]);
        assert_eq!(hits(Value::Int(i64::MIN)), ["imin"]);
        assert_eq!(hits(Value::Int(i64::MAX)), ["imax"]);
        assert!(hits(Value::Int(0)).is_empty(), "Int(0) is not Float(0.0)");
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
