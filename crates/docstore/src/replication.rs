//! CouchDB-style push replication (Figure 4: "The application database is
//! replicated periodically between the two instances using CouchDB push
//! replication").
//!
//! Replication is strictly one-way (source → target), preserving the
//! unidirectional data-flow requirement S1: the Intranet instance pushes
//! into the DMZ replica; nothing ever flows back.
//!
//! Each run is one of two modes:
//!
//! * **Incremental** — the common case: fetch the changes feed past the
//!   checkpoint, deduplicate it per document id (only the newest change
//!   per id matters; superseded revisions were already overwritten at the
//!   source), and apply one write or deletion per distinct id.
//! * **Full resync** — the fallback when the checkpoint predates the
//!   source's [compaction horizon](DocStore::compacted_seq): the feed
//!   below the horizon has dropped tombstones, so an incremental pass
//!   could silently *miss deletions*. Instead the source is snapshotted,
//!   every differing document is copied, and target documents absent from
//!   the source are swept away.
//!
//! ## When a run happens: on commit, periodic fallback
//!
//! [`ReplicationHandle`]'s thread parks on the source store's
//! [`CommitSignal`], which every committed write raises, so a write is
//! pushed as soon as it exists rather than at the next tick. After a
//! wake-up the thread waits one fixed [`COALESCE_DELAY`] before it runs:
//! a burst of writes then travels as one batch, and a document rewritten
//! many times in the burst (the portal's shared `metrics-*` / `regional-*`
//! documents) is still copied once per run, not once per write. The
//! `interval` every constructor takes is the *liveness fallback*: the
//! longest the thread stays parked without a signal.
//!
//! ## One deep copy, at the zone boundary
//!
//! Documents are immutable shared handles, so reads inside one store copy
//! nothing. The replicator is the one place that copies a document's
//! contents ([`Document::deep_copy`]): source and target stand for two
//! machines in Figure 4, so they must not share memory — and the copy is
//! also what lays the documents of one batch side by side in the replica's
//! heap. Handing the DMZ store the source's own allocation was measured
//! 20–30 % slower on the front page's hundred-row view read.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use safeweb_obs::{Counter, Histogram, MetricsRegistry};

use crate::store::DocStore;

/// How long a woken replication thread waits before it runs, so the writes
/// of one burst are pushed (and deduplicated) as one batch.
const COALESCE_DELAY: Duration = Duration::from_millis(1);

/// A store's "something was committed" signal: a generation counter that
/// every committed write advances, and that replication threads (and
/// [`DocStore::wait_until`]) park on.
/// A counter rather than a flag, so any number of replicators can follow
/// one source and none can consume another's wake-up.
#[derive(Debug, Default)]
pub(crate) struct CommitSignal {
    state: Mutex<SignalState>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct SignalState {
    generation: u64,
    /// Threads inside [`CommitSignal::park_past`]; writers skip the
    /// condvar (a system call) while nobody is parked.
    parked: usize,
}

impl CommitSignal {
    /// Advances the generation and wakes every parked thread.
    pub(crate) fn raise(&self) {
        let parked = {
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            st.generation += 1;
            st.parked
        };
        // Notified with the lock released, so a woken thread does not run
        // straight into it and block a second time. No wake-up is lost: a
        // thread not yet counted in `parked` takes the lock after this
        // advance and sees the new generation before it waits.
        if parked > 0 {
            self.wake.notify_all();
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .generation
    }

    /// Parks until the generation has moved past `seen` or `timeout` has
    /// elapsed; returns whether the generation moved.
    pub(crate) fn park_past(&self, seen: u64, timeout: Duration) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.parked += 1;
        let (mut st, _) = self
            .wake
            .wait_timeout_while(st, timeout, |st| st.generation == seen)
            .unwrap_or_else(|e| e.into_inner());
        st.parked -= 1;
        st.generation != seen
    }
}

/// A one-way replicator with a persistent checkpoint, so repeated runs
/// only transfer new changes.
#[derive(Debug)]
pub struct Replicator {
    source: DocStore,
    target: DocStore,
    checkpoint: u64,
}

/// Summary of one replication run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationReport {
    /// Distinct documents written to the target.
    pub docs_written: u64,
    /// Distinct deletions applied to the target.
    pub docs_deleted: u64,
    /// The checkpoint after the run.
    pub checkpoint: u64,
    /// Whether this run fell back to a full resync because the checkpoint
    /// predated the source's compaction horizon.
    pub resynced: bool,
}

impl Replicator {
    /// Creates a replicator from `source` into `target`, starting from
    /// sequence 0.
    pub fn new(source: DocStore, target: DocStore) -> Replicator {
        Replicator::with_checkpoint(source, target, 0)
    }

    /// Creates a replicator resuming from a previously saved `checkpoint`
    /// (e.g. [`Replicator::checkpoint`] persisted across a restart), so a
    /// restarted replicator does not re-transfer the whole history.
    pub fn with_checkpoint(source: DocStore, target: DocStore, checkpoint: u64) -> Replicator {
        Replicator {
            source,
            target,
            checkpoint,
        }
    }

    /// The current checkpoint sequence.
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// Pushes all changes since the checkpoint. Interrupted runs are safe
    /// to retry: replication is idempotent (last write per id wins, and the
    /// checkpoint only advances after the batch applies).
    ///
    /// The batch is deduplicated per document id before any write: the
    /// newest change wins, so a document updated many times since the last
    /// run is fetched and written exactly once, and
    /// [`ReplicationReport::docs_written`] counts distinct documents —
    /// not feed entries. Writes whose revision already matches the target
    /// are skipped, keeping the target's sequence number from inflating.
    pub fn run_once(&mut self) -> ReplicationReport {
        if self.checkpoint > self.source.seq() {
            // The checkpoint claims history the source does not have: the
            // source store was lost and recreated (or the checkpoint
            // belongs to another source). Incremental replication would
            // sit forever on an empty feed while the stores silently
            // diverge — resync and adopt the source's real sequence.
            return self.full_resync();
        }
        if self.checkpoint < self.source.compacted_seq() {
            // Entries at or below the horizon were compacted; deletions
            // there are gone from the feed. Incremental replication would
            // silently leave ghosts on the target — resync instead.
            return self.full_resync();
        }
        let changes = self.source.changes_since(self.checkpoint);
        // Re-check after the fetch: a compaction can race in between and
        // drop tombstones out of the range just read. `compacted_seq` is
        // monotonic, so passing this second check proves the feed was
        // still intact when it was copied (later compactions cannot
        // corrupt the copy).
        if self.checkpoint < self.source.compacted_seq() {
            return self.full_resync();
        }
        let mut report = ReplicationReport {
            checkpoint: self.checkpoint,
            ..ReplicationReport::default()
        };
        let mut max_seq = self.checkpoint;
        // Dedupe the batch: only each id's newest change is applied.
        let mut latest: BTreeMap<&str, &crate::store::Change> = BTreeMap::new();
        for change in &changes {
            max_seq = max_seq.max(change.seq);
            latest.insert(change.id.as_str(), change);
        }
        for (id, change) in latest {
            match change.rev {
                Some(_) => {
                    // Fetch the *current* version; the changed revision may
                    // already be superseded (or deleted — then a later
                    // tombstone past `max_seq` covers it next run).
                    if let Some(doc) = self.source.get(id) {
                        if self.target.get(id).is_none_or(|d| d.rev() != doc.rev()) {
                            self.target.apply_replicated(doc.deep_copy());
                            report.docs_written += 1;
                        }
                    }
                }
                None => {
                    if self.target.apply_replicated_delete(id) {
                        report.docs_deleted += 1;
                    }
                }
            }
        }
        self.checkpoint = max_seq;
        report.checkpoint = max_seq;
        report
    }

    /// Full resync: snapshot the source, copy every document whose
    /// revision differs, and sweep target documents the source no longer
    /// holds (the "tombstone sweep" — deletions compacted out of the feed
    /// are reconstructed by absence).
    fn full_resync(&mut self) -> ReplicationReport {
        let (seq, docs) = self.source.snapshot();
        let mut report = ReplicationReport {
            checkpoint: seq,
            resynced: true,
            ..ReplicationReport::default()
        };
        let mut live = std::collections::BTreeSet::new();
        for doc in docs {
            live.insert(doc.id().to_string());
            if self
                .target
                .get(doc.id())
                .is_none_or(|d| d.rev() != doc.rev())
            {
                self.target.apply_replicated(doc.deep_copy());
                report.docs_written += 1;
            }
        }
        for id in self.target.ids() {
            if !live.contains(&id) && self.target.apply_replicated_delete(&id) {
                report.docs_deleted += 1;
            }
        }
        self.checkpoint = seq;
        report
    }
}

/// Background replication driver: pushes on commit, with a periodic
/// fallback ("replicated periodically", §5.1; see the module docs).
/// Dropping the handle stops the thread.
#[derive(Debug)]
pub struct ReplicationHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

/// State shared between a handle and its thread.
#[derive(Debug)]
struct Shared {
    /// The source's signal: the thread parks on it, `stop` raises it.
    signal: Arc<CommitSignal>,
    stop: AtomicBool,
    checkpoint: Arc<AtomicU64>,
    /// Notified after each publication of `checkpoint`.
    progress: (Mutex<()>, Condvar),
    runs: Counter,
    wakeups: Counter,
    docs_per_run: Histogram,
}

impl ReplicationHandle {
    /// Starts a background thread replicating `source` → `target` from
    /// sequence 0 (a fresh target): after every commit to `source`, and
    /// at least every `interval`.
    pub fn start(source: DocStore, target: DocStore, interval: Duration) -> ReplicationHandle {
        ReplicationHandle::start_from(source, target, interval, 0)
    }

    /// Starts replication into a **durable** target
    /// ([`DocStore::open`]), resuming from the checkpoint the target
    /// recovered from its write-ahead log
    /// ([`DocStore::replication_checkpoint_persisted`]). After a restart
    /// this picks up exactly where the last completed run left off — no
    /// re-transfer, no manual checkpoint plumbing. Falls back to sequence
    /// 0 (a full first pass) when the target is in-memory.
    pub fn start_durable(
        source: DocStore,
        target: DocStore,
        interval: Duration,
    ) -> ReplicationHandle {
        let checkpoint = target.replication_checkpoint_persisted().unwrap_or(0);
        ReplicationHandle::start_from(source, target, interval, checkpoint)
    }

    /// Starts replication resuming from `checkpoint` — the value
    /// a previous handle reported via [`ReplicationHandle::checkpoint`].
    /// Resuming skips the already-transferred history instead of pushing
    /// everything from sequence 0 again; a checkpoint that has fallen
    /// behind the source's compaction horizon degrades safely into a full
    /// resync on the first run.
    ///
    /// When the target is durable, every completed run's checkpoint is
    /// additionally persisted through the target's write-ahead log
    /// (after the run's writes, so a recovered checkpoint never claims
    /// more than what was applied) before it is published; restarts can
    /// then resume via [`ReplicationHandle::start_durable`].
    pub fn start_from(
        source: DocStore,
        target: DocStore,
        interval: Duration,
        checkpoint: u64,
    ) -> ReplicationHandle {
        let shared = Arc::new(Shared {
            signal: Arc::clone(source.commit_signal()),
            stop: AtomicBool::new(false),
            checkpoint: Arc::new(AtomicU64::new(checkpoint)),
            progress: (Mutex::new(()), Condvar::new()),
            runs: Counter::new(),
            wakeups: Counter::new(),
            docs_per_run: Histogram::with_bounds(Histogram::size_bounds()),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("safeweb-replication".to_string())
                .spawn(move || {
                    let persist_to = target.is_durable().then(|| target.clone());
                    let mut replicator = Replicator::with_checkpoint(source, target, checkpoint);
                    let mut persisted = None;
                    loop {
                        // Read before the run reads the feed, so a commit
                        // that lands mid-run ends the park at once — and
                        // before the stop check, so a `stop` whose raise
                        // `seen` already covers is caught here instead of
                        // parking through it.
                        let seen = shared.signal.generation();
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let report = replicator.run_once();
                        shared.runs.inc();
                        shared
                            .docs_per_run
                            .observe(report.docs_written + report.docs_deleted);
                        if let Some(t) = &persist_to {
                            if persisted != Some(report.checkpoint) {
                                // A failed append leaves the old (smaller)
                                // checkpoint in force: safe, re-replicates.
                                if t.persist_replication_checkpoint(report.checkpoint).is_ok() {
                                    persisted = Some(report.checkpoint);
                                }
                            }
                        }
                        shared.publish(report.checkpoint);
                        let committed = shared.signal.park_past(seen, interval);
                        if committed && !shared.stop.load(Ordering::SeqCst) {
                            shared.wakeups.inc();
                            std::thread::sleep(COALESCE_DELAY);
                        }
                    }
                })
                .expect("spawn replication thread")
        };
        ReplicationHandle {
            shared,
            thread: Some(thread),
        }
    }

    /// The checkpoint after the most recent completed run. Persist this
    /// and hand it to [`ReplicationHandle::start_from`] to resume after a
    /// restart.
    pub fn checkpoint(&self) -> u64 {
        self.shared.checkpoint.load(Ordering::SeqCst)
    }

    /// A shared handle onto the live checkpoint cell. Lets callers wire
    /// derived gauges (e.g. replication lag = source seq − checkpoint)
    /// without keeping a borrow of the handle alive.
    pub fn checkpoint_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.checkpoint)
    }

    /// Blocks until the checkpoint has reached `seq` — every source
    /// change up to `seq` is applied to the target and, for a durable
    /// target, the checkpoint covering it is in the target's log — or
    /// `timeout` has elapsed; returns whether it was reached.
    pub fn wait_for_checkpoint(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (lock, published) = &self.shared.progress;
        let mut guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.checkpoint() < seq {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            guard = published
                .wait_timeout(guard, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Surfaces this handle's counters in `registry` under `prefix`
    /// (e.g. `"replication"`): `<prefix>.runs` — replication runs;
    /// `<prefix>.wakeups` — runs started by a commit signal rather than
    /// the fallback interval; `<prefix>.docs_per_run` — documents written
    /// or deleted per run. Counts only: no ids, no bodies.
    pub fn attach_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.runs"), &self.shared.runs);
        registry.register_counter(&format!("{prefix}.wakeups"), &self.shared.wakeups);
        registry.register_histogram(&format!("{prefix}.docs_per_run"), &self.shared.docs_per_run);
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.signal.raise();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Shared {
    fn publish(&self, checkpoint: u64) {
        self.checkpoint.store(checkpoint, Ordering::SeqCst);
        // Taking the lock orders this store against a waiter's check, so
        // the notification cannot fall between its check and its wait.
        drop(self.progress.0.lock().unwrap_or_else(|e| e.into_inner()));
        self.progress.1.notify_all();
    }
}

impl Drop for ReplicationHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_json::{jobject, Value};
    use safeweb_labels::{Label, LabelSet};

    fn labelled(p: &str) -> LabelSet {
        LabelSet::singleton(Label::conf("e", p))
    }

    #[test]
    fn push_replication_copies_documents_and_labels() {
        let src = DocStore::new("intranet");
        let dst = DocStore::new("dmz");
        dst.set_read_only(true);

        src.put("r1", jobject! {"x" => 1}, labelled("mdt/a"), None)
            .unwrap();
        src.put("r2", jobject! {"x" => 2}, labelled("mdt/b"), None)
            .unwrap();

        let mut rep = Replicator::new(src.clone(), dst.clone());
        let report = rep.run_once();
        assert_eq!(report.docs_written, 2);
        assert!(!report.resynced);
        assert_eq!(dst.len(), 2);
        let doc = dst.get("r1").unwrap();
        assert!(doc.labels().contains(&Label::conf("e", "mdt/a")));
        // Replication preserved the revision.
        assert_eq!(doc.rev(), src.get("r1").unwrap().rev());
    }

    #[test]
    fn checkpoint_makes_replication_incremental() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        assert_eq!(rep.run_once().docs_written, 1);
        assert_eq!(rep.run_once().docs_written, 0);
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        assert_eq!(rep.run_once().docs_written, 1);
    }

    #[test]
    fn deletions_replicate() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let rev = src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        rep.run_once();
        assert_eq!(dst.len(), 1);
        src.delete("a", &rev).unwrap();
        let report = rep.run_once();
        assert_eq!(report.docs_deleted, 1);
        assert!(dst.get("a").is_none());
    }

    #[test]
    fn updates_converge_to_latest() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let r1 = src
            .put("a", jobject! {"v" => 1}, LabelSet::new(), None)
            .unwrap();
        src.put("a", jobject! {"v" => 2}, LabelSet::new(), Some(&r1))
            .unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        rep.run_once();
        assert_eq!(
            dst.get("a")
                .unwrap()
                .body()
                .get("v")
                .and_then(Value::as_i64),
            Some(2)
        );
    }

    #[test]
    fn superseded_revisions_are_written_once_not_per_change() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let mut rev = src
            .put("a", jobject! {"v" => 0}, LabelSet::new(), None)
            .unwrap();
        for v in 1..10 {
            rev = src
                .put("a", jobject! {"v" => v}, LabelSet::new(), Some(&rev))
                .unwrap();
        }
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let report = rep.run_once();
        // Ten feed entries for "a", but one fetch and one write: the
        // report counts distinct documents...
        assert_eq!(report.docs_written, 2);
        // ...and the target's own sequence number advanced once per
        // document, not once per superseded revision.
        assert_eq!(dst.seq(), 2);
        assert_eq!(
            dst.get("a")
                .unwrap()
                .body()
                .get("v")
                .and_then(Value::as_i64),
            Some(9)
        );
    }

    #[test]
    fn put_then_delete_in_one_batch_applies_only_the_delete() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let rev = src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        src.delete("a", &rev).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let report = rep.run_once();
        // The batch dedupes to the tombstone; the target never held "a",
        // so nothing is written and nothing is deleted.
        assert_eq!(report.docs_written, 0);
        assert_eq!(report.docs_deleted, 0);
        assert!(dst.get("a").is_none());
        assert_eq!(dst.seq(), 0);
    }

    #[test]
    fn replicator_resumes_from_saved_checkpoint() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        for i in 0..5 {
            src.put(&format!("d{i}"), jobject! {}, LabelSet::new(), None)
                .unwrap();
        }
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let saved = rep.run_once().checkpoint;
        drop(rep);
        src.put("later", jobject! {}, LabelSet::new(), None)
            .unwrap();
        // A restarted replicator with the saved checkpoint transfers only
        // the new document.
        let mut resumed = Replicator::with_checkpoint(src.clone(), dst.clone(), saved);
        assert_eq!(resumed.checkpoint(), saved);
        let report = resumed.run_once();
        assert_eq!(report.docs_written, 1);
        assert!(!report.resynced);
        assert_eq!(src.ids(), dst.ids());
    }

    #[test]
    fn stale_checkpoint_triggers_full_resync_with_tombstone_sweep() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let rev_a = src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let saved = rep.run_once().checkpoint;
        drop(rep);

        // The source deletes "a" and compacts the tombstone away.
        src.delete("a", &rev_a).unwrap();
        src.put("c", jobject! {}, LabelSet::new(), None).unwrap();
        src.compact_changes(0);
        assert!(saved < src.compacted_seq());

        let mut resumed = Replicator::with_checkpoint(src.clone(), dst.clone(), saved);
        let report = resumed.run_once();
        assert!(report.resynced, "stale checkpoint must force a resync");
        assert_eq!(report.docs_deleted, 1, "the swept ghost of \"a\"");
        assert_eq!(report.docs_written, 1, "the new document \"c\"");
        assert_eq!(src.ids(), dst.ids());
        assert!(dst.get("a").is_none(), "compacted delete must still apply");
    }

    /// A checkpoint *ahead of* the source's sequence means the source
    /// store was lost and recreated: an incremental pass would sit on an
    /// empty feed forever while the stores diverge. It must resync.
    #[test]
    fn checkpoint_ahead_of_source_forces_resync() {
        let src = DocStore::new("recreated");
        let dst = DocStore::new("d");
        // The target still holds state from the source's previous life.
        dst.put("stale", jobject! {}, LabelSet::new(), None)
            .unwrap();
        src.put("fresh", jobject! {}, LabelSet::new(), None)
            .unwrap();

        // Checkpoint 100 from the old source; the new one is at seq 1.
        let mut rep = Replicator::with_checkpoint(src.clone(), dst.clone(), 100);
        let report = rep.run_once();
        assert!(report.resynced, "stale-source checkpoint must resync");
        assert_eq!(report.docs_written, 1);
        assert_eq!(report.docs_deleted, 1, "the old life's ghost is swept");
        assert_eq!(src.ids(), dst.ids());
        assert_eq!(
            rep.checkpoint(),
            src.seq(),
            "checkpoint adopts the real seq"
        );
        // Subsequent runs are incremental again.
        assert!(!rep.run_once().resynced);
    }

    /// A replicated write the durable target cannot log (oversized for
    /// the WAL) is applied in memory but must wedge checkpoint
    /// persistence: were the checkpoint to advance past it, the document
    /// would silently vanish on the next restart and incremental
    /// replication would never re-send it.
    #[test]
    fn unloggable_replicated_write_blocks_checkpoint_persistence() {
        let dir = std::env::temp_dir().join(format!("safeweb-rep-oversize-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = DocStore::new("s");
        let dst = DocStore::open(&dir).unwrap();
        let huge = "x".repeat(64 * 1024 * 1024 + 16);
        src.put(
            "big",
            jobject! {"v" => huge.as_str()},
            LabelSet::new(),
            None,
        )
        .unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let report = rep.run_once();
        // The replica stays correct at runtime...
        assert_eq!(report.docs_written, 1);
        assert!(dst.get("big").is_some());
        // ...but the unlogged apply is sticky: the checkpoint cannot be
        // persisted past it, so a restart re-replicates instead of
        // silently losing the document.
        assert!(dst.persistence_error().is_some());
        assert!(dst
            .persist_replication_checkpoint(report.checkpoint)
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn background_replication_runs_until_stopped() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(10));
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT), "never ran");
        assert!(dst.get("a").is_some());
        handle.stop();
        // The thread is joined: no further replication can happen.
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(dst.get("b").is_none());
    }

    #[test]
    fn background_replication_resumes_from_checkpoint() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(5));
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT), "no checkpoint");
        let saved = handle.checkpoint();
        handle.stop();

        // "Restart": resume from the persisted checkpoint; the target's
        // sequence number shows the old history was not re-pushed.
        let seq_before = dst.seq();
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        let resumed = ReplicationHandle::start_from(
            src.clone(),
            dst.clone(),
            Duration::from_millis(5),
            saved,
        );
        assert!(
            resumed.wait_for_checkpoint(src.seq(), WAIT),
            "never resumed"
        );
        resumed.stop();
        assert!(dst.get("b").is_some());
        assert_eq!(dst.seq(), seq_before + 1, "history was re-transferred");
    }

    /// A commit wakes the parked thread: with a one-second fallback
    /// interval a write still reaches the target within milliseconds.
    #[test]
    fn commit_is_replicated_long_before_the_interval() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_secs(1));
        // Once this is through, the first run is over and the thread is
        // parked (or about to park) for the full interval.
        src.put("first", jobject! {}, LabelSet::new(), None)
            .unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        let written = Instant::now();
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        let took = written.elapsed();
        assert!(dst.get("a").is_some());
        assert!(took < Duration::from_millis(100), "took {took:?}");
        // So does a deletion.
        let rev = src.get("a").unwrap().rev().clone();
        src.delete("a", &rev).unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        assert!(dst.get("a").is_none());
        assert!(handle.shared.wakeups.get() >= 2);
    }

    /// A chain source → middle → edge: the middle store's replication
    /// applies raise *its* commit signal, so the second hop follows at
    /// once too.
    #[test]
    fn replication_applies_wake_the_next_hop() {
        let (src, middle, edge) = (DocStore::new("s"), DocStore::new("m"), DocStore::new("e"));
        let hop1 = ReplicationHandle::start(src.clone(), middle.clone(), Duration::from_secs(1));
        let hop2 = ReplicationHandle::start(middle.clone(), edge.clone(), Duration::from_secs(1));
        src.put("first", jobject! {}, LabelSet::new(), None)
            .unwrap();
        assert!(hop1.wait_for_checkpoint(src.seq(), WAIT));
        assert!(hop2.wait_for_checkpoint(middle.seq(), WAIT));
        let written = Instant::now();
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(hop1.wait_for_checkpoint(src.seq(), WAIT));
        assert!(hop2.wait_for_checkpoint(middle.seq(), WAIT));
        let took = written.elapsed();
        assert!(edge.get("a").is_some());
        assert!(took < Duration::from_millis(200), "took {took:?}");
    }

    /// The coalescing delay keeps per-run dedupe alive under on-commit
    /// replication: a burst of updates to one id costs the target at most
    /// one apply per coalescing window, not one per update.
    #[test]
    fn rapid_updates_of_one_id_coalesce() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_secs(1));
        let started = Instant::now();
        let mut rev = None;
        for v in 0..200 {
            rev = Some(
                src.put("hot", jobject! {"v" => v}, LabelSet::new(), rev.as_ref())
                    .unwrap(),
            );
        }
        let burst = started.elapsed();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        assert_eq!(dst.get("hot").unwrap().rev(), rev.as_ref().unwrap());
        let windows = (burst.as_micros() / COALESCE_DELAY.as_micros()) as u64;
        assert!(
            dst.seq() <= windows + 3,
            "{} applies for a {burst:?} burst",
            dst.seq()
        );
        assert_eq!(handle.shared.runs.get(), handle.shared.docs_per_run.count());
    }

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let handle = ReplicationHandle::start(src.clone(), dst, Duration::from_secs(30));
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        let asked = Instant::now();
        handle.stop();
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "stop took {took:?}");
    }

    /// Reads inside one store share the stored allocation; the replica
    /// gets its own copy (two zones, two machines).
    #[test]
    fn documents_are_shared_within_a_store_and_copied_across_zones() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        src.create_view("by_k", "k");
        src.put("a", jobject! {"k" => 1}, labelled("mdt/a"), None)
            .unwrap();
        let held = src.get("a").unwrap();
        assert!(held.shares_allocation_with(&src.get("a").unwrap()));
        assert!(held.shares_allocation_with(&src.query_view("by_k", &Value::from(1)).unwrap()[0]));
        assert!(held.shares_allocation_with(&src.scan_prefix("a")[0]));
        assert!(held.shares_allocation_with(&src.snapshot().1[0]));

        Replicator::new(src.clone(), dst.clone()).run_once();
        let replica = dst.get("a").unwrap();
        assert_eq!(replica, held);
        assert!(!replica.shares_allocation_with(&held));
        // A full resync copies too.
        let resynced = DocStore::new("r");
        src.compact_changes(0);
        let report = Replicator::new(src.clone(), resynced.clone()).run_once();
        assert!(report.resynced);
        assert!(!resynced.get("a").unwrap().shares_allocation_with(&held));
        // `into_parts` on a shared handle leaves the stored document whole.
        let (_, _, _, body) = held.into_parts();
        assert_eq!(&body, src.get("a").unwrap().body());
    }

    /// Stress the compaction/replication race: a writer churns documents
    /// (puts and deletes) with an aggressive retention while a replicator
    /// runs concurrently. If `run_once` trusted a feed that a concurrent
    /// compaction had already punched tombstones out of, deleted documents
    /// would survive as ghosts on the target.
    #[test]
    fn concurrent_compaction_and_replication_converge() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        src.set_changes_retention(4);
        let writer_src = src.clone();
        let writer = std::thread::spawn(move || {
            for round in 0..200u32 {
                for id in 0..6u32 {
                    let id = format!("doc-{id}");
                    let rev = writer_src.get(&id).map(|d| d.rev().clone());
                    writer_src
                        .put(
                            &id,
                            jobject! {"round" => round},
                            LabelSet::new(),
                            rev.as_ref(),
                        )
                        .unwrap();
                }
                // Delete a rotating victim so tombstones keep entering
                // (and being compacted out of) the feed.
                let victim = format!("doc-{}", round % 6);
                if let Some(doc) = writer_src.get(&victim) {
                    writer_src.delete(&victim, doc.rev()).unwrap();
                }
            }
        });
        let mut rep = Replicator::new(src.clone(), dst.clone());
        while !writer.is_finished() {
            rep.run_once();
        }
        writer.join().unwrap();
        rep.run_once();
        assert_eq!(src.ids(), dst.ids(), "ghost documents on the target");
        for id in src.ids() {
            assert_eq!(src.get(&id).unwrap().rev(), dst.get(&id).unwrap().rev());
        }
    }

    #[test]
    fn replication_is_one_way() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        // Write directly into the target; replication must never move it
        // back into the source.
        dst.put("only-dst", jobject! {}, LabelSet::new(), None)
            .unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());
        rep.run_once();
        assert!(src.get("only-dst").is_none());
    }
}
