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
//! * **Incremental** — the common case, and exactly two store
//!   transactions. One read transaction on the source takes the changes
//!   feed past the checkpoint, deduplicated per document id (only the
//!   newest change per id matters; superseded revisions were already
//!   overwritten at the source), with each id's current document or its
//!   deletion. One write transaction on the target skips what it already
//!   holds, logs the rest and — for a durable target — the new
//!   checkpoint with one append, applies it all and raises the target's
//!   commit signal once. A run with nothing to push takes no write
//!   transaction.
//! * **Full resync** — the fallback when the checkpoint predates the
//!   source's [compaction horizon](DocStore::compacted_seq): the feed
//!   below the horizon has dropped tombstones, so an incremental pass
//!   could silently *miss deletions*. Instead the source is snapshotted,
//!   every differing document is copied, and target documents absent from
//!   the source are swept away, through the same write transaction in
//!   chunks of [`RESYNC_CHUNK`]; the checkpoint is logged after the last.
//!
//! ## When a run happens: on commit, at a bounded rate
//!
//! [`ReplicationHandle`]'s thread parks on the source store's
//! [`CommitSignal`], which every committed write raises, so a write is
//! pushed as soon as it exists rather than at the next tick. Runs
//! *start* at most once per [`COALESCE_DELAY`]: woken by a commit, the
//! thread waits only for what is left of that delay since the previous
//! run started. A commit after a quiet spell is pushed at once, while
//! under a burst the writes of one delay travel as one batch, and a
//! document rewritten many times in the burst (the portal's shared
//! `metrics-*` / `regional-*` documents) is still copied once per run,
//! not once per write. The `interval` every constructor takes is the
//! *liveness fallback*: the longest the thread stays parked without a
//! signal.
//!
//! ## The replica owns its checkpoint
//!
//! Every replicator resumes from the checkpoint its target holds
//! ([`DocStore::replication_checkpoint_persisted`]): a durable replica
//! recovers it from its write-ahead log, where each run logged it in the
//! same append as the writes it covers, and an in-memory replica starts
//! from 0 (a full first pass). No caller hands a checkpoint in, so none
//! can claim documents the replica does not hold.
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
//!
//! The copy shares one thing with its source: interned object keys
//! (`safeweb_json::Key`), which are process-lifetime constants shared the
//! way string literals are — a key names a field and carries no document
//! content. Every member vector, string value and id is copied; no
//! document content is shared across zones.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use safeweb_obs::{Counter, Histogram, MetricsRegistry};

use crate::store::{Applied, DocStore, Replicated};

/// The shortest gap between the starts of two replication runs, so the
/// writes of one burst are pushed (and deduplicated) as one batch.
const COALESCE_DELAY: Duration = Duration::from_millis(1);

/// Documents per write transaction during a full resync, so a resync of
/// a large store neither holds the target's lock nor copies the whole
/// store at once.
const RESYNC_CHUNK: usize = 1024;

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
    /// The checkpoint a durable target has logged; `None` for an
    /// in-memory target.
    logged: Option<u64>,
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
    /// Creates a replicator from `source` into `target`, resuming from
    /// the checkpoint the target holds: what a durable target recovered
    /// from its log, 0 for an in-memory one. A restarted replica thus
    /// picks up where its last logged run left off, without re-transferring
    /// the history it already holds.
    pub fn new(source: DocStore, target: DocStore) -> Replicator {
        let logged = target.replication_checkpoint_persisted();
        Replicator {
            source,
            target,
            checkpoint: logged.unwrap_or(0),
            logged,
        }
    }

    /// The current checkpoint sequence.
    pub fn checkpoint(&self) -> u64 {
        self.checkpoint
    }

    /// The checkpoint a waiter may rely on: what a durable target has
    /// logged (a run whose append failed does not move it), otherwise the
    /// checkpoint itself.
    fn published(&self) -> u64 {
        self.logged.unwrap_or(self.checkpoint)
    }

    /// Pushes all changes since the checkpoint, in one read transaction
    /// on the source and at most one write transaction on the target (see
    /// the module docs). Interrupted runs are safe to retry: replication
    /// is idempotent (last write per id wins, and the checkpoint only
    /// advances after the batch applies). A durable target logs the new
    /// checkpoint in the same append as the batch.
    ///
    /// The batch is deduplicated per document id before any write: the
    /// newest change wins, so a document updated many times since the last
    /// run is copied and written exactly once, and
    /// [`ReplicationReport::docs_written`] counts distinct documents —
    /// not feed entries. Writes whose revision already matches the target
    /// are skipped, keeping the target's sequence number from inflating.
    pub fn run_once(&mut self) -> ReplicationReport {
        // `None`: the checkpoint predates the compaction horizon, so
        // deletions below it are gone from the feed and an incremental
        // pass would leave ghosts on the target; or it is ahead of the
        // source, which was lost and recreated, and an incremental pass
        // would sit on an empty feed while the stores diverge. Resync.
        let Some((seq, changed)) = self.source.replication_batch(self.checkpoint) else {
            return self.full_resync();
        };
        let batch = changed.into_iter().map(copy_across_zones).collect();
        let applied = self.commit(batch, seq);
        ReplicationReport {
            docs_written: applied.written,
            docs_deleted: applied.deleted,
            checkpoint: seq,
            resynced: false,
        }
    }

    /// Applies `batch` and advances the checkpoint to `seq` in one target
    /// write transaction, skipped when there is nothing to push or log.
    fn commit(&mut self, batch: Vec<Replicated>, seq: u64) -> Applied {
        let log = self.logged.is_some_and(|l| l != seq).then_some(seq);
        self.checkpoint = seq;
        if batch.is_empty() && log.is_none() {
            return Applied::default();
        }
        let applied = self.target.apply_replicated(batch, log);
        self.logged = applied.logged;
        applied
    }

    /// Full resync: snapshot the source, copy every document whose
    /// revision differs, and sweep target documents the source no longer
    /// holds (the "tombstone sweep" — deletions compacted out of the feed
    /// are reconstructed by absence). Chunks of [`RESYNC_CHUNK`] go
    /// through the same write transaction as an incremental run; the
    /// checkpoint is logged only after the last, so a crash mid-resync
    /// resumes with another resync.
    fn full_resync(&mut self) -> ReplicationReport {
        let (seq, docs) = self.source.snapshot();
        let live: HashSet<&str> = docs.iter().map(|d| d.id()).collect();
        let swept: Vec<String> = self
            .target
            .ids()
            .into_iter()
            .filter(|id| !live.contains(id.as_str()))
            .collect();
        let mut report = ReplicationReport {
            checkpoint: seq,
            resynced: true,
            ..ReplicationReport::default()
        };
        let puts = docs.chunks(RESYNC_CHUNK).map(|chunk| {
            chunk
                .iter()
                .map(|d| Replicated::Put(d.deep_copy()))
                .collect()
        });
        let deletes = swept.chunks(RESYNC_CHUNK).map(|chunk| {
            chunk
                .iter()
                .map(|id| Replicated::Delete(id.as_str().into()))
                .collect()
        });
        for chunk in puts.chain(deletes) {
            let applied = self.target.apply_replicated(chunk, None);
            report.docs_written += applied.written;
            report.docs_deleted += applied.deleted;
        }
        self.commit(Vec::new(), seq);
        report
    }
}

/// The one deep copy, at the zone boundary (see the module docs).
fn copy_across_zones(entry: Replicated) -> Replicated {
    match entry {
        Replicated::Put(doc) => Replicated::Put(doc.deep_copy()),
        delete => delete,
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
    /// Wake-ups that waited for the rest of a [`COALESCE_DELAY`].
    coalesced: Counter,
    docs_per_run: Histogram,
}

impl ReplicationHandle {
    /// Starts a background thread replicating `source` → `target`: after
    /// every commit to `source`, and at least every `interval`. Like
    /// [`Replicator::new`] it resumes from the checkpoint the target
    /// holds; a checkpoint that has fallen behind the source's compaction
    /// horizon degrades safely into a full resync on the first run.
    ///
    /// When the target is durable, each run logs its checkpoint in the
    /// target's write-ahead log, in the same append as the run's writes,
    /// and only a logged checkpoint is published: a recovered or
    /// published checkpoint never claims more than what the log holds.
    pub fn start(source: DocStore, target: DocStore, interval: Duration) -> ReplicationHandle {
        let mut replicator = Replicator::new(source, target);
        let shared = Arc::new(Shared {
            signal: Arc::clone(replicator.source.commit_signal()),
            stop: AtomicBool::new(false),
            checkpoint: Arc::new(AtomicU64::new(replicator.published())),
            progress: (Mutex::new(()), Condvar::new()),
            runs: Counter::new(),
            wakeups: Counter::new(),
            coalesced: Counter::new(),
            docs_per_run: Histogram::with_bounds(Histogram::size_bounds()),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("safeweb-replication".to_string())
                .spawn(move || loop {
                    // Read before the run reads the feed, so a commit that
                    // lands mid-run ends the park at once — and before the
                    // stop check, so a `stop` whose raise `seen` already
                    // covers is caught here instead of parking through it.
                    let seen = shared.signal.generation();
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let started = Instant::now();
                    let report = replicator.run_once();
                    shared.runs.inc();
                    shared
                        .docs_per_run
                        .observe(report.docs_written + report.docs_deleted);
                    shared.publish(replicator.published());
                    let committed = shared.signal.park_past(seen, interval);
                    if committed && !shared.stop.load(Ordering::SeqCst) {
                        shared.wakeups.inc();
                        // Runs start at most once per delay; after a
                        // quiet spell the wait is already over.
                        let rest = COALESCE_DELAY.saturating_sub(started.elapsed());
                        if !rest.is_zero() {
                            shared.coalesced.inc();
                            std::thread::sleep(rest);
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

    /// The checkpoint after the most recent completed run — for a durable
    /// target, the most recent one its log holds, which is where a handle
    /// started on the reopened target resumes after a restart.
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
    /// the fallback interval; `<prefix>.coalesced` — wake-ups that waited
    /// out the rest of the coalescing delay first; `<prefix>.docs_per_run`
    /// — documents written or deleted per run. Counts only: no ids, no
    /// bodies.
    pub fn attach_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.runs"), &self.shared.runs);
        registry.register_counter(&format!("{prefix}.wakeups"), &self.shared.wakeups);
        registry.register_counter(&format!("{prefix}.coalesced"), &self.shared.coalesced);
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

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("safeweb-rep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replicator_resumes_from_saved_checkpoint() {
        let dir = temp_dir("resume");
        let src = DocStore::new("s");
        for i in 0..5 {
            src.put(&format!("d{i}"), jobject! {}, LabelSet::new(), None)
                .unwrap();
        }
        let saved = {
            let dst = DocStore::open(&dir).unwrap();
            let mut rep = Replicator::new(src.clone(), dst.clone());
            rep.run_once().checkpoint
        };
        src.put("later", jobject! {}, LabelSet::new(), None)
            .unwrap();
        // A restarted replicator resumes from the checkpoint the replica
        // saved and transfers only the new document.
        let dst = DocStore::open(&dir).unwrap();
        let mut resumed = Replicator::new(src.clone(), dst.clone());
        assert_eq!(resumed.checkpoint(), saved);
        let report = resumed.run_once();
        assert_eq!(report.docs_written, 1);
        assert!(!report.resynced);
        assert_eq!(src.ids(), dst.ids());
        drop((resumed, dst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_triggers_full_resync_with_tombstone_sweep() {
        let dir = temp_dir("stale");
        let src = DocStore::new("s");
        let dst = DocStore::open(&dir).unwrap();
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

        let mut resumed = Replicator::new(src.clone(), dst.clone());
        assert_eq!(resumed.checkpoint(), saved);
        let report = resumed.run_once();
        assert!(report.resynced, "stale checkpoint must force a resync");
        assert_eq!(report.docs_deleted, 1, "the swept ghost of \"a\"");
        assert_eq!(report.docs_written, 1, "the new document \"c\"");
        assert_eq!(src.ids(), dst.ids());
        assert!(dst.get("a").is_none(), "compacted delete must still apply");
        drop((resumed, dst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint *ahead of* the source's sequence means the source
    /// store was lost and recreated: an incremental pass would sit on an
    /// empty feed forever while the stores diverge. It must resync.
    #[test]
    fn checkpoint_ahead_of_source_forces_resync() {
        let dir = temp_dir("ahead");
        let src = DocStore::new("recreated");
        let dst = DocStore::open(&dir).unwrap();
        // The target still holds state from the source's previous life,
        // and the checkpoint it reached there: 100, while the new source
        // is at seq 1.
        dst.put("stale", jobject! {}, LabelSet::new(), None)
            .unwrap();
        dst.persist_replication_checkpoint(100).unwrap();
        src.put("fresh", jobject! {}, LabelSet::new(), None)
            .unwrap();

        let mut rep = Replicator::new(src.clone(), dst.clone());
        assert_eq!(rep.checkpoint(), 100);
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
        drop((rep, dst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A replicated write the durable target cannot log (oversized for
    /// the WAL) is applied in memory but must wedge checkpoint
    /// persistence: were the checkpoint to advance past it, the document
    /// would silently vanish on the next restart and incremental
    /// replication would never re-send it.
    #[test]
    fn unloggable_replicated_write_blocks_checkpoint_persistence() {
        let dir = temp_dir("oversize");
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

    /// The handle publishes only what a durable target logged: when the
    /// run cannot be logged (an oversized document), the replica still
    /// applies it, but `wait_for_checkpoint` — which promises the
    /// checkpoint is in the target's log — must not report it reached.
    #[test]
    fn handle_publishes_only_the_checkpoint_its_durable_target_logged() {
        let dir = temp_dir("publish");
        let src = DocStore::new("s");
        let dst = DocStore::open(&dir).unwrap();
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let huge = "x".repeat(64 * 1024 * 1024 + 16);
        src.put(
            "big",
            jobject! {"v" => huge.as_str()},
            LabelSet::new(),
            None,
        )
        .unwrap();
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_secs(30));
        let published = handle.checkpoint_cell();
        assert!(dst.wait_until(WAIT, |db| db.get("big").is_some()));
        assert!(!handle.wait_for_checkpoint(src.seq(), Duration::from_millis(50)));
        // Joined: every run that started has published.
        handle.stop();
        assert!(dst.persistence_error().is_some());
        assert_eq!(dst.replication_checkpoint_persisted(), Some(0));
        assert_eq!(published.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run is one read transaction on the source and one write
    /// transaction on the target: one commit however many documents it
    /// carries, the durable target's checkpoint included — and none at
    /// all when there is nothing to push.
    #[test]
    fn a_non_empty_run_is_exactly_one_target_commit() {
        let dir = temp_dir("one-commit");
        let src = DocStore::new("s");
        let dst = DocStore::open(&dir).unwrap();
        for i in 0..20 {
            src.put(&format!("d{i}"), jobject! {"i" => i}, LabelSet::new(), None)
                .unwrap();
        }
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let commits = || dst.commit_signal().generation();

        let before = commits();
        assert_eq!(rep.run_once().docs_written, 20);
        assert_eq!(commits(), before + 1);
        assert_eq!(dst.replication_checkpoint_persisted(), Some(src.seq()));

        let rev = src.get("d0").unwrap().rev().clone();
        src.delete("d0", &rev).unwrap();
        let rev = src.get("d1").unwrap().rev().clone();
        src.put("d1", jobject! {"i" => -1}, LabelSet::new(), Some(&rev))
            .unwrap();
        let before = commits();
        let report = rep.run_once();
        assert_eq!((report.docs_written, report.docs_deleted), (1, 1));
        assert_eq!(commits(), before + 1);
        assert_eq!(dst.replication_checkpoint_persisted(), Some(src.seq()));

        let empty = ReplicationReport {
            checkpoint: src.seq(),
            ..ReplicationReport::default()
        };
        assert_eq!(rep.run_once(), empty);
        assert_eq!(commits(), before + 1, "an empty run committed");
        drop(dst);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Under a burst, run *starts* are at least one coalescing delay
    /// apart, so however many commits arrive, no more runs start in a
    /// window than the delay fits into it (plus the first).
    #[test]
    fn run_starts_are_a_coalescing_delay_apart_during_a_burst() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        let window = Instant::now();
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_secs(30));
        for i in 0..2000 {
            src.put(&format!("d{i}"), jobject! {}, LabelSet::new(), None)
                .unwrap();
        }
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        // Read the count first: every run it counts started in the window.
        let runs = handle.shared.runs.get();
        let window = window.elapsed();
        let fits = (window.as_micros() / COALESCE_DELAY.as_micros()) as u64 + 1;
        assert!(runs <= fits, "{runs} runs started in {window:?}");
        assert_eq!(dst.len(), 2000);
    }

    /// A commit after a quiet spell longer than the delay is pushed at
    /// once: the wake-up finds the delay since the last run start already
    /// over and does not wait.
    #[test]
    fn a_commit_after_a_quiet_spell_is_pushed_without_waiting() {
        let src = DocStore::new("s");
        let dst = DocStore::new("d");
        src.put("first", jobject! {}, LabelSet::new(), None)
            .unwrap();
        // The first run covers "first" and no commit follows it, so the
        // thread parks with nothing pending.
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_secs(30));
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        std::thread::sleep(2 * COALESCE_DELAY);
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        assert!(handle.wait_for_checkpoint(src.seq(), WAIT));
        assert!(dst.get("a").is_some());
        assert_eq!(handle.shared.wakeups.get(), 1);
        assert_eq!(handle.shared.coalesced.get(), 0, "the wake-up waited");
    }

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
        let dir = temp_dir("background-resume");
        let src = DocStore::new("s");
        src.put("a", jobject! {}, LabelSet::new(), None).unwrap();
        let saved = {
            let dst = DocStore::open(&dir).unwrap();
            let handle =
                ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(5));
            assert!(handle.wait_for_checkpoint(src.seq(), WAIT), "no checkpoint");
            let saved = handle.checkpoint();
            handle.stop();
            saved
        };

        // Restart: the reopened replica resumes from the checkpoint it
        // logged; its sequence number shows the old history was not
        // re-pushed.
        let dst = DocStore::open(&dir).unwrap();
        assert_eq!(dst.replication_checkpoint_persisted(), Some(saved));
        let seq_before = dst.seq();
        src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        let resumed = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(5));
        assert!(
            resumed.wait_for_checkpoint(src.seq(), WAIT),
            "never resumed"
        );
        resumed.stop();
        assert_eq!(dst.replication_checkpoint_persisted(), Some(src.seq()));
        assert!(dst.get("b").is_some());
        assert_eq!(dst.seq(), seq_before + 1, "history was re-transferred");
        drop(dst);
        let _ = std::fs::remove_dir_all(&dir);
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
