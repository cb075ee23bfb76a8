//! Crash-recovery kill-loop: the CI `persistence-crash` job's harness.
//!
//! The parent test spawns this same test binary as a **writer child**
//! (filtered to [`crash_writer_child`] with `SAFEWEB_CRASH_DIR` set),
//! lets it append to a durable store for a random number of
//! milliseconds, `SIGKILL`s it at whatever offset that lands on, reopens
//! the store, and checks the recovery invariants against a survivor
//! oracle — then hands the *same* directory to the next round, so each
//! recovery chains onto the last. Rounds default to 4 locally; CI sets
//! `SAFEWEB_KILL_ROUNDS=25`.
//!
//! The writer's op sequence is a pure function of the op index `n`:
//! op `n` puts `doc-(n % SLOTS)` with body `{"n": n}` (an MVCC update
//! when the slot exists), then durably records replication checkpoint
//! `n + 1`, then *acknowledges* `n` by appending a line to `acks.log`.
//! Because acknowledgement strictly follows durability, after a kill:
//!
//! * every acknowledged op must be recovered (`N_rec >= acked`),
//! * at most one unacknowledged op may additionally survive
//!   (`N_rec <= acked + 1`),
//! * the recovered store must equal the oracle replaying exactly `N_rec`
//!   ops — same ids, bodies, MVCC revisions and sequence number,
//! * the recovered replication checkpoint sits in `[acked, N_rec]`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use safeweb_docstore::{DocStore, Replicator};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

/// Distinct document ids the writer cycles through.
const SLOTS: u64 = 16;

fn op_id(n: u64) -> String {
    format!("doc-{:02}", n % SLOTS)
}

fn op_labels(n: u64) -> LabelSet {
    LabelSet::singleton(Label::conf("e", &format!("mdt/{}", n % 3)))
}

/// Applies ops `0..n_ops` to `store` through the same public API the
/// writer child uses.
fn apply_ops(store: &DocStore, start: u64, n_ops: u64) {
    for n in start..n_ops {
        let id = op_id(n);
        let rev = store.get(&id).map(|d| d.rev().clone());
        store
            .put(&id, jobject! {"n" => n as i64}, op_labels(n), rev.as_ref())
            .expect("writer put");
        if store.is_durable() {
            store
                .persist_replication_checkpoint(n + 1)
                .expect("writer checkpoint");
        }
    }
}

/// The number of ops a recovered (or oracle) store reflects: op indexes
/// are written into bodies, so the maximum `n` among live docs + 1 is the
/// applied-op count (slots only ever move forward).
fn applied_ops(store: &DocStore) -> u64 {
    store
        .scan(|_| true)
        .iter()
        .filter_map(|d| d.body().get("n").and_then(Value::as_i64))
        .map(|n| n as u64 + 1)
        .max()
        .unwrap_or(0)
}

/// **Child mode** — runs only when the parent sets `SAFEWEB_CRASH_DIR`:
/// opens the durable store in that directory, derives its resume point
/// from the recovered state, and writes until killed.
#[test]
fn crash_writer_child() {
    let Ok(dir) = std::env::var("SAFEWEB_CRASH_DIR") else {
        return;
    };
    let store = DocStore::open(&dir).expect("child reopens the store");
    // A small snapshot window so kills also land inside the
    // rotate / snapshot-write / prune cycle, not just between appends.
    store.set_snapshot_every(97);
    let mut n = applied_ops(&store);
    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(&dir).join("acks.log"))
        .expect("open acks log");
    loop {
        apply_ops(&store, n, n + 1);
        // The ack only exists once the op (and its checkpoint) returned
        // from the durable store.
        writeln!(acks, "{n}").expect("ack");
        n += 1;
    }
}

/// Last fully written ack line + 1 = the number of acknowledged ops.
/// The final line may itself be torn by the kill; only `\n`-terminated
/// lines count (exactly the contract the writer's ack provides).
fn acked_ops(dir: &Path) -> u64 {
    let Ok(raw) = std::fs::read_to_string(dir.join("acks.log")) else {
        return 0;
    };
    let complete = &raw[..raw.rfind('\n').map_or(0, |i| i + 1)];
    complete
        .lines()
        .last()
        .and_then(|l| l.parse::<u64>().ok())
        .map_or(0, |n| n + 1)
}

struct KilledChild {
    acked: u64,
}

/// Spawns test `child_test` of this binary against `dir` (with any extra
/// `envs`), waits until `progressed` reports the child demonstrably did
/// work, lets it run `run_for` longer so the kill lands at an arbitrary
/// offset, then SIGKILLs and reaps it.
fn spawn_and_kill(
    dir: &Path,
    child_test: &str,
    envs: &[(&str, &str)],
    run_for: Duration,
    progressed: &dyn Fn() -> bool,
) {
    let exe = std::env::current_exe().expect("current test binary");
    let mut command = std::process::Command::new(exe);
    command
        .args([child_test, "--exact", "--nocapture"])
        .env("SAFEWEB_CRASH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in envs {
        command.env(k, v);
    }
    let mut child = command.spawn().expect("spawn writer child");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !progressed() {
        assert!(
            std::time::Instant::now() < deadline,
            "writer child made no progress within 30s"
        );
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "writer child died before making progress"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(run_for);
    // The child must still be running when we kill it: an early exit
    // means the writer itself crashed (a real bug, not a simulated one).
    assert!(
        child.try_wait().expect("try_wait").is_none(),
        "writer child died on its own before the kill"
    );
    child.kill().expect("SIGKILL the writer");
    child.wait().expect("reap the writer");
}

/// Spawns the sequential writer child, kills it once past `prev_acked`,
/// and returns the acknowledgement count at the moment of death.
fn run_and_kill(dir: &Path, prev_acked: u64, run_for: Duration) -> KilledChild {
    spawn_and_kill(dir, "crash_writer_child", &[], run_for, &|| {
        acked_ops(dir) > prev_acked
    });
    KilledChild {
        acked: acked_ops(dir),
    }
}

/// A cheap deterministic PRNG so kill offsets vary between rounds and
/// runs without needing a `rand` dependency.
fn jitter(seed: &mut u64, lo: u64, hi: u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    lo + (*seed >> 33) % (hi - lo)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("safeweb-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// **The kill-loop.** N rounds of spawn → SIGKILL at a random offset →
/// reopen → compare against the survivor oracle, chaining the same store
/// directory through every round.
#[test]
fn kill_loop_recovers_acknowledged_writes() {
    if std::env::var("SAFEWEB_CRASH_DIR").is_ok() {
        return; // never recurse inside a writer child
    }
    let rounds: u64 = std::env::var("SAFEWEB_KILL_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let dir = temp_dir("kill-loop");
    let mut seed = 0x5afe_3eb0_0000_0001u64
        ^ std::time::UNIX_EPOCH
            .elapsed()
            .map_or(0, |d| d.as_nanos() as u64);
    let mut total_ops = 0u64;

    for round in 0..rounds {
        let run_for = Duration::from_millis(jitter(&mut seed, 5, 100));
        let killed = run_and_kill(&dir, total_ops, run_for);

        let store = DocStore::open(&dir).expect("recovery open");
        let recovered = applied_ops(&store);
        assert!(
            recovered >= killed.acked,
            "round {round}: lost acknowledged writes ({recovered} < {})",
            killed.acked
        );
        assert!(
            recovered <= killed.acked + 1,
            "round {round}: {} ops recovered but only {} acked — \
             acknowledgement ran ahead of durability",
            recovered,
            killed.acked
        );

        // Survivor oracle: an in-memory store fed exactly `recovered`
        // ops must match the recovered store bit for bit.
        let oracle = DocStore::new("oracle");
        apply_ops(&oracle, 0, recovered);
        assert_eq!(store.ids(), oracle.ids(), "round {round}: id set diverged");
        for id in oracle.ids() {
            let (got, want) = (store.get(&id).unwrap(), oracle.get(&id).unwrap());
            assert_eq!(got.rev(), want.rev(), "round {round}: rev of {id}");
            assert_eq!(got.body(), want.body(), "round {round}: body of {id}");
            assert_eq!(got.labels(), want.labels(), "round {round}: labels of {id}");
        }
        assert_eq!(store.seq(), recovered, "round {round}: sequence number");

        // The replication checkpoint persists through the same WAL:
        // recovered between the last acknowledged value and the op count.
        let ckpt = store
            .replication_checkpoint_persisted()
            .expect("durable store has a checkpoint");
        assert!(
            killed.acked <= ckpt && ckpt <= recovered,
            "round {round}: checkpoint {ckpt} outside [{}, {recovered}]",
            killed.acked
        );

        total_ops = recovered;
        drop(store); // release before the next child opens the directory
    }
    assert!(total_ops > 0, "kill-loop never observed a single write");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- group commit under WalSync::Always -------------------------------
//
// The second kill-loop re-runs the crash discipline with every screw
// tightened: `WalSync::Always` (acks require a completed fdatasync, so
// recovery must never hold FEWER ops than were acked), four concurrent
// writer threads sharing the group-commit leader, and a deliberately
// tiny WAL segment bound so kills land around rotation boundaries
// (seal-fsync → rename → fresh active segment → dir fsync).

/// Writer threads in the group-commit child.
const WRITERS: u64 = 4;
/// Tiny segment bound: a seal every handful of records, so every round
/// crosses rotation boundaries.
const TINY_SEGMENT: u64 = 1024;

fn writer_doc_id(writer: u64, n: u64) -> String {
    format!("w{writer}-{:02}", n % SLOTS)
}

/// Ops writer `writer` has applied, derived from recovered state: its
/// docs are its own namespace, written sequentially, so max body `n` + 1
/// is its op count.
fn writer_applied_ops(store: &DocStore, writer: u64) -> u64 {
    let prefix = format!("w{writer}-");
    store
        .scan(|_| true)
        .iter()
        .filter(|d| d.id().starts_with(&prefix))
        .filter_map(|d| d.body().get("n").and_then(Value::as_i64))
        .map(|n| n as u64 + 1)
        .max()
        .unwrap_or(0)
}

/// WAL segment files (sealed and active) in a store directory.
fn wal_segment_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("store dir lists")
        .filter_map(Result::ok)
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            name == "wal.log" || (name.starts_with("wal-") && name.ends_with(".sealed"))
        })
        .count()
}

fn writer_acks_path(dir: &Path, writer: u64) -> PathBuf {
    dir.join(format!("acks-w{writer}.log"))
}

/// Acked op count of one writer thread (same torn-last-line contract as
/// [`acked_ops`]).
fn writer_acked_ops(dir: &Path, writer: u64) -> u64 {
    let Ok(raw) = std::fs::read_to_string(writer_acks_path(dir, writer)) else {
        return 0;
    };
    let complete = &raw[..raw.rfind('\n').map_or(0, |i| i + 1)];
    complete
        .lines()
        .last()
        .and_then(|l| l.parse::<u64>().ok())
        .map_or(0, |n| n + 1)
}

/// **Child mode** — concurrent writers under `WalSync::Always`: four
/// threads put into disjoint doc namespaces, each acknowledging an op
/// only after its put returned (i.e. after the group-commit fsync
/// covering it completed), until killed.
#[test]
fn crash_group_writer_child() {
    let Ok(dir) = std::env::var("SAFEWEB_CRASH_DIR") else {
        return;
    };
    if std::env::var("SAFEWEB_CRASH_GROUP").is_err() {
        return; // the sequential kill-loop's children skip this mode
    }
    let store = DocStore::open(&dir).expect("child reopens the store");
    store.set_wal_sync(safeweb_docstore::WalSync::Always);
    store.set_wal_segment_bytes(TINY_SEGMENT);
    // Snapshots prune sealed segments while writers append, so kills
    // also land inside rotation + prune cycles.
    store.set_snapshot_every(257);
    let dir = PathBuf::from(dir);
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = store.clone();
            let mut acks = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(writer_acks_path(&dir, w))
                .expect("open writer acks log");
            std::thread::spawn(move || {
                let mut n = writer_applied_ops(&store, w);
                loop {
                    let id = writer_doc_id(w, n);
                    let rev = store.get(&id).map(|d| d.rev().clone());
                    store
                        .put(
                            &id,
                            jobject! {"n" => n as i64, "w" => w as i64},
                            op_labels(n),
                            rev.as_ref(),
                        )
                        .expect("group writer put");
                    writeln!(acks, "{n}").expect("ack");
                    n += 1;
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
}

/// **The group-commit kill-loop.** Same chained-directory discipline as
/// [`kill_loop_recovers_acknowledged_writes`], but with `WalSync::Always`
/// acks the invariant sharpens to *zero acked-write loss even against
/// power-loss semantics*: every thread's acked prefix must be recovered
/// bit-for-bit, at most one in-flight op per thread may additionally
/// survive, and the recovered store must be internally consistent
/// (sequence number = total ops) across rotation-boundary kills.
#[test]
fn kill_loop_group_commit_concurrent_writers() {
    if std::env::var("SAFEWEB_CRASH_DIR").is_ok() {
        return; // never recurse inside a writer child
    }
    let rounds: u64 = std::env::var("SAFEWEB_KILL_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let dir = temp_dir("kill-group");
    let mut seed = 0x5afe_3eb0_0000_0002u64
        ^ std::time::UNIX_EPOCH
            .elapsed()
            .map_or(0, |d| d.as_nanos() as u64);
    let mut prev_applied = vec![0u64; WRITERS as usize];
    let mut max_segments_seen = 0usize;

    for round in 0..rounds {
        let run_for = Duration::from_millis(jitter(&mut seed, 10, 120));
        let prev = prev_applied.clone();
        spawn_and_kill(
            &dir,
            "crash_group_writer_child",
            &[("SAFEWEB_CRASH_GROUP", "1")],
            run_for,
            // Every thread must have committed (and fsynced) at least one
            // new op, so each round exercises a populated commit group.
            &|| (0..WRITERS).all(|w| writer_acked_ops(&dir, w) > prev[w as usize]),
        );

        let store = DocStore::open(&dir).expect("recovery open");
        assert_eq!(
            store.persistence_error(),
            None,
            "round {round}: recovery surfaced a persistence failure"
        );
        max_segments_seen = max_segments_seen.max(wal_segment_files(&dir));

        let mut total = 0u64;
        for w in 0..WRITERS {
            let acked = writer_acked_ops(&dir, w);
            let applied = writer_applied_ops(&store, w);
            assert!(
                applied >= acked,
                "round {round}: writer {w} lost acked (fsynced!) writes \
                 ({applied} < {acked})"
            );
            assert!(
                applied <= acked + 1,
                "round {round}: writer {w} has {applied} ops but only {acked} \
                 acked — acks ran ahead of the group-commit sync"
            );
            // Per-writer oracle: its namespace is a pure function of its
            // op count (slots only move forward).
            for slot in 0..SLOTS {
                let id = writer_doc_id(w, slot);
                match store.get(&id) {
                    Some(doc) if applied > slot => {
                        let last = slot + (applied - 1 - slot) / SLOTS * SLOTS;
                        assert_eq!(
                            doc.body().get("n").and_then(Value::as_i64),
                            Some(last as i64),
                            "round {round}: writer {w} slot {slot} body"
                        );
                    }
                    None if applied <= slot => {}
                    state => panic!(
                        "round {round}: writer {w} slot {slot} inconsistent \
                         (applied {applied}, present: {})",
                        state.is_some()
                    ),
                }
            }
            prev_applied[w as usize] = applied;
            total += applied;
        }
        // Puts are the only sequence-consuming ops, so the recovered
        // sequence number must equal the total op count: nothing lost or
        // duplicated across the interleaved group-committed appends.
        assert_eq!(store.seq(), total, "round {round}: sequence number");
        drop(store); // release before the next child opens the directory
    }
    assert!(
        prev_applied.iter().sum::<u64>() > 0,
        "group kill-loop never observed a write"
    );
    assert!(
        max_segments_seen >= 2,
        "no round ever crossed a segment rotation boundary \
         (max segments seen: {max_segments_seen})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance criterion's replication half, deterministic: a durable
/// DMZ replica restarts and an **incremental** (non-resync) run resumes
/// from its recovered checkpoint without re-transferring history.
#[test]
fn durable_replica_resumes_incrementally_after_restart() {
    if std::env::var("SAFEWEB_CRASH_DIR").is_ok() {
        return;
    }
    let dir = temp_dir("replica-resume");
    let src = DocStore::new("intranet");
    for i in 0..5 {
        src.put(&format!("r{i}"), jobject! {"i" => i}, LabelSet::new(), None)
            .unwrap();
    }
    {
        let dst = DocStore::open(&dir).unwrap();
        dst.set_read_only(true);
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let report = rep.run_once();
        assert_eq!(report.docs_written, 5);
        dst.persist_replication_checkpoint(report.checkpoint)
            .unwrap();
    } // "crash": the replica process goes away

    let dst = DocStore::open(&dir).unwrap();
    assert_eq!(dst.len(), 5, "replicated documents survive the restart");
    let ckpt = dst.replication_checkpoint_persisted().unwrap();
    assert_eq!(ckpt, src.seq(), "checkpoint survives the restart");

    src.put("later", jobject! {}, LabelSet::new(), None)
        .unwrap();
    let mut rep = Replicator::new(src.clone(), dst.clone());
    assert_eq!(rep.checkpoint(), ckpt, "the replica's checkpoint resumes");
    let report = rep.run_once();
    assert!(!report.resynced, "resume must be incremental, not a resync");
    assert_eq!(report.docs_written, 1, "only the new document transfers");
    assert_eq!(dst.seq(), 6, "history was re-transferred");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same, through the periodic driver: `ReplicationHandle::start` reads
/// the recovered checkpoint itself and persists after every run.
#[test]
fn replication_handle_resumes_from_persisted_checkpoint() {
    if std::env::var("SAFEWEB_CRASH_DIR").is_ok() {
        return;
    }
    use safeweb_docstore::ReplicationHandle;
    let dir = temp_dir("handle-resume");
    let src = DocStore::new("intranet");
    src.put("a", jobject! {}, LabelSet::new(), None).unwrap();

    let wait = Duration::from_secs(10);

    {
        let dst = DocStore::open(&dir).unwrap();
        let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(5));
        assert!(
            handle.wait_for_checkpoint(src.seq(), wait),
            "first checkpoint never published"
        );
        // Published means persisted, for a durable target.
        assert_eq!(dst.replication_checkpoint_persisted(), Some(src.seq()));
        handle.stop();
    }

    let dst = DocStore::open(&dir).unwrap();
    let seq_before = dst.seq();
    let recovered = dst.replication_checkpoint_persisted().unwrap();
    // Before the source moves on, the handle can only publish the
    // checkpoint it resumed from.
    let handle = ReplicationHandle::start(src.clone(), dst.clone(), Duration::from_millis(5));
    assert_eq!(handle.checkpoint(), recovered);
    src.put("b", jobject! {}, LabelSet::new(), None).unwrap();
    assert!(
        handle.wait_for_checkpoint(src.seq(), wait),
        "resumed replication never ran"
    );
    handle.stop();
    assert!(dst.get("b").is_some());
    assert_eq!(
        dst.seq(),
        seq_before + 1,
        "resume re-transferred already-replicated history"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
