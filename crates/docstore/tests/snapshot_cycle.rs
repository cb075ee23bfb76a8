//! The snapshot cycle through the public API. Automatic snapshots and
//! `DocStore::snapshot_now` take one path: the WAL segment rotates under
//! the store lock, one background writer writes the snapshot file, and
//! the sealed segments it covers are pruned when its outcome is reaped —
//! by a later write, by `snapshot_now`, or by the store's drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use safeweb_docstore::DocStore;
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("safeweb-snapcycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// File names of the sealed WAL segments in `dir`.
fn sealed_segments(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".sealed"))
        .collect()
}

/// The store sequence of the snapshot file in `dir`: its first frame
/// (`len: u32 LE`, `crc: u32 LE`, payload) is the meta record.
fn snapshot_seq(dir: &Path) -> u64 {
    let bytes = std::fs::read(dir.join("snapshot.dat")).unwrap();
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    let meta = Value::parse(std::str::from_utf8(&bytes[8..8 + len]).unwrap()).unwrap();
    meta.get("seq").and_then(Value::as_i64).unwrap() as u64
}

/// A clean shutdown reaps the snapshot its last write started: the
/// sealed segment that snapshot covers is pruned, so the reopened store
/// neither replays it nor counts it toward the next snapshot.
#[test]
fn drop_prunes_the_segment_a_finished_snapshot_covers() {
    let dir = temp_dir("drop-reaps");
    {
        let store = DocStore::open(&dir).unwrap();
        store.set_snapshot_every(8);
        let mut rev = None;
        for v in 0..8 {
            let put = store.put("a", jobject! {"v" => v}, LabelSet::new(), rev.as_ref());
            rev = Some(put.unwrap());
        }
    }
    assert_eq!(sealed_segments(&dir), Vec::<String>::new());
    let store = DocStore::open(&dir).unwrap();
    assert_eq!(store.wal_len(), Some(0));
    let doc = store.get("a").unwrap();
    assert_eq!(doc.body().get("v").and_then(Value::as_i64), Some(7));
    assert_eq!(doc.rev().generation(), 8);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four writers trip automatic snapshots while two more threads call
/// `snapshot_now` in a loop; the two triggers share the one background
/// writer. Every call succeeds and returns only once a snapshot covering
/// the writes acknowledged before it is on disk; after a last
/// `snapshot_now`, a drop and a reopen, the store equals the oracle with
/// an empty log.
#[test]
fn snapshot_now_interleaves_with_automatic_snapshots() {
    const WRITERS: usize = 4;
    const CALLERS: usize = 2;
    const CALLS: usize = 10;
    let dir = temp_dir("race");
    let write = |store: &DocStore, w: usize, n: usize| {
        let id = format!("w{w}-{}", n % 3);
        let rev = store.get(&id).map(|d| d.rev().clone());
        let labels = LabelSet::singleton(Label::conf("e", &format!("w/{w}")));
        store
            .put(&id, jobject! {"n" => n}, labels, rev.as_ref())
            .unwrap();
    };
    let store = DocStore::open(&dir).unwrap();
    store.set_snapshot_every(4);
    let writing = AtomicBool::new(true);
    let puts: Vec<usize> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, writing) = (&store, &writing);
                s.spawn(move || {
                    let mut n = 0;
                    while writing.load(Ordering::SeqCst) {
                        write(store, w, n);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..CALLS {
                        let acked = store.seq();
                        store.snapshot_now().unwrap();
                        // The snapshot on disk is the one this call waited
                        // for or a newer one: either covers the call.
                        let landed = snapshot_seq(&dir);
                        assert!(landed >= acked, "{landed} < {acked}");
                    }
                })
            })
            .collect();
        // The writers run until every caller is done, failed or not.
        let called: Vec<_> = callers.into_iter().map(|c| c.join()).collect();
        writing.store(false, Ordering::SeqCst);
        let puts = writers.into_iter().map(|w| w.join().unwrap()).collect();
        if let Some(Err(panic)) = called.into_iter().find(Result::is_err) {
            std::panic::resume_unwind(panic);
        }
        puts
    });
    store.snapshot_now().unwrap();
    drop(store);

    let oracle = DocStore::new("oracle");
    for (w, &count) in puts.iter().enumerate() {
        (0..count).for_each(|n| write(&oracle, w, n));
    }
    let store = DocStore::open(&dir).unwrap();
    assert_eq!(store.snapshot(), oracle.snapshot());
    assert_eq!(store.wal_len(), Some(0));
    assert_eq!(sealed_segments(&dir), Vec::<String>::new());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
