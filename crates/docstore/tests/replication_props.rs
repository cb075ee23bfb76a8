//! Property tests: replication converges — after any interleaving of
//! writes, updates, deletes and changes-feed compactions followed by
//! replication, the target's live documents equal the source's (compaction
//! may force the replicator through its full-resync path; the outcome must
//! be indistinguishable).
//!
//! A durable replica may also restart between runs. It resumes from the
//! checkpoint it logged, so after every restart each live source document
//! whose newest change that checkpoint covers must already be on the
//! replica at the source's revision.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
use safeweb_docstore::{DocStore, Replicator};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, i64),
    Update(u8, i64),
    Delete(u8),
    Replicate,
    Compact(u8),
    /// Drop the replicator and the durable replica, reopen the replica's
    /// directory and start a new replicator on it.
    RestartReplica,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, any::<i64>()).prop_map(|(id, v)| Op::Put(id, v)),
        (0u8..6, any::<i64>()).prop_map(|(id, v)| Op::Update(id, v)),
        (0u8..6).prop_map(Op::Delete),
        Just(Op::Replicate),
        (0u8..6).prop_map(Op::Compact),
    ]
}

/// [`arb_op`] with one op in six replaced by a replica restart.
fn arb_op_with_restarts() -> impl Strategy<Value = Op> {
    (arb_op(), 0u8..6).prop_map(|(op, die)| if die == 0 { Op::RestartReplica } else { op })
}

/// Applies a source-side op (a write or a compaction) to `src`.
fn apply_to_source(src: &DocStore, op: &Op) {
    match *op {
        Op::Put(id, v) => {
            let id = format!("doc-{id}");
            let labels = LabelSet::singleton(Label::conf("e", &format!("k/{v}")));
            // Put over an existing doc conflicts; route through update
            // semantics in that case.
            let rev = src.get(&id).map(|doc| doc.rev().clone());
            src.put(&id, jobject! {"v" => v}, labels, rev.as_ref())
                .unwrap();
        }
        Op::Update(id, v) => {
            let id = format!("doc-{id}");
            if let Some(doc) = src.get(&id) {
                let rev = doc.rev().clone();
                src.put(&id, jobject! {"v" => v}, *doc.labels(), Some(&rev))
                    .unwrap();
            }
        }
        Op::Delete(id) => {
            let id = format!("doc-{id}");
            if let Some(doc) = src.get(&id) {
                let rev = doc.rev().clone();
                src.delete(&id, &rev).unwrap();
            }
        }
        Op::Compact(retain) => src.compact_changes(retain as usize),
        Op::Replicate | Op::RestartReplica => unreachable!("not a source op: {op:?}"),
    }
}

/// The stores hold the same ids, each at the same revision, body and
/// labels.
fn assert_converged(src: &DocStore, dst: &DocStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(src.ids(), dst.ids());
    for id in src.ids() {
        let s = src.get(&id).unwrap();
        let d = dst.get(&id).unwrap();
        prop_assert_eq!(s.rev(), d.rev());
        prop_assert_eq!(
            s.body().get("v").and_then(Value::as_i64),
            d.body().get("v").and_then(Value::as_i64)
        );
        prop_assert_eq!(s.labels(), d.labels());
    }
    Ok(())
}

/// Every live source id whose newest change is at or below the replica's
/// logged checkpoint is on the replica at the source's revision: the
/// checkpoint never claims a document the replica does not hold.
fn assert_checkpoint_covered(src: &DocStore, dst: &DocStore) -> Result<(), TestCaseError> {
    let checkpoint = dst.replication_checkpoint_persisted().unwrap();
    // The feed is seq-ascending, so the last entry per id is its newest;
    // compaction keeps the newest entry of every live id.
    let newest: BTreeMap<String, u64> = src
        .changes_since(0)
        .into_iter()
        .map(|c| (c.id.into(), c.seq))
        .collect();
    for (id, seq) in newest {
        let Some(doc) = src.get(&id).filter(|_| seq <= checkpoint) else {
            continue;
        };
        let held = dst.get(&id).map(|d| d.rev().clone());
        prop_assert_eq!(
            held.as_ref(),
            Some(doc.rev()),
            "{} changed at {}, covered by checkpoint {}",
            id,
            seq,
            checkpoint
        );
    }
    Ok(())
}

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "safeweb-repprops-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

proptest! {
    #[test]
    fn replication_converges(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let src = DocStore::new("src");
        let dst = DocStore::new("dst");
        let mut rep = Replicator::new(src.clone(), dst.clone());

        for op in ops {
            match op {
                Op::Replicate => { rep.run_once(); }
                op => apply_to_source(&src, &op),
            }
        }
        // Final replication: stores must converge exactly.
        rep.run_once();
        assert_converged(&src, &dst)?;
    }

    /// The same, into a durable replica that restarts between runs and
    /// resumes from the checkpoint it logged.
    #[test]
    fn replication_converges_across_replica_restarts(
        ops in proptest::collection::vec(arb_op_with_restarts(), 0..40),
    ) {
        let dir = temp_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let src = DocStore::new("src");
        let mut dst = DocStore::open(&dir).unwrap();
        let mut rep = Replicator::new(src.clone(), dst.clone());

        for op in ops {
            match op {
                Op::Replicate => { rep.run_once(); }
                Op::RestartReplica => {
                    drop((rep, dst));
                    dst = DocStore::open(&dir).unwrap();
                    rep = Replicator::new(src.clone(), dst.clone());
                    assert_checkpoint_covered(&src, &dst)?;
                }
                op => apply_to_source(&src, &op),
            }
        }
        rep.run_once();
        assert_converged(&src, &dst)?;
        drop((rep, dst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replication run twice in a row is a no-op the second time.
    #[test]
    fn replication_idempotent(n in 0usize..10) {
        let src = DocStore::new("src");
        let dst = DocStore::new("dst");
        for i in 0..n {
            src.put(&format!("d{i}"), jobject!{"i" => i}, LabelSet::new(), None).unwrap();
        }
        let mut rep = Replicator::new(src.clone(), dst.clone());
        let first = rep.run_once();
        prop_assert_eq!(first.docs_written as usize, n);
        let second = rep.run_once();
        prop_assert_eq!(second.docs_written, 0);
        prop_assert_eq!(second.docs_deleted, 0);
    }
}
