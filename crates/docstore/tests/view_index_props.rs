//! Property tests: the incrementally maintained view indexes and the
//! id-prefix range query always agree with a linear-scan oracle — under
//! any interleaving of puts, field-changing updates, deletes, replication
//! runs and changes-feed compaction, on both the source store and the
//! replicated target.

use proptest::prelude::*;
use safeweb_docstore::{DocStore, Document, Replicator};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

#[derive(Debug, Clone)]
enum Op {
    /// Put or update document `doc-{0}` with indexed key `k{1}` and
    /// payload `{2}`.
    Put(u8, u8, i64),
    /// Remove the indexed field from `doc-{0}` (if it exists).
    DropField(u8),
    Delete(u8),
    Replicate,
    /// Compact the source's changes feed, retaining `{0}` recent entries.
    Compact(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..4, any::<i64>()).prop_map(|(id, k, v)| Op::Put(id, k, v)),
        (0u8..6).prop_map(Op::DropField),
        (0u8..6).prop_map(Op::Delete),
        Just(Op::Replicate),
        (0u8..8).prop_map(Op::Compact),
    ]
}

/// The linear-scan oracle the seed's `query_view` implemented: filter all
/// documents on body field equality.
fn oracle_view(store: &DocStore, field: &str, key: &Value) -> Vec<Document> {
    store.scan(|d| d.body().get(field) == Some(key))
}

fn oracle_prefix(store: &DocStore, prefix: &str) -> Vec<Document> {
    store.scan(|d| d.id().starts_with(prefix))
}

fn assert_indexes_match_oracle(store: &DocStore) -> Result<(), TestCaseError> {
    for k in 0u8..4 {
        let key = Value::from(format!("k{k}"));
        let indexed = store.query_view("by_key", &key).unwrap();
        let scanned = oracle_view(store, "key", &key);
        prop_assert_eq!(&indexed, &scanned, "view mismatch on {:?}", key);
    }
    for prefix in ["doc-", "doc-1", "other-"] {
        let ranged = store.scan_prefix(prefix);
        let scanned = oracle_prefix(store, prefix);
        prop_assert_eq!(&ranged, &scanned, "prefix mismatch on {:?}", prefix);
        prop_assert_eq!(store.count_prefix(prefix), scanned.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexed_views_match_linear_scan_oracle(
        ops in proptest::collection::vec(arb_op(), 0..60),
    ) {
        let src = DocStore::new("src");
        let dst = DocStore::new("dst");
        src.create_view("by_key", "key");
        dst.create_view("by_key", "key");
        let mut rep = Replicator::new(src.clone(), dst.clone());

        for op in ops {
            match op {
                Op::Put(id, k, v) => {
                    let id = format!("doc-{id}");
                    let key = format!("k{k}");
                    let labels = LabelSet::singleton(Label::conf("e", &key));
                    let body = jobject!{"key" => key.as_str(), "v" => v};
                    let rev = src.get(&id).map(|d| d.rev().clone());
                    src.put(&id, body, labels, rev.as_ref()).unwrap();
                }
                Op::DropField(id) => {
                    let id = format!("doc-{id}");
                    if let Some(doc) = src.get(&id) {
                        let rev = doc.rev().clone();
                        src.put(&id, jobject!{"v" => 0}, *doc.labels(), Some(&rev))
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
                Op::Replicate => { rep.run_once(); }
                Op::Compact(retain) => { src.compact_changes(retain as usize); }
            }
            assert_indexes_match_oracle(&src)?;
        }

        // After a final replication the target's indexes (maintained
        // through the apply_replicated path) match its own oracle, and the
        // stores converge even if compaction forced a full resync.
        rep.run_once();
        assert_indexes_match_oracle(&src)?;
        assert_indexes_match_oracle(&dst)?;
        prop_assert_eq!(src.ids(), dst.ids());
        for k in 0u8..4 {
            let key = Value::from(format!("k{k}"));
            prop_assert_eq!(
                src.query_view("by_key", &key).unwrap(),
                dst.query_view("by_key", &key).unwrap()
            );
        }
    }

    /// Auto-compaction never lets the feed reach twice (one entry per live
    /// document plus the retention window), and replication through
    /// repeated compaction still converges.
    #[test]
    fn bounded_feed_replication_converges(
        retention in 4usize..32,
        writes in 1usize..300,
    ) {
        let src = DocStore::new("src");
        let dst = DocStore::new("dst");
        src.set_changes_retention(retention);
        let mut rep = Replicator::new(src.clone(), dst.clone());
        for i in 0..writes {
            let id = format!("doc-{}", i % 7);
            let rev = src.get(&id).map(|d| d.rev().clone());
            src.put(&id, jobject!{"i" => i}, LabelSet::new(), rev.as_ref()).unwrap();
            if i % 13 == 0 {
                rep.run_once();
            }
            prop_assert!(src.changes_len() < 2 * (src.len() + retention));
        }
        rep.run_once();
        prop_assert_eq!(src.ids(), dst.ids());
        for id in src.ids() {
            let (s, d) = (src.get(&id).unwrap(), dst.get(&id).unwrap());
            prop_assert_eq!(s.rev(), d.rev());
        }
    }
}
