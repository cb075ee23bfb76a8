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

    /// Range queries over integer view keys agree with a linear-scan
    /// oracle — numerically ordered results, correct inclusive/exclusive
    /// bound handling, and no bleed-through from non-integer keys sharing
    /// the view — under arbitrary keys including `i64` extremes.
    #[test]
    fn int_range_queries_match_linear_scan_oracle(
        docs in proptest::collection::vec((0u8..24, any::<i64>()), 0..30),
        a in any::<i64>(),
        b in any::<i64>(),
        include_lo in any::<bool>(),
        include_hi in any::<bool>(),
    ) {
        use std::ops::Bound;
        let store = DocStore::new("s");
        store.create_view("by_k", "k");
        for (id, k) in &docs {
            let id = format!("doc-{id}");
            let rev = store.get(&id).map(|d| d.rev().clone());
            store
                .put(&id, jobject! {"k" => *k}, LabelSet::new(), rev.as_ref())
                .unwrap();
        }
        // Decoys of other types: a typed range must never return these.
        store.put("s-doc", jobject!{"k" => "10"}, LabelSet::new(), None).unwrap();
        store.put("f-doc", jobject!{"k" => 10.5}, LabelSet::new(), None).unwrap();
        store.put("n-doc", jobject!{"k" => Value::Null}, LabelSet::new(), None).unwrap();

        let (lo, hi) = (a.min(b), a.max(b));
        let lo_bound = if include_lo { Bound::Included(Value::from(lo)) } else { Bound::Excluded(Value::from(lo)) };
        let hi_bound = if include_hi { Bound::Included(Value::from(hi)) } else { Bound::Excluded(Value::from(hi)) };
        let got = store.query_view_range("by_k", (lo_bound, hi_bound)).unwrap();

        let mut expected: Vec<(i64, Document)> = store
            .scan(|d| {
                d.body().get("k").and_then(Value::as_i64).is_some_and(|v| {
                    matches!(d.body().get("k"), Some(Value::Int(_)))
                        && (if include_lo { v >= lo } else { v > lo })
                        && (if include_hi { v <= hi } else { v < hi })
                })
            })
            .into_iter()
            .map(|d| (d.body().get("k").and_then(Value::as_i64).unwrap(), d))
            .collect();
        // The spec order: ascending key, then id (scan returns id order).
        expected.sort_by(|(ka, da), (kb, db)| ka.cmp(kb).then_with(|| da.id().cmp(db.id())));
        let expected: Vec<Document> = expected.into_iter().map(|(_, d)| d).collect();
        prop_assert_eq!(&got, &expected);

        // An inverted range is empty, never a panic.
        prop_assert!(store
            .query_view_range("by_k", Value::from(hi.max(1))..Value::from(lo.min(0)))
            .unwrap()
            .is_empty() || lo.min(0) > hi.max(1));
    }

    /// Same spec for string keys: byte-lexicographic order, against the
    /// linear-scan oracle.
    #[test]
    fn string_range_queries_match_linear_scan_oracle(
        docs in proptest::collection::vec((0u8..24, "[a-e]{0,3}"), 0..30),
        a in "[a-e]{0,3}",
        b in "[a-e]{0,3}",
    ) {
        let store = DocStore::new("s");
        store.create_view("by_k", "k");
        for (id, k) in &docs {
            let id = format!("doc-{id}");
            let rev = store.get(&id).map(|d| d.rev().clone());
            store
                .put(&id, jobject! {"k" => k.as_str()}, LabelSet::new(), rev.as_ref())
                .unwrap();
        }
        store.put("i-doc", jobject!{"k" => 3}, LabelSet::new(), None).unwrap();

        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let got = store
            .query_view_range("by_k", Value::from(lo.as_str())..Value::from(hi.as_str()))
            .unwrap();
        let mut expected: Vec<Document> = store.scan(|d| {
            matches!(d.body().get("k"), Some(Value::Str(s)) if s.as_str() >= lo.as_str() && s.as_str() < hi.as_str())
        });
        expected.sort_by(|da, db| {
            let key = |d: &Document| match d.body().get("k") {
                Some(Value::Str(s)) => s.clone(),
                _ => unreachable!("oracle filtered to strings"),
            };
            key(da).cmp(&key(db)).then_with(|| da.id().cmp(db.id()))
        });
        prop_assert_eq!(&got, &expected);
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
