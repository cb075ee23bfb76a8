//! WAL recovery property tests: for a random op sequence, a crash
//! injected after **every** record boundary (and inside records — torn
//! and corrupted writes) recovers exactly the prefix of operations whose
//! records survived intact, never more, never less.
//!
//! The checksum validation is mutation-checked: one test corrupts a
//! record so that its payload stays *parseable JSON* — only the CRC can
//! tell it was damaged — and asserts the record and everything after it
//! are rejected. Removing the checksum check makes that test fail.
//!
//! The record *encoding* is checked against a reference: put records and
//! snapshot document frames are serialised by reference, straight from
//! the stored document into the frame, and must stay byte-identical to
//! the encoding that builds a wrapper JSON object around a copy of the
//! body (which is what wrote every log already on disk); a put's revision
//! must equal the digest of that same body encoding.
//!
//! A replication run logs its whole batch and the replica's checkpoint
//! with one append; torn at every byte, it must recover a prefix of the
//! batch and never a checkpoint past a document the log lacks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use safeweb_docstore::{DocStore, Document, Replicator};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

#[derive(Debug, Clone)]
enum Op {
    /// Put/update `doc-{0}` with payload `{1}`.
    Put(u8, i64),
    /// Delete `doc-{0}` if it exists (a no-op — and no WAL record —
    /// otherwise).
    Delete(u8),
    /// Persist replication checkpoint `{0}` (a no-op — and no WAL
    /// record — when it equals the logged one).
    Checkpoint(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, any::<i64>()).prop_map(|(id, v)| Op::Put(id, v)),
        (0u8..5).prop_map(Op::Delete),
        (0u16..1000).prop_map(Op::Checkpoint),
    ]
}

/// Applies one op through the public API; returns whether it appended a
/// WAL record (deletes of absent docs and checkpoints equal to the logged
/// one do not).
fn apply(store: &DocStore, op: &Op, ckpt: &mut u64) -> bool {
    match op {
        Op::Put(id, v) => {
            let id = format!("doc-{id}");
            let rev = store.get(&id).map(|d| d.rev().clone());
            let labels = LabelSet::singleton(Label::conf("e", &format!("p/{v}")));
            store
                .put(&id, jobject! {"v" => *v}, labels, rev.as_ref())
                .unwrap();
            true
        }
        Op::Delete(id) => {
            let id = format!("doc-{id}");
            match store.get(&id) {
                Some(doc) => {
                    store.delete(&id, doc.rev()).unwrap();
                    true
                }
                None => false,
            }
        }
        Op::Checkpoint(v) => {
            if store.is_durable() {
                store.persist_replication_checkpoint(*v as u64).unwrap();
            }
            let appended = *ckpt != *v as u64;
            *ckpt = *v as u64;
            appended
        }
    }
}

/// The oracle for a prefix: an in-memory store fed `ops[..k]`, plus the
/// last checkpoint value in that prefix.
fn oracle(ops: &[Op]) -> (DocStore, u64) {
    let store = DocStore::new("oracle");
    let mut ckpt = 0;
    for op in ops {
        apply(&store, op, &mut ckpt);
    }
    (store, ckpt)
}

fn assert_equals_oracle(
    recovered: &DocStore,
    ops: &[Op],
    context: &str,
) -> Result<(), TestCaseError> {
    let (want, want_ckpt) = oracle(ops);
    prop_assert_eq!(recovered.ids(), want.ids(), "{}: id set", context);
    for id in want.ids() {
        let (got, want) = (recovered.get(&id).unwrap(), want.get(&id).unwrap());
        prop_assert_eq!(got.rev(), want.rev(), "{}: rev of {}", context, &id);
        prop_assert_eq!(got.body(), want.body(), "{}: body of {}", context, &id);
        prop_assert_eq!(
            got.labels(),
            want.labels(),
            "{}: labels of {}",
            context,
            &id
        );
    }
    prop_assert_eq!(recovered.seq(), want.seq(), "{}: seq", context);
    prop_assert_eq!(
        recovered.replication_checkpoint_persisted(),
        Some(want_ckpt),
        "{}: checkpoint",
        context
    );
    Ok(())
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "safeweb-walprops-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Runs `ops` against a fresh durable store (auto-snapshot off so every
/// record stays in the log) and returns the WAL bytes plus the byte
/// offset after each op's record — the crash points.
fn record_wal(ops: &[Op]) -> (Vec<u8>, Vec<(usize, u64)>) {
    let dir = temp_dir("writer");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DocStore::open(&dir).unwrap();
    store.set_snapshot_every(0);
    let mut ckpt = 0;
    // (ops applied, wal length) at each record boundary.
    let mut boundaries = vec![(0, 0u64)];
    for (i, op) in ops.iter().enumerate() {
        if apply(&store, op, &mut ckpt) {
            boundaries.push((i + 1, store.wal_len().unwrap()));
        }
    }
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(bytes.len() as u64, boundaries.last().unwrap().1);
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, boundaries)
}

/// Writes `bytes` as the WAL of a fresh directory and opens it.
fn reopen_from(dir: &Path, bytes: &[u8]) -> DocStore {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("wal.log"), bytes).unwrap();
    DocStore::open(dir).unwrap()
}

/// Strings that stress the JSON string writer: quotes, backslashes,
/// control characters, DEL, multi-byte and astral code points.
fn arb_text(control: bool) -> impl Strategy<Value = String> {
    let awkward = if control { '\u{1}' } else { '\u{a0}' };
    let ch = prop_oneof![
        Just('"'),
        Just('\\'),
        Just(if control { '\n' } else { '/' }),
        Just(awkward),
        Just(if control { '\u{7f}' } else { '~' }),
        Just('é'),
        Just('✓'),
        Just('\u{10ffff}'),
        proptest::char::range('a', 'z'),
    ];
    proptest::collection::vec(ch, 0..10).prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary bodies, non-finite floats and awkward keys included.
fn arb_body() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        arb_text(true).prop_map(Value::from),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::from),
            // Members in any order, a key possibly twice: the object keeps
            // its last value, as parsing the same text would.
            proptest::collection::vec((arb_text(true), inner), 0..4).prop_map(Value::from_iter),
        ]
    })
}

/// `(id, label paths, body)`: ids may not hold control characters (the
/// store refuses them), label components neither whitespace nor commas.
fn arb_doc() -> impl Strategy<Value = (String, Vec<String>, Value)> {
    let path = arb_text(false).prop_map(|p| p.replace('\u{a0}', "_"));
    (
        arb_text(false).prop_map(|id| format!("d{id}")),
        proptest::collection::vec(path, 0..3),
        arb_body(),
    )
}

/// The reference encoding of a document: a wrapper object around a copy
/// of the body, `Value::to_json`'s sorted keys; with `op` and `seq` it
/// is a WAL put record, without them a snapshot document frame.
fn reference_encoding(doc: &Document, put_seq: Option<u64>) -> String {
    let mut v = Value::object();
    v.set("id", doc.id());
    v.set("rev", doc.rev().to_string());
    v.set("labels", doc.labels().to_wire());
    v.set("body", doc.body().clone());
    if let Some(seq) = put_seq {
        v.set("op", "put");
        v.set("seq", seq as i64);
    }
    v.to_json()
}

/// The reference revision of a body's `generation`-th write: FNV-1a over
/// the body's own `to_json` bytes.
fn reference_revision(generation: u64, body: &Value) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body.to_json().as_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{generation}-{hash:016x}")
}

/// The payloads of a file of `len | crc | payload` frames.
fn frame_payloads(bytes: &[u8]) -> Vec<String> {
    let mut payloads = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        payloads.push(String::from_utf8(rest[8..8 + len].to_vec()).unwrap());
        rest = &rest[8 + len..];
    }
    payloads
}

proptest! {
    /// A put serialises its body once, for both the revision digest and
    /// the WAL record: the revision equals the digest of the body's own
    /// encoding, and put records and snapshot frames written by reference
    /// are byte-identical to the reference encoding. Both recover to the
    /// documents' JSON round-trip (non-finite floats degrade to `null`).
    #[test]
    fn by_reference_encoding_matches_the_wrapper_object_encoding(
        docs in proptest::collection::vec(arb_doc(), 1..8),
    ) {
        let dir = temp_dir("encoding");
        let _ = std::fs::remove_dir_all(&dir);
        let store = DocStore::open(&dir).unwrap();
        store.set_snapshot_every(0);
        let mut want_records = Vec::new();
        for (id, paths, body) in docs {
            let labels: LabelSet = paths.iter().map(|p| Label::conf("e.org", p)).collect();
            let rev = store.get(&id).map(|d| d.rev().clone());
            let want_rev = reference_revision(rev.as_ref().map_or(1, |r| r.generation() + 1), &body);
            let got_rev = store.put(&id, body, labels, rev.as_ref()).unwrap();
            prop_assert_eq!(got_rev.to_string(), want_rev);
            want_records.push(reference_encoding(&store.get(&id).unwrap(), Some(store.seq())));
        }
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        prop_assert_eq!(frame_payloads(&wal), want_records);

        // What recovery must produce: each document through JSON once.
        let (seq, written) = store.snapshot();
        let want: Vec<(String, String, LabelSet, Value)> = written
            .iter()
            .map(|d| {
                let body = Value::parse(&d.body().to_json()).unwrap();
                (d.id().to_string(), d.rev().to_string(), *d.labels(), body)
            })
            .collect();
        let recovered = |store: &DocStore| -> Vec<(String, String, LabelSet, Value)> {
            let (got_seq, docs) = store.snapshot();
            assert_eq!(got_seq, seq);
            docs.into_iter()
                .map(|d| {
                    let (id, rev, labels, body) = d.into_parts();
                    (id, rev.to_string(), labels, body)
                })
                .collect()
        };
        drop(store);
        let from_wal = DocStore::open(&dir).unwrap();
        prop_assert_eq!(recovered(&from_wal), want.clone());

        from_wal.snapshot_now().unwrap();
        prop_assert_eq!(from_wal.wal_len(), Some(0));
        let snapshot = std::fs::read(dir.join("snapshot.dat")).unwrap();
        let want_frames: Vec<String> =
            written.iter().map(|d| reference_encoding(d, None)).collect();
        // (frame 0 is the snapshot's meta frame; `written` still holds the
        // pre-recovery documents, whose encoding recovery must not change)
        prop_assert_eq!(&frame_payloads(&snapshot)[1..], &want_frames[..]);
        drop(from_wal);
        let from_snapshot = DocStore::open(&dir).unwrap();
        prop_assert_eq!(recovered(&from_snapshot), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash **after every record**: truncating the log at each record
    /// boundary and recovering yields exactly the oracle state of the
    /// op prefix that produced those records.
    #[test]
    fn recovery_at_every_record_boundary_equals_prefix_oracle(
        ops in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let (bytes, boundaries) = record_wal(&ops);
        let dir = temp_dir("boundary");
        for &(k, cut) in &boundaries {
            let store = reopen_from(&dir, &bytes[..cut as usize]);
            assert_equals_oracle(&store, &ops[..k], &format!("cut after op {k}"))?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash **inside a record** (torn write): any mid-frame truncation
    /// recovers the ops before the torn record and discards the tail —
    /// and the reopened store accepts new writes on the clean boundary.
    #[test]
    fn torn_record_recovers_preceding_prefix(
        ops in proptest::collection::vec(arb_op(), 1..12),
        tear in 0u32..10_000,
    ) {
        let (bytes, boundaries) = record_wal(&ops);
        let last = *boundaries.last().unwrap();
        prop_assume!(last.1 > 0);
        // Pick a byte offset strictly inside some record's frame.
        let cut = 1 + (last.1 - 1) * tear as u64 / 10_000;
        let (k, _) = *boundaries.iter().take_while(|(_, b)| *b < cut).last().unwrap();
        prop_assume!(boundaries.iter().all(|(_, b)| *b != cut));

        let dir = temp_dir("torn");
        let store = reopen_from(&dir, &bytes[..cut as usize]);
        assert_equals_oracle(&store, &ops[..k], &format!("torn at byte {cut}"))?;
        // The torn tail is truncated; appends resume cleanly.
        store.put("fresh", jobject! {}, LabelSet::new(), None).unwrap();
        drop(store);
        let store = DocStore::open(&dir).unwrap();
        prop_assert!(store.get("fresh").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip one byte anywhere in the log: recovery stops at the damaged
    /// record — never applies it, never resynchronises past it.
    #[test]
    fn corrupted_byte_stops_replay_at_damaged_record(
        ops in proptest::collection::vec(arb_op(), 1..12),
        pos in 0u32..10_000,
        bit in 0u8..8,
    ) {
        let (mut bytes, boundaries) = record_wal(&ops);
        prop_assume!(!bytes.is_empty());
        let at = (bytes.len() - 1) * pos as usize / 10_000;
        bytes[at] ^= 1 << bit;
        // The record whose frame contains the flipped byte.
        let (k, _) = *boundaries.iter().take_while(|(_, b)| *b <= at as u64).last().unwrap();

        let dir = temp_dir("corrupt");
        let store = reopen_from(&dir, &bytes);
        assert_equals_oracle(&store, &ops[..k], &format!("flip at byte {at}"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Label URIs are written straight into the payload: put records,
/// replica applies and snapshot frames of documents with 0, 1 and 3
/// labels — an integrity label and URIs JSON must escape among them —
/// are byte-identical to the reference encoding through
/// `LabelSet::to_wire`.
#[test]
fn label_uris_encode_as_their_wire_string() {
    let three: LabelSet = [
        Label::conf("ecric.org.uk", "mdt/\"quoted\""),
        Label::conf("ecric.org.uk", "patient/back\\slash"),
        Label::int("ecric.org.uk", "unit/storage"),
    ]
    .into_iter()
    .collect();
    let label_sets = [
        LabelSet::new(),
        LabelSet::singleton(Label::conf("ecric.org.uk", "mdt/addenbrookes")),
        three,
    ];
    let dir = temp_dir("labels");
    let replica_dir = temp_dir("labels-replica");
    for d in [&dir, &replica_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let store = DocStore::open(&dir).unwrap();
    let replica = DocStore::open(&replica_dir).unwrap();
    for s in [&store, &replica] {
        s.set_snapshot_every(0);
    }
    let mut want_puts = Vec::new();
    for (i, labels) in label_sets.into_iter().enumerate() {
        let id = format!("case-{i}");
        store
            .put(&id, jobject! {"n" => i as i64}, labels, None)
            .unwrap();
        let doc = store.get(&id).unwrap();
        assert_eq!(doc.labels().len(), labels.len());
        want_puts.push(reference_encoding(&doc, Some(store.seq())));
    }
    assert_eq!(
        frame_payloads(&std::fs::read(dir.join("wal.log")).unwrap()),
        want_puts
    );

    // A replica logs the same documents, in id order, at its own seqs.
    Replicator::new(store.clone(), replica.clone()).run_once();
    let (_, docs) = store.snapshot();
    let applied = frame_payloads(&std::fs::read(replica_dir.join("wal.log")).unwrap());
    for (seq, doc) in (1..).zip(&docs) {
        assert_eq!(
            applied[seq as usize - 1],
            reference_encoding(doc, Some(seq))
        );
    }

    store.snapshot_now().unwrap();
    let snapshot = std::fs::read(dir.join("snapshot.dat")).unwrap();
    let want_frames: Vec<String> = docs.iter().map(|d| reference_encoding(d, None)).collect();
    assert_eq!(&frame_payloads(&snapshot)[1..], &want_frames[..]);
    drop((store, replica));
    for d in [&dir, &replica_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A replication run is one append: its puts and deletions, then the
/// replica's checkpoint. Torn at every byte offset, recovery keeps a
/// prefix of the batch, and the checkpoint only with the whole batch —
/// never a checkpoint past a document missing from the log.
#[test]
fn torn_replication_batch_recovers_a_prefix_and_never_a_checkpoint_past_it() {
    let src = DocStore::new("src");
    for i in 0..4 {
        src.put(
            &format!("doc-{i}"),
            jobject! {"v" => i},
            LabelSet::new(),
            None,
        )
        .unwrap();
    }
    let writer = temp_dir("batch-writer");
    let _ = std::fs::remove_dir_all(&writer);
    let dst = DocStore::open(&writer).unwrap();
    dst.set_snapshot_every(0);
    let mut rep = Replicator::new(src.clone(), dst.clone());
    rep.run_once();
    let (seq_before, before) = dst.snapshot();
    let (ckpt_before, logged_before) = (rep.checkpoint(), dst.wal_len().unwrap() as usize);

    // The batch under test, in the run's id order: a deletion, an update
    // with an awkward body, a new document.
    let changed = ["doc-1", "doc-2", "doc-5"];
    let rev = src.get("doc-1").unwrap().rev().clone();
    src.delete("doc-1", &rev).unwrap();
    let rev = src.get("doc-2").unwrap().rev().clone();
    let awkward = jobject! {"v" => "\"q\\uoted\"\n✓\u{10ffff}\u{7f}", "f" => -0.5e-300};
    src.put("doc-2", awkward, LabelSet::new(), Some(&rev))
        .unwrap();
    src.put("doc-5", jobject! {}, LabelSet::new(), None)
        .unwrap();
    let report = rep.run_once();
    assert_eq!((report.docs_written, report.docs_deleted), (2, 1));
    let (_, after) = dst.snapshot();
    let bytes = std::fs::read(writer.join("wal.log")).unwrap();
    drop(dst);
    let _ = std::fs::remove_dir_all(&writer);

    let as_map = |docs: Vec<Document>| -> BTreeMap<String, Document> {
        docs.into_iter().map(|d| (d.id().to_string(), d)).collect()
    };
    let (before, after) = (as_map(before), as_map(after));
    let dir = temp_dir("batch-torn");
    for cut in logged_before..=bytes.len() {
        let store = reopen_from(&dir, &bytes[..cut]);
        let applied = (store.seq() - seq_before) as usize;
        assert!(applied <= changed.len(), "byte {cut}: {applied} records");
        let mut want = before.clone();
        for id in &changed[..applied] {
            match after.get(*id) {
                Some(doc) => want.insert(id.to_string(), doc.clone()),
                None => want.remove(*id),
            };
        }
        let got = as_map(store.snapshot().1);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "byte {cut}"
        );
        for (id, doc) in &want {
            assert_eq!(got[id].rev(), doc.rev(), "byte {cut}: rev of {id}");
            assert_eq!(got[id].body(), doc.body(), "byte {cut}: body of {id}");
        }
        let ckpt = store.replication_checkpoint_persisted().unwrap();
        if ckpt != ckpt_before {
            assert_eq!(ckpt, src.seq(), "byte {cut}");
            assert_eq!(
                applied,
                changed.len(),
                "byte {cut}: checkpoint past a missing document"
            );
        }
        assert_eq!(cut == bytes.len(), ckpt == src.seq(), "byte {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// **Mutation check for the checksum.** The corruption keeps the payload
/// valid JSON — same length, same structure, one digit changed — so
/// nothing but the CRC comparison can notice. If `Wal::open` stopped
/// validating checksums, the store would happily recover the altered
/// document and the two intact records after it, and this test fails.
#[test]
fn checksum_rejects_semantically_valid_corruption() {
    let dir = temp_dir("mutation");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = DocStore::open(&dir).unwrap();
        store
            .put("a", jobject! {"v" => 11111111}, LabelSet::new(), None)
            .unwrap();
        store.put("b", jobject! {}, LabelSet::new(), None).unwrap();
        store.put("c", jobject! {}, LabelSet::new(), None).unwrap();
    }
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let needle = b"11111111";
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("payload digits in the first record");
    bytes[at] = b'2'; // still perfectly valid JSON: 21111111
    std::fs::write(&wal, &bytes).unwrap();

    let store = DocStore::open(&dir).unwrap();
    assert!(
        store.is_empty() && store.seq() == 0,
        "checksum validation let a corrupted-but-parseable record through \
         (recovered ids {:?})",
        store.ids()
    );
    // And the log was truncated back to the last good frame, so the
    // store keeps working.
    assert_eq!(store.wal_len(), Some(0));
    store
        .put("fresh", jobject! {}, LabelSet::new(), None)
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
