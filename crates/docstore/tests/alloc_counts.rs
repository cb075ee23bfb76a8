//! Allocation budgets of the serialisers, counted per thread by
//! `safeweb_reactor::sys::CountingAlloc` (this binary only installs it):
//!
//! * `Value::to_json` of a case record allocates once, its exact-size
//!   output — not once per capacity doubling of a growing `String`;
//! * a durable put allocates exactly two more than an in-memory put of
//!   the same document, whatever its label count: the WAL record, built
//!   once at exact size, and the buffer that frames it for the one
//!   `write(2)` — no `String` per label URI, no `Vec` and `join`;
//! * after serialising a 1 MiB value, the thread keeps at most
//!   `SCRATCH_RETAIN` bytes of scratch;
//! * parsing or cloning the 12-member case record the benchmark stores
//!   allocates once, its member slice: its keys are interned and its
//!   string values are stored inline — no tree nodes, no capacity
//!   doublings, no `String` per key or value — it owns at most 480 bytes
//!   (40 a member), and dropping it frees every byte.
//!
//! Counts are per thread, so the harness's other test threads do not
//! disturb them.

use std::path::PathBuf;

use safeweb_docstore::DocStore;
use safeweb_json::{jobject, Key, Value, SCRATCH_RETAIN};
use safeweb_labels::{Label, LabelSet};
use safeweb_reactor::sys::{thread_allocations, thread_held_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let result = f();
    (result, thread_allocations() - before)
}

/// A case record shaped like the ones the storage unit writes.
fn case_record() -> Value {
    jobject! {
        "case_id" => "case-00042",
        "mdt_id" => "mdt-007",
        "hospital_id" => "addenbrookes",
        "region_id" => "3",
        "name" => "Ada \"Augusta\" King",
        "birth_year" => 1815,
        "site" => "lung",
        "stage" => "T2N0M0",
        "diagnosed" => 20_260_914,
        "kind" => "surgery",
        "completeness" => 0.75,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("safeweb-alloc-{tag}-{}", std::process::id()))
}

#[test]
fn to_json_of_a_case_record_allocates_once() {
    let record = case_record();
    // The first call on a thread grows its scratch buffer.
    let _ = record.to_json();
    let (text, allocations) = counted(|| record.to_json());
    assert_eq!(allocations, 1, "{text}");
    assert_eq!(text.capacity(), text.len());
}

#[test]
fn a_durable_put_allocates_its_record_and_frame_whatever_the_label_count() {
    let three: LabelSet = [
        Label::conf("ecric.org.uk", "mdt/addenbrookes"),
        Label::conf("ecric.org.uk", "patient/\"quoted\""),
        Label::int("ecric.org.uk", "unit/storage"),
    ]
    .into_iter()
    .collect();
    let label_sets = [
        LabelSet::new(),
        LabelSet::singleton(Label::conf("ecric.org.uk", "mdt/addenbrookes")),
        three,
    ];
    for labels in label_sets {
        let dir = temp_dir(&format!("put-{}", labels.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = DocStore::open(&dir).unwrap();
        durable.set_snapshot_every(0);
        let memory = DocStore::new("memory");
        let put = |store: &DocStore, id: &str| {
            let body = case_record();
            counted(|| store.put(id, body, labels, None).unwrap()).1
        };
        // The first put into each store pays its one-off growth.
        put(&durable, "warm-up");
        put(&memory, "warm-up");
        let extra = put(&durable, "case") - put(&memory, "case");
        assert_eq!(extra, 2, "{} labels", labels.len());
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_large_output_leaves_at_most_the_scratch_cap_behind() {
    let big = Value::Array(
        (0..16 * 1024)
            .map(|i| Value::from(format!("{i:064}")))
            .collect(),
    );
    let held_before = thread_held_bytes();
    let text = big.to_json();
    assert!(text.len() >= 1 << 20, "{} bytes", text.len());
    drop(text);
    let retained = thread_held_bytes() - held_before;
    assert!(
        retained <= SCRATCH_RETAIN as i64,
        "{retained} bytes of scratch retained"
    );
}

/// A stored case record as the benchmark's updates leave it: the
/// aggregator's four ids, the producer's five fields, the treatment, the
/// completeness and the update marker — 12 members, 8 of them strings.
const STORED_RECORD: &str = r#"{"birth_year":1947,"case_id":"1234","completeness":100.0,"diagnosed":2004,"hospital_id":"1","marker":98765,"mdt_id":"mdt-3","name":"patient-33812769","region_id":"0","site":"lung","stage":"II","treatment":"surgery"}"#;

/// The heap bytes `value` owns: each object's member slice and each
/// array's element slice, plus every string too long to be stored
/// inline. Keys own nothing: the record's are interned.
fn owned_bytes(value: &Value) -> usize {
    match value {
        Value::Str(s) if s.is_inline() => 0,
        Value::Str(s) => s.len(),
        Value::Array(items) => {
            items.len() * std::mem::size_of::<Value>()
                + items.iter().map(owned_bytes).sum::<usize>()
        }
        Value::Object(map) => {
            map.len() * std::mem::size_of::<(Key, Value)>()
                + map.values().map(owned_bytes).sum::<usize>()
        }
        _ => 0,
    }
}

#[test]
fn a_case_record_parses_and_clones_in_one_allocation_per_object_and_string() {
    // The first parse on a thread grows its member stack and interns the
    // keys.
    let _ = Value::parse(STORED_RECORD).unwrap();
    let held_before = thread_held_bytes();
    let (record, parse) = counted(|| Value::parse(STORED_RECORD).unwrap());
    let fields = record.as_object().unwrap();
    assert_eq!(fields.len(), 12);
    let strings = fields.values().filter(|v| v.as_str().is_some()).count();
    assert_eq!(strings, 8);
    // One member slice; the keys are interned, the strings inline.
    assert_eq!(parse, 1);
    assert!(fields
        .values()
        .filter_map(Value::as_str)
        .all(|s| s.len() <= safeweb_json::INLINE_MAX));
    // Exact sizes: nothing held beyond what the record owns.
    let owned = owned_bytes(&record) as i64;
    assert!(owned <= 480, "the record owns {owned} bytes");
    assert_eq!(thread_held_bytes() - held_before, owned);

    let (copy, clone) = counted(|| record.clone());
    assert_eq!(clone, 1);
    assert_eq!(copy, record);
    assert_eq!(thread_held_bytes() - held_before, 2 * owned);

    let ((), dropped) = counted(|| drop((record, copy)));
    assert_eq!(dropped, 0);
    assert_eq!(thread_held_bytes(), held_before);
}
