//! Allocation budget of the aggregator's case fold (`units::fold_case`),
//! counted per thread by `safeweb_reactor::sys::CountingAlloc` (this
//! binary only installs it). A new case's record is collected in one
//! allocation, completeness slot included: the fold parses the piece,
//! collects the record and writes its JSON text: three allocations, where
//! opening the record with four members, then inserting each piece field
//! (its key copied out as a `String`) and the completeness, took eight. A
//! known case's update parses the stored record and the piece, replaces
//! members in place and writes the text: three as well.

use safeweb_json::{jobject, Value};
use safeweb_mdt::units::{fold_case, CaseIds};
use safeweb_reactor::sys::{thread_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of a new case's fold (8 while the record grew by inserts).
const NEW_CASE_BUDGET: u64 = 3;
/// Allocations of a known case's fold.
const UPDATE_BUDGET: u64 = 3;

const IDS: CaseIds<'static> = CaseIds {
    case_id: "10042",
    mdt: "mdt-7",
    hospital: "3",
    region: "0",
};
const PATIENT: &str = r#"{"name":"Ada King","birth_year":1950}"#;
const TUMOUR: &str = r#"{"site":"lung","stage":"II","diagnosed":2001}"#;
const TREATMENT: &str = r#"{"kind":"surgery"}"#;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let result = f();
    (result, thread_allocations() - before)
}

#[test]
fn new_case_fold_collects_the_record_once() {
    // Warm the key intern table and the thread's JSON scratch.
    fold_case(None, &IDS, false, PATIENT).unwrap();
    let (fold, allocations) = counted(|| fold_case(None, &IDS, false, PATIENT).unwrap());
    assert!(
        allocations <= NEW_CASE_BUDGET,
        "a new case's fold made {allocations} allocations, budget {NEW_CASE_BUDGET}"
    );
    let expected = jobject! {
        "case_id" => "10042",
        "mdt_id" => "mdt-7",
        "hospital_id" => "3",
        "region_id" => "0",
        "name" => "Ada King",
        "birth_year" => 1950,
        "completeness" => 33.0,
    };
    assert_eq!(Value::parse(&fold.record_json).unwrap(), expected);
    assert_eq!((fold.old_completeness, fold.completeness), (0.0, 33.0));
}

#[test]
fn known_case_fold_replaces_members_in_place() {
    let opened = fold_case(None, &IDS, false, PATIENT).unwrap();
    let tumour = fold_case(Some(&opened.record_json), &IDS, false, TUMOUR).unwrap();
    let treated = fold_case(Some(&tumour.record_json), &IDS, true, TREATMENT).unwrap();
    assert_eq!(treated.completeness, 100.0);
    let record = Value::parse(&treated.record_json).unwrap();
    assert_eq!(record.get("treatment"), Some(&Value::from("surgery")));
    assert_eq!(
        record.get("kind"),
        None,
        "a treatment's kind is filed as treatment"
    );

    // A repeat of a known piece, the steady-state update.
    let (fold, allocations) =
        counted(|| fold_case(Some(&treated.record_json), &IDS, false, TUMOUR).unwrap());
    assert!(
        allocations <= UPDATE_BUDGET,
        "a known case's fold made {allocations} allocations, budget {UPDATE_BUDGET}"
    );
    assert_eq!(fold.record_json, treated.record_json);
    assert_eq!((fold.old_completeness, fold.completeness), (100.0, 100.0));
}

#[test]
fn a_bad_payload_is_refused() {
    assert!(matches!(
        fold_case(None, &IDS, false, "{not json"),
        Err(safeweb_engine::UnitError::BadEvent(_))
    ));
}
