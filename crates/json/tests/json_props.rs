//! Property tests: serialise→parse round-trips for arbitrary JSON trees,
//! and one encoding for an object however it was built.

use proptest::prelude::*;
use safeweb_json::{write_json_string, Map, Value, INTERN_MAX_LEN};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Restrict to finite floats: NaN/inf are unrepresentable in JSON.
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        "[ -~]{0,12}".prop_map(Value::from), // printable ASCII
        "\\PC{0,8}".prop_map(Value::from),   // arbitrary printable unicode
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::from),
            // Members in any order, a key possibly twice.
            proptest::collection::vec(("[a-z_]{1,8}", inner), 0..6).prop_map(Value::from_iter),
        ]
    })
}

/// A key of one or two letters or, half the time, one past the intern
/// length cap, so an object mixes interned and owned keys.
fn arb_member_key() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-h]{1,2}",
        "[a-h]{1,2}".prop_map(|k| format!("{}{k}", "k".repeat(INTERN_MAX_LEN))),
    ]
    .boxed()
}

/// `members` as a JSON object's text, in the order given.
fn object_text<'a>(members: impl IntoIterator<Item = (&'a String, &'a Value)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(key, &mut out);
        out.push(':');
        out.push_str(&value.to_json());
    }
    out.push('}');
    out
}

proptest! {
    /// The same members encode to the same bytes, in key order, however
    /// the object was built: parsed from text written in a random order,
    /// collected in that order, or inserted one by one in it, then some
    /// removed and inserted again in reverse.
    #[test]
    fn every_way_to_build_an_object_encodes_alike(
        members in proptest::collection::btree_map(arb_member_key(), arb_value(), 0..12),
        ranks in proptest::collection::vec(any::<u64>(), 12..13),
        removals in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let expected = object_text(&members);
        let mut shuffled: Vec<_> = members.iter().zip(&ranks).collect();
        shuffled.sort_by_key(|(_, rank)| **rank);
        let shuffled: Vec<_> = shuffled.into_iter().map(|(member, _)| member).collect();

        let parsed = Value::parse(&object_text(shuffled.iter().copied())).unwrap();
        let collected: Value = shuffled
            .iter()
            .map(|(key, value)| (key.as_str(), (*value).clone()))
            .collect();
        let mut inserted = Map::new();
        for (key, value) in &shuffled {
            prop_assert_eq!(inserted.insert(key.as_str(), (*value).clone()), None);
        }
        let mut removed = Vec::new();
        for i in removals.iter().filter(|_| !shuffled.is_empty()) {
            let (key, value) = shuffled[i % shuffled.len()];
            if let Some(old) = inserted.remove(key) {
                prop_assert_eq!(&old, value);
                removed.push((key, value));
            }
        }
        prop_assert_eq!(inserted.len(), members.len() - removed.len());
        for (key, value) in removed.into_iter().rev() {
            prop_assert_eq!(inserted.insert(key.as_str(), value.clone()), None);
        }
        let inserted = Value::Object(inserted);

        prop_assert_eq!(parsed.to_json(), expected.clone());
        prop_assert_eq!(collected.to_json(), expected.clone());
        prop_assert_eq!(inserted.to_json(), expected);
        prop_assert_eq!(&parsed, &collected);
        prop_assert_eq!(&parsed, &inserted);
    }

    /// An array built from a `Vec` holds its items in order and
    /// round-trips through its encoding.
    #[test]
    fn arrays_from_vecs_round_trip(
        items in proptest::collection::vec(arb_value(), 0..8),
        ints in proptest::collection::vec(any::<i64>(), 0..8),
    ) {
        let array = Value::from(items.clone());
        prop_assert_eq!(array.as_array(), Some(&items[..]));
        prop_assert_eq!(Value::parse(&array.to_json()).unwrap(), array);
        let array = Value::from(ints.clone());
        let back: Vec<_> = array.as_array().unwrap().iter().filter_map(Value::as_i64).collect();
        prop_assert_eq!(back, ints);
        prop_assert_eq!(Value::parse(&array.to_json()).unwrap(), array);
    }

    #[test]
    fn compact_roundtrip(v in arb_value()) {
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn pretty_roundtrip(v in arb_value()) {
        let text = v.to_json_pretty();
        let back = Value::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Deterministic encoding: equal values yield byte-identical JSON.
    #[test]
    fn encoding_is_deterministic(v in arb_value()) {
        prop_assert_eq!(v.to_json(), v.clone().to_json());
        let reparsed = Value::parse(&v.to_json()).unwrap();
        prop_assert_eq!(reparsed.to_json(), v.to_json());
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_garbage(s in "\\PC{0,64}") {
        let _ = Value::parse(&s);
    }
}
