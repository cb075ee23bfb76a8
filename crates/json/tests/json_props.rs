//! Property tests: serialise→parse round-trips for arbitrary JSON trees.

use proptest::prelude::*;
use safeweb_json::Value;

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
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            // Members in any order, a key possibly twice.
            proptest::collection::vec(("[a-z_]{1,8}", inner), 0..6).prop_map(Value::from_iter),
        ]
    })
}

proptest! {
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
