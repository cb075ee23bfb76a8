//! Oracle equivalence: [`safeweb_json::Map`] (members in one key-sorted
//! vector) must behave as the `BTreeMap<String, Value>` it replaced —
//! same lookups, same removals, same iteration order, same encoded bytes
//! and the same equality — across random operation sequences, and the
//! parser must build from out-of-order and repeated keys the object that
//! inserting them in order into a `BTreeMap` would, the last duplicate
//! winning. The oracle and its encoder are kept here, test-local.
//!
//! Keys are interned only up to `INTERN_MAX_LEN` bytes and while the
//! intern table has room; every other key is stored owned. The same
//! properties hold for keys past the length cap mixed with short ones,
//! and for maps built after the table is full, where keys of one text
//! are owned in one map and compared against another's.

use std::collections::BTreeMap;

use proptest::prelude::*;
use safeweb_json::{
    interned_keys, write_json_string, Key, Map, Value, INTERN_MAX_KEYS, INTERN_MAX_LEN,
};

/// The reference encoder: a `BTreeMap` iterates in key order, which is
/// the order the document store's revision digests depend on.
fn encode_oracle(map: &BTreeMap<String, Value>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in map.iter().enumerate() {
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

/// Keys from a small alphabet, so that sequences hit, miss and repeat
/// keys, and objects grow past the size where lookups switch from a
/// linear scan to binary search.
fn arb_key() -> impl Strategy<Value = String> {
    "[a-h]{0,2}"
}

/// A short key or, half the time, one past the intern length cap; both
/// from a small alphabet, so long keys repeat, interleave with short ones
/// in key order and meet each other in lookups.
fn arb_mixed_key() -> BoxedStrategy<String> {
    prop_oneof![
        arb_key(),
        arb_key().prop_map(|k| format!("{}{k}", "long-".repeat(INTERN_MAX_LEN / 5 + 1))),
    ]
    .boxed()
}

/// Short keys of their own prefix, first written by this test's process
/// after [`fill_the_intern_table`]: always stored owned.
fn arb_late_key() -> BoxedStrategy<String> {
    "[a-h]{0,2}".prop_map(|k| format!("late-{k}")).boxed()
}

/// Interns distinct keys until the table is at its cap.
fn fill_the_intern_table() {
    for i in 0..INTERN_MAX_KEYS {
        let _ = Key::from(format!("fill-{i}"));
    }
    assert_eq!(interned_keys(), INTERN_MAX_KEYS);
}

fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (0i64..4).prop_map(Value::Int),
        "[a-c]{0,2}".prop_map(Value::from),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(String, Value),
    Remove(String),
    Get(String),
    GetMut(String, Value),
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_with(|| arb_key().boxed())
}

fn arb_op_with(key: fn() -> BoxedStrategy<String>) -> impl Strategy<Value = Op> {
    prop_oneof![
        (key(), arb_leaf()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), arb_leaf()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), arb_leaf()).prop_map(|(k, v)| Op::Insert(k, v)),
        key().prop_map(Op::Remove),
        key().prop_map(Op::Get),
        (key(), arb_leaf()).prop_map(|(k, v)| Op::GetMut(k, v)),
    ]
}

/// An object as written: members in the order they appear in the text,
/// a key possibly more than once, values possibly objects themselves.
#[derive(Debug, Clone)]
enum Written {
    Leaf(Value),
    Object(Vec<(String, Written)>),
}

fn arb_written() -> impl Strategy<Value = Vec<(String, Written)>> {
    arb_written_with(|| arb_key().boxed())
}

fn arb_written_with(
    key: fn() -> BoxedStrategy<String>,
) -> impl Strategy<Value = Vec<(String, Written)>> {
    let value = arb_leaf()
        .prop_map(Written::Leaf)
        .prop_recursive(2, 24, 6, move |inner| {
            proptest::collection::vec((key(), inner), 0..6).prop_map(Written::Object)
        });
    proptest::collection::vec((key(), value), 0..48)
}

/// The text of `members` in written order.
fn write_text(members: &[(String, Written)], out: &mut String) {
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(key, out);
        out.push_str(": ");
        match value {
            Written::Leaf(v) => out.push_str(&v.to_json()),
            Written::Object(inner) => write_text(inner, out),
        }
    }
    out.push('}');
}

/// What the `BTreeMap` tree made the text into: every member inserted in
/// written order, so a later duplicate replaces an earlier one. A nested
/// object is built the same way and taken as the value its oracle
/// encodes to (sorted text, which parses without reordering).
fn oracle(members: &[(String, Written)]) -> BTreeMap<String, Value> {
    let mut map = BTreeMap::new();
    for (key, value) in members {
        let value = match value {
            Written::Leaf(v) => v.clone(),
            Written::Object(inner) => Value::parse(&encode_oracle(&oracle(inner))).unwrap(),
        };
        map.insert(key.clone(), value);
    }
    map
}

fn assert_same(map: &Map, oracle: &BTreeMap<String, Value>) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), oracle.len());
    prop_assert_eq!(map.is_empty(), oracle.is_empty());
    let got: Vec<(&String, &Value)> = map.iter().collect();
    let want: Vec<(&String, &Value)> = oracle.iter().collect();
    prop_assert_eq!(got, want);
    prop_assert!(map.keys().eq(oracle.keys()));
    prop_assert!(map.values().eq(oracle.values()));
    prop_assert_eq!(Value::Object(map.clone()).to_json(), encode_oracle(oracle));
    Ok(())
}

/// Applies `ops` to a `Map` and to the oracle, comparing the whole map
/// after every step.
fn run_ops(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut map = Map::new();
    let mut oracle = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                prop_assert_eq!(map.insert(k.clone(), v.clone()), oracle.insert(k, v));
            }
            Op::Remove(k) => prop_assert_eq!(map.remove(&k), oracle.remove(&k)),
            Op::Get(k) => prop_assert_eq!(map.get(&k), oracle.get(&k)),
            Op::GetMut(k, v) => {
                let (got, want) = (map.get_mut(&k), oracle.get_mut(&k));
                prop_assert_eq!(got.is_some(), want.is_some());
                if let (Some(got), Some(want)) = (got, want) {
                    *got = v.clone();
                    *want = v;
                }
            }
        }
        assert_same(&map, &oracle)?;
    }
    // Consuming iteration walks the same order.
    prop_assert!(map.into_iter().eq(oracle));
    Ok(())
}

/// Parses the text of `members` and holds the object to the oracle; the
/// members collected into a `Map` make an equal object.
fn parse_written(members: Vec<(String, Written)>) -> Result<(), TestCaseError> {
    let mut text = String::new();
    write_text(&members, &mut text);
    let want = oracle(&members);
    let parsed = Value::parse(&text).unwrap();
    let map = parsed.as_object().unwrap();
    assert_same(map, &want)?;
    for (key, value) in &want {
        prop_assert_eq!(parsed.get(key), Some(value));
    }
    let collected: Map = members
        .iter()
        .map(|(k, w)| {
            let mut text = String::new();
            match w {
                Written::Leaf(v) => text.push_str(&v.to_json()),
                Written::Object(inner) => write_text(inner, &mut text),
            }
            (k.clone(), Value::parse(&text).unwrap())
        })
        .collect();
    prop_assert_eq!(&collected, map);
    Ok(())
}

proptest! {
    /// Random insert / remove / get / get_mut sequences, with the whole
    /// map compared after every step.
    #[test]
    fn operations_match_the_btree_oracle(ops in proptest::collection::vec(arb_op(), 0..160)) {
        run_ops(ops)?;
    }

    /// The same with keys past the intern length cap among short ones.
    #[test]
    fn operations_on_long_keys_match_the_btree_oracle(
        ops in proptest::collection::vec(arb_op_with(arb_mixed_key), 0..160),
    ) {
        run_ops(ops)?;
    }

    /// The same on maps built after the intern table is full.
    #[test]
    fn operations_after_the_intern_table_is_full_match_the_btree_oracle(
        ops in proptest::collection::vec(arb_op_with(arb_late_key), 0..160),
    ) {
        fill_the_intern_table();
        run_ops(ops)?;
    }

    /// Out-of-order and repeated keys parse to the oracle's object, the
    /// last duplicate winning, at every nesting level; the result encodes
    /// to the oracle's bytes and collecting the members agrees.
    #[test]
    fn parsing_matches_the_btree_oracle(members in arb_written()) {
        parse_written(members)?;
    }

    /// The same with keys past the intern length cap among short ones.
    #[test]
    fn parsing_long_keys_matches_the_btree_oracle(members in arb_written_with(arb_mixed_key)) {
        parse_written(members)?;
    }

    /// The same for documents parsed after the intern table is full.
    #[test]
    fn parsing_after_the_intern_table_is_full_matches_the_btree_oracle(
        members in arb_written_with(arb_late_key),
    ) {
        fill_the_intern_table();
        parse_written(members)?;
    }

    /// `==` on objects is the oracle's: it ignores the order members were
    /// added in and compares keys and values.
    #[test]
    fn equality_matches_the_btree_oracle(
        a in proptest::collection::vec((arb_key(), (0i64..2).prop_map(Value::Int)), 0..6),
        b in proptest::collection::vec((arb_key(), (0i64..2).prop_map(Value::Int)), 0..6),
    ) {
        let map_a: Map = a.iter().cloned().collect();
        let map_b: Map = b.iter().cloned().collect();
        let oracle_a: BTreeMap<String, Value> = a.iter().cloned().collect();
        let oracle_b: BTreeMap<String, Value> = b.iter().cloned().collect();
        prop_assert_eq!(map_a == map_b, oracle_a == oracle_b);
        // The same members, added in the opposite order.
        let mut reversed = Map::new();
        for (k, v) in oracle_a.clone().into_iter().rev() {
            reversed.insert(k, v);
        }
        prop_assert_eq!(&reversed, &map_a);
        prop_assert_eq!(Value::Object(reversed), Value::Object(map_a));
    }
}
