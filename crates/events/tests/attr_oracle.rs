//! Property tests: an event's flat attribute storage (one text buffer,
//! spans sorted by name) behaves as the `BTreeMap<String, String>` it
//! replaced, over random `set_attr` sequences with replacements and
//! rejected names: lookups, iteration order, equality and clones, and
//! `set_attrs` batches against `set_attr` called in turn.

use std::collections::BTreeMap;

use proptest::prelude::*;
use safeweb_events::{Event, EventError, RESERVED_ATTRIBUTES};

/// Names from a small pool, so sequences replace values often, with
/// reserved and malformed names mixed in, plus fresh short ones.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("a"),
            Just("ab"),
            Just("b"),
            Just("B"),
            Just("case_id"),
            Just("type"),
            Just("é"),
            Just("z~"),
        ]
        .prop_map(str::to_string),
        prop_oneof![
            Just(""),
            Just("destination"),
            Just("x-safeweb-labels"),
            Just("with:colon"),
            Just("has space"),
            Just("tab\there"),
        ]
        .prop_map(str::to_string),
        "[a-zA-Z_]{1,4}",
    ]
}

/// Values of any length, empty ones and line breaks (rejected) included.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9 :]{0,12}",
        Just(String::new()),
        Just("line\nbreak".to_string()),
        Just("carriage\rreturn".to_string()),
    ]
}

/// The documented acceptance rule `set_attr` must follow.
fn accepted(name: &str, value: &str) -> bool {
    !name.is_empty()
        && !RESERVED_ATTRIBUTES.contains(&name)
        && !name
            .chars()
            .any(|c| c == ':' || c.is_control() || c.is_whitespace())
        && !value.contains(['\n', '\r'])
}

fn pairs(oracle: &BTreeMap<String, String>) -> impl DoubleEndedIterator<Item = (&str, &str)> {
    oracle.iter().map(|(k, v)| (k.as_str(), v.as_str()))
}

proptest! {
    /// After every step, the event agrees with the oracle on which calls
    /// succeed, every lookup and the iteration order.
    #[test]
    fn set_attr_matches_a_btreemap(ops in proptest::collection::vec((arb_name(), arb_value()), 0..32)) {
        let mut event = Event::new("/t").unwrap();
        let mut oracle = BTreeMap::new();
        for (name, value) in &ops {
            let ok = event.set_attr(name, value).is_ok();
            prop_assert_eq!(ok, accepted(name, value), "set_attr({:?}, {:?})", name, value);
            if ok {
                oracle.insert(name.clone(), value.clone());
            }
            prop_assert!(event.attributes().eq(pairs(&oracle)), "{:?} vs {:?}", event, oracle);
            prop_assert_eq!(event.attributes().count(), oracle.len());
        }
        for (name, _) in &ops {
            prop_assert_eq!(event.attr(name), oracle.get(name).map(String::as_str));
        }
        for missing in ["", "0", "a0", "zz", "~", "é0"] {
            prop_assert_eq!(event.attr(missing), oracle.get(missing).map(String::as_str));
        }
        let copy = event.clone();
        prop_assert_eq!(&copy, &event);
        prop_assert!(copy.attributes().eq(pairs(&oracle)));
    }

    /// Equality is equality of the attribute maps: the same map built in
    /// another order (or at once with `set_attrs`) is equal, and any
    /// changed value or extra attribute is not.
    #[test]
    fn equality_follows_the_map(ops in proptest::collection::vec((arb_name(), arb_value()), 0..24), extra in "[a-z]{1,3}") {
        let mut event = Event::new("/t").unwrap();
        let mut oracle = BTreeMap::new();
        for (name, value) in &ops {
            if event.set_attr(name, value).is_ok() {
                oracle.insert(name.clone(), value.clone());
            }
        }

        let mut reversed = Event::new("/t").unwrap();
        for (name, value) in pairs(&oracle).rev() {
            reversed.set_attr(name, value).unwrap();
        }
        prop_assert_eq!(&reversed, &event);

        let valid: Vec<(&str, &str)> = ops
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .filter(|(k, v)| accepted(k, v))
            .collect();
        let mut batched = Event::new("/t").unwrap();
        batched.set_attrs(valid.iter().copied()).unwrap();
        prop_assert_eq!(&batched, &event);

        let mut changed = event.clone();
        let value = oracle.get(&extra).map_or(String::new(), |v| format!("{v}!"));
        changed.set_attr(&extra, &value).unwrap();
        prop_assert_ne!(&changed, &event);
    }
}

proptest! {
    /// `set_attrs` on an event that already has attributes ends as
    /// `set_attr` called on each pair in turn up to the first rejected
    /// one: replacements of present names and repeated names in the batch
    /// (the later one wins) included.
    #[test]
    fn set_attrs_matches_set_attr_in_turn(
        present in proptest::collection::vec((arb_name(), arb_value()), 0..12),
        batch in proptest::collection::vec((arb_name(), arb_value()), 0..40),
    ) {
        let mut event = Event::new("/t").unwrap();
        let mut oracle = BTreeMap::new();
        for (name, value) in &present {
            if event.set_attr(name, value).is_ok() {
                oracle.insert(name.clone(), value.clone());
            }
        }
        let mut one_by_one = event.clone();
        let mut first_rejected = None;
        for (name, value) in &batch {
            if one_by_one.set_attr(name, value).is_err() {
                first_rejected = Some(name.as_str());
                break;
            }
            oracle.insert(name.clone(), value.clone());
        }

        let result = event.set_attrs(batch.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        match (result, first_rejected) {
            (Ok(()), None) => {}
            (Err(EventError::InvalidAttribute(name)), Some(expected)) => prop_assert_eq!(name, expected),
            (result, expected) => prop_assert!(false, "{:?}, expected rejection of {:?}", result, expected),
        }
        prop_assert!(event.attributes().eq(pairs(&oracle)), "{:?} vs {:?}", event, oracle);
        prop_assert_eq!(&event, &one_by_one);
        for (name, _) in batch.iter().chain(&present) {
            prop_assert_eq!(event.attr(name), oracle.get(name).map(String::as_str));
        }
    }
}

#[test]
fn set_attrs_stops_at_the_first_rejected_name() {
    let mut event = Event::new("/t").unwrap();
    let result = event.set_attrs([("b", "1"), ("destination", "x"), ("a", "2")]);
    assert!(result.is_err());
    assert!(event.attributes().eq([("b", "1")]));
}
