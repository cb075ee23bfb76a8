//! Evaluating a selector copies no operand: attributes and literals are
//! borrowed, and `LIKE` matches without tokenising into a buffer. The
//! aggregator's `type = 'cancer'` runs once per delivered event, so
//! this is on the write path. Counted per thread by
//! `safeweb_reactor::sys::CountingAlloc` (this binary only installs it).

use std::collections::BTreeMap;

use safeweb_reactor::sys::{thread_allocations, CountingAlloc};
use safeweb_selector::Selector;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocations();
    let out = f();
    (out, thread_allocations() - before)
}

#[test]
fn equality_like_and_arithmetic_evaluate_without_allocating() {
    let attrs: BTreeMap<String, String> = [
        ("type", "cancer"),
        ("kind", "tumour"),
        ("mdt", "mdt-0-0-42"),
        ("dose", "5"),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value.to_string()))
    .collect();
    let cases = [
        ("type = 'cancer'", true),
        ("type = 'benign'", false),
        ("mdt LIKE 'mdt-0-%-4_'", true),
        ("kind NOT LIKE 'tu%r'", false),
        ("dose * 2 + 1 > 10", true),
        ("dose - 5 <> 0", false),
        (
            "type = 'cancer' AND (dose BETWEEN 1 AND 9 OR missing IS NULL)",
            true,
        ),
    ];
    for (text, expected) in cases {
        let selector = Selector::parse(text).unwrap();
        let (matched, allocations) = counted(|| selector.matches(&attrs));
        assert_eq!(matched, expected, "{text}");
        assert_eq!(allocations, 0, "{text} allocated");
    }
}
