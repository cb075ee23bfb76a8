//! Adversarial property tests for the selector parser: arbitrary and
//! pathological inputs must produce `Ok` or a typed
//! [`ParseSelectorError`] — never a panic, never unbounded recursion —
//! and bound parameters must be inert data regardless of content.

use std::collections::BTreeMap;

use proptest::prelude::*;
use safeweb_selector::{Selector, SelectorError, MAX_NESTING_DEPTH, MAX_SELECTOR_LEN};

/// Calls the parser on `input` inside `catch_unwind`, proving "typed
/// error, not panic" for hostile bytes.
fn parse_never_panics(input: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    let owned = input.to_string();
    let outcome = std::panic::catch_unwind(move || Selector::parse(&owned).map(|_| ()));
    prop_assert!(outcome.is_ok(), "parser panicked on {input:?}");
    Ok(())
}

proptest! {
    /// Printable garbage (ASCII + multibyte unicode) never panics.
    #[test]
    fn printable_garbage_never_panics(s in "\\PC{0,64}") {
        parse_never_panics(&s)?;
    }

    /// Selector-ish token soup — operators, quotes, keywords, digits in
    /// random order — never panics and errors are typed.
    #[test]
    fn token_soup_never_panics(s in "[a-zA-Z0-9_'()<>=+*/,.? -]{0,48}") {
        parse_never_panics(&s)?;
    }

    /// NUL bytes and other control characters are rejected with a typed
    /// error (the lexer only admits printable selector syntax).
    #[test]
    fn control_chars_yield_typed_errors(
        prefix in "[a-z]{0,4}",
        ctl in proptest::char::range('\u{0}', '\u{8}'),
        suffix in "[a-z]{0,4}",
    ) {
        let input = format!("{prefix}{ctl}{suffix}");
        let owned = input.clone();
        let outcome = std::panic::catch_unwind(move || Selector::parse(&owned));
        prop_assert!(outcome.is_ok(), "parser panicked on {input:?}");
        if let Ok(Err(err)) = outcome {
            // The error type carries a position; Display never panics.
            let _ = (err.position(), err.to_string());
        }
    }

    /// Deep `(`/`NOT`/`-` nesting beyond the limit returns the typed
    /// depth error (or the length error, once the nesting alone runs
    /// past `MAX_SELECTOR_LEN`); nesting inside the limit parses fine.
    #[test]
    fn nesting_depth_is_enforced(extra in 1usize..1000, shallow in 1usize..64) {
        let deep = MAX_NESTING_DEPTH + extra;
        for (open, close) in [("(", ")"), ("NOT ", ""), ("- ", "")] {
            let input = format!("{}1 = 1{}", open.repeat(deep), close.repeat(deep));
            let err = Selector::parse(&input).expect_err("over-deep input must fail");
            let wanted = if input.len() > MAX_SELECTOR_LEN {
                "-byte cap"
            } else {
                "nesting exceeds"
            };
            prop_assert!(
                err.to_string().contains(wanted),
                "wanted {wanted:?} for {}x {open:?}, got: {err}", deep
            );

            let input = format!("{}1 = 1{}", open.repeat(shallow), close.repeat(shallow));
            prop_assert!(
                Selector::parse(&input).is_ok(),
                "shallow nesting ({shallow}) must parse"
            );
        }
    }

    /// A hostile payload bound via `Selector::bind` is inert: the bound
    /// selector matches exactly the attribute equal to the payload,
    /// regardless of quotes/keywords/operators in it.
    #[test]
    fn bound_params_are_inert(payload in "\\PC{0,32}") {
        let sel = Selector::bind("name = ?", &[payload.as_str().into()])
            .expect("binding any printable payload succeeds");

        let mut attrs = BTreeMap::new();
        attrs.insert("name".to_string(), payload.clone());
        prop_assert!(
            sel.matches(&attrs),
            "bound selector must match its own payload {payload:?}"
        );

        attrs.insert("name".to_string(), format!("{payload}-nope"));
        prop_assert!(
            !sel.matches(&attrs),
            "bound selector must not match a different value for {payload:?}"
        );
    }

    /// The classic concatenation bug, side by side: concatenating the
    /// same payload into quotes either fails to parse or — when the
    /// payload happens to close the quote and inject `OR` — matches rows
    /// the bound form does not. The bound form never over-matches.
    #[test]
    fn binding_beats_concatenation(name in "[a-z]{1,8}") {
        let payload = format!("{name}' OR 'a' = 'a");
        let mut attrs = BTreeMap::new();
        attrs.insert("name".to_string(), "somebody-else".to_string());

        // Concatenated: parses (the payload completes the quoting) and
        // matches EVERY row — the injection.
        let concatenated = format!("name = '{payload}'");
        let injected = Selector::parse(&concatenated).expect("payload completes the syntax");
        assert!(injected.matches(&attrs), "demonstrates the injection");

        // Bound: the payload is a 16-ish char string nobody matches.
        let bound = Selector::bind("name = ?", &[payload.as_str().into()]).unwrap();
        prop_assert!(!bound.matches(&attrs));
    }
}

#[test]
fn bind_checks_arity_and_null() {
    assert!(matches!(
        Selector::bind("a = ? AND b = ?", &["x".into()]),
        Err(SelectorError::Arity {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        Selector::bind("a = ?", &["x".into(), "y".into()]),
        Err(SelectorError::Arity {
            expected: 1,
            got: 2
        })
    ));
    assert!(matches!(
        Selector::bind("a = ?", &[safeweb_safeq::Param::Null]),
        Err(SelectorError::NullParam)
    ));
}

#[test]
fn bind_supports_numbers_bools_and_positions() {
    let sel = Selector::bind(
        "age > ? AND active = ? AND score <= ?",
        &[40i64.into(), "yes".into(), 9.5f64.into()],
    )
    .unwrap();
    let mut attrs = BTreeMap::new();
    attrs.insert("age".to_string(), "61".to_string());
    attrs.insert("active".to_string(), "yes".to_string());
    attrs.insert("score".to_string(), "9.5".to_string());
    assert!(sel.matches(&attrs));
    attrs.insert("age".to_string(), "39".to_string());
    assert!(!sel.matches(&attrs));

    // Booleans bind to the TRUE/FALSE keywords (boolean contexts, not
    // string attributes — those are untyped strings in this dialect).
    let always = Selector::bind("? OR age > ?", &[true.into(), 40i64.into()]).unwrap();
    assert!(always.matches(&BTreeMap::new()));
    let gate = Selector::bind("? AND age > ?", &[false.into(), 40i64.into()]).unwrap();
    assert!(!gate.matches(&attrs));
}

#[test]
fn bound_source_roundtrips() {
    let sel = Selector::bind("name = ?", &["O'Brien; DROP".into()]).unwrap();
    // The printed source re-escapes quotes, so reparsing it yields the
    // same expression rather than an injection.
    let reparsed = Selector::parse(sel.source()).unwrap();
    assert_eq!(reparsed.expr(), sel.expr());
}
