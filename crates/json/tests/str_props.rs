//! Oracle equivalence: [`safeweb_json::Str`] (inline up to 22 bytes,
//! boxed above) must behave as the `String` it replaced in
//! `Value::Str` — the same text back, and the same `==`, ordering and
//! hash — on either side of the inline boundary, including multi-byte
//! characters that straddle it.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use safeweb_json::{Str, Value, INLINE_MAX};

/// Strings of 1- to 4-byte characters, 0 to about 60 bytes long, so
/// lengths cluster around the boundary and characters cross it.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('a'),
        Just('z'),
        Just('"'),
        Just('é'),
        Just('€'),
        Just('😀'),
    ];
    proptest::collection::vec(ch, 0..24).prop_map(|chars| chars.into_iter().collect())
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn assert_like_string(text: &str) -> Result<(), TestCaseError> {
    let owned = text.to_string();
    for s in [Str::from(text), Str::from(owned.clone())] {
        prop_assert_eq!(s.as_str(), text);
        prop_assert_eq!(s.as_bytes(), text.as_bytes());
        prop_assert_eq!(s.is_inline(), text.len() <= INLINE_MAX);
        prop_assert_eq!(&s, text);
        prop_assert_eq!(hash_of(&s), hash_of(&owned));
        prop_assert_eq!(format!("{s:?}"), format!("{owned:?}"));
        prop_assert_eq!(String::from(s.clone()), owned.clone());
        // Through a document and back.
        let value = Value::Str(s);
        prop_assert_eq!(Value::parse(&value.to_json()).unwrap(), value.clone());
        prop_assert_eq!(value.as_str(), Some(text));
    }
    Ok(())
}

proptest! {
    /// Round trip, hash and debug spelling match `String`'s.
    #[test]
    fn a_str_holds_its_text_as_a_string_does(text in arb_text()) {
        assert_like_string(&text)?;
    }

    /// `==` and `Ord` agree with `String`'s on every pair.
    #[test]
    fn equality_and_order_match_string(a in arb_text(), b in arb_text()) {
        let (sa, sb) = (Str::from(a.as_str()), Str::from(b.as_str()));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
        prop_assert_eq!(sa.partial_cmp(&sb), Some(a.cmp(&b)));
        prop_assert_eq!(Value::from(a.as_str()) == Value::from(b.as_str()), a == b);
    }
}

/// Every length from 0 to one past the boundary, with a 1- to 4-byte
/// character placed so that it ends just before, at or just after byte
/// 22: the text survives and is inline exactly when it fits.
#[test]
fn multi_byte_characters_straddling_the_boundary() {
    for ch in ['a', 'é', '€', '😀'] {
        for pad in 0..=INLINE_MAX + 1 {
            let text = format!("{}{ch}", "x".repeat(pad));
            assert_like_string(&text).unwrap_or_else(|e| panic!("{text:?}: {e:?}"));
            let s = Str::from(text.as_str());
            assert_eq!(s.is_inline(), text.len() <= INLINE_MAX, "{text:?}");
        }
    }
    let at = "y".repeat(INLINE_MAX);
    let over = "y".repeat(INLINE_MAX + 1);
    assert_eq!(
        Str::from(at.as_str()).cmp(&Str::from(over.as_str())),
        Ordering::Less
    );
    assert_ne!(Str::from(at.as_str()), Str::from(over.as_str()));
}
