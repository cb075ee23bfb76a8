//! The key intern table is bounded: a peer sending ever-new object keys
//! fills it to `INTERN_MAX_KEYS` and no further, every later key is
//! stored owned, and every document still parses to the right values.
//! (A test binary of its own: the table is process-wide.)

use safeweb_json::{interned_keys, Key, Value, INTERN_MAX_KEYS, INTERN_MAX_LEN};

#[test]
fn ten_thousand_distinct_keys_fill_the_table_to_its_cap_and_no_further() {
    const DOCS: usize = 100;
    const KEYS_PER_DOC: usize = 100;
    for doc in 0..DOCS {
        let mut text = String::from("{");
        for k in 0..KEYS_PER_DOC {
            if k > 0 {
                text.push(',');
            }
            text.push_str(&format!(
                "\"key-{doc:03}-{k:03}\":{}",
                doc * KEYS_PER_DOC + k
            ));
        }
        text.push('}');
        let parsed = Value::parse(&text).unwrap();
        assert!(interned_keys() <= INTERN_MAX_KEYS);
        let object = parsed.as_object().unwrap();
        assert_eq!(object.len(), KEYS_PER_DOC);
        for k in 0..KEYS_PER_DOC {
            let key = format!("key-{doc:03}-{k:03}");
            assert_eq!(
                parsed.get(&key).and_then(Value::as_i64),
                Some((doc * KEYS_PER_DOC + k) as i64),
                "{key}"
            );
        }
        // Keys sort by text, interned or not, so the encoding is the
        // input's (written in ascending order).
        assert_eq!(parsed.to_json(), text);
    }
    assert_eq!(interned_keys(), INTERN_MAX_KEYS);

    // The first keys seen are interned; later ones, and any key past the
    // length cap, are owned — and equal by text all the same.
    assert!(Key::from("key-000-000").is_interned());
    let late = Key::from("key-099-099");
    assert!(!late.is_interned());
    assert_eq!(late, Key::from("key-099-099".to_string()));
    assert!(!Key::from("k".repeat(INTERN_MAX_LEN + 1)).is_interned());
    assert_eq!(interned_keys(), INTERN_MAX_KEYS);
}
