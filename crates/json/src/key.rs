//! Object keys, interned in one bounded process-wide table.
//!
//! The same dozen words key every case record, aggregate and event this
//! system stores, and a `String` per key made them a third of a parsed
//! record's allocations. A [`Key`] is either a `&'static String` from the
//! intern table — copying one is copying a pointer — or, past the table's
//! caps, a boxed `String` of its own. Both compare and order by their
//! text, so which one a key is never shows in a lookup, an encoding or an
//! equality. Either is one pointer and a tag, 16 bytes, so an object
//! member — a key and a [`Value`](crate::Value) — is 40 bytes.
//!
//! The table is bounded: only keys of at most [`INTERN_MAX_LEN`] bytes are
//! interned, and at most [`INTERN_MAX_KEYS`] of them, so a peer sending
//! ever-new keys fills it once (about 74 KB) and its later keys are
//! stored owned. Interned keys live for the process, as string literals
//! do. A direct-mapped per-thread cache answers repeated keys without
//! touching the table's lock. Trace span names (`safeweb_obs`) are
//! interned here too.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

use safeweb_sync::RwLock;

/// Keys longer than this many bytes are never interned.
pub const INTERN_MAX_LEN: usize = 32;

/// The most distinct keys the intern table holds; a key first seen after
/// the table is full is stored owned.
pub const INTERN_MAX_KEYS: usize = 1024;

/// Every interned key by its text; entries are never removed.
static TABLE: RwLock<BTreeMap<&'static str, &'static String>> = RwLock::new(BTreeMap::new());

/// `TABLE`'s length, readable without its lock.
static INTERNED: AtomicUsize = AtomicUsize::new(0);

/// Slots in the per-thread cache, a power of two.
const CACHE_SLOTS: usize = 256;

thread_local! {
    /// Interned keys this thread looked up, each in the slot its text
    /// hashes to; a collision replaces the older key.
    static CACHE: [Cell<Option<&'static String>>; CACHE_SLOTS] =
        const { [const { Cell::new(None) }; CACHE_SLOTS] };
}

/// The number of keys in the process-wide intern table; it never exceeds
/// [`INTERN_MAX_KEYS`].
pub fn interned_keys() -> usize {
    INTERNED.load(Ordering::Relaxed)
}

/// The cache slot for `text`: a multiplicative hash over its 8-byte words.
fn slot(text: &[u8]) -> usize {
    let mut hash = text.len() as u64;
    for chunk in text.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = (hash ^ u64::from_le_bytes(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    (hash >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// The interned copy of `text`, interning it if the table has room;
/// `None` if `text` is too long or the table is full without it.
fn intern(text: &str) -> Option<&'static String> {
    if text.len() > INTERN_MAX_LEN {
        return None;
    }
    let slot = slot(text.as_bytes());
    let cached = CACHE.try_with(|cache| cache[slot].get()).ok().flatten();
    if let Some(key) = cached.filter(|key| key.as_str() == text) {
        return Some(key);
    }
    let found = TABLE.read().get(text).copied();
    let key = match found {
        Some(key) => key,
        None => {
            let mut table = TABLE.write();
            match table.get(text) {
                Some(key) => *key,
                None if table.len() < INTERN_MAX_KEYS => {
                    let key: &'static String = Box::leak(Box::new(text.to_owned()));
                    table.insert(key.as_str(), key);
                    INTERNED.store(table.len(), Ordering::Relaxed);
                    key
                }
                None => return None,
            }
        }
    };
    let _ = CACHE.try_with(|cache| cache[slot].set(Some(key)));
    Some(key)
}

/// A JSON object key: a `&'static String` from one bounded process-wide
/// intern table, or a boxed `String` of its own. It is 16 bytes, two
/// thirds of a `String`, dereferences to a `String`, and compares and
/// orders as its text, so which kind a key is never shows.
///
/// A key is interned when it is at most [`INTERN_MAX_LEN`] bytes long
/// and the table holds it or has room for it: at most
/// [`INTERN_MAX_KEYS`] keys, about 74 KB. Any other key is stored owned,
/// which is always correct and costs a box beside its text. Interned
/// keys live as long as the process, as string literals do; a
/// per-thread cache answers repeated keys without taking the table's
/// lock.
///
/// ```
/// use safeweb_json::Key;
///
/// let short = Key::from("patient_id");
/// assert!(short.is_interned());
/// assert_eq!(short, Key::from("patient_id".to_string()));
/// let long = Key::from("a key much longer than thirty-two bytes");
/// assert!(!long.is_interned());
/// assert!(long < short);
/// ```
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    Interned(&'static String),
    // Boxed, so a key is a pointer and a tag, like an interned one, and
    // still dereferences to a `String`; owned keys are the rare ones.
    #[allow(clippy::box_collection)]
    Owned(Box<String>),
}

impl Key {
    /// The key's text.
    pub fn as_str(&self) -> &str {
        self
    }

    /// Whether the key is the intern table's shared copy. Public as a
    /// test seam: the intern-cap tests check which keys were interned.
    pub fn is_interned(&self) -> bool {
        matches!(self.0, Repr::Interned(_))
    }

    /// The key's text as an owned `String`; allocates only for an
    /// interned key.
    pub fn into_string(self) -> String {
        match self.0 {
            Repr::Interned(key) => key.clone(),
            Repr::Owned(key) => *key,
        }
    }
}

impl Deref for Key {
    type Target = String;

    fn deref(&self) -> &String {
        match &self.0 {
            Repr::Interned(key) => key,
            Repr::Owned(key) => key,
        }
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        self
    }
}

impl From<&str> for Key {
    /// Interns `text`, or copies it when it cannot be interned.
    fn from(text: &str) -> Key {
        match intern(text) {
            Some(key) => Key(Repr::Interned(key)),
            None => Key(Repr::Owned(Box::new(text.to_owned()))),
        }
    }
}

impl From<String> for Key {
    /// Interns `text`, or keeps it as it is when it cannot be interned.
    fn from(text: String) -> Key {
        match intern(&text) {
            Some(key) => Key(Repr::Interned(key)),
            None => Key(Repr::Owned(Box::new(text))),
        }
    }
}

impl From<Cow<'_, str>> for Key {
    fn from(text: Cow<'_, str>) -> Key {
        match text {
            Cow::Borrowed(text) => Key::from(text),
            Cow::Owned(text) => Key::from(text),
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
    }

    #[test]
    fn equal_texts_intern_to_one_copy() {
        let (a, b) = (Key::from("interned-once"), Key::from("interned-once"));
        assert!(std::ptr::eq(&*a, &*b));
        // The table, not only this thread's cache, holds it.
        let other = std::thread::spawn(|| Key::from("interned-once"))
            .join()
            .unwrap();
        assert!(std::ptr::eq(&*a, &*other));
    }

    #[test]
    fn a_long_key_is_owned_and_still_equal_by_text() {
        let text = "k".repeat(INTERN_MAX_LEN + 1);
        let (a, b) = (Key::from(text.as_str()), Key::from(text.clone()));
        assert!(!a.is_interned() && !b.is_interned());
        assert_eq!(a, b);
        assert_eq!(a.into_string(), text);
        assert!(Key::from("k".repeat(INTERN_MAX_LEN)).is_interned());
    }

    /// Every slot index is in range, whatever the length.
    #[test]
    fn slots_stay_in_the_cache() {
        for len in 0..=INTERN_MAX_LEN {
            let text = "\u{7f}".repeat(len);
            assert!(slot(text.as_bytes()) < CACHE_SLOTS);
        }
    }
}
