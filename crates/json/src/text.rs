//! String values: short ones inline, longer ones in one exact-size box.
//!
//! Every string value in a stored case record is at most 16 bytes, and a
//! `String` each made them, with the keys, nearly all of a parsed
//! record's allocations. A [`Str`] keeps up to [`INLINE_MAX`] bytes in
//! place and boxes longer text at its exact length. It is 24 bytes, the
//! size of the `String` it replaces, and its tag byte has values to
//! spare: a [`Value`](crate::Value) keeps its own tag there and is 24
//! bytes as well.
//!
//! Inline bytes are only ever copied from a `&str`, and reading them back
//! as text re-checks them with `std::str::from_utf8`: the crate forbids
//! `unsafe`. Comparisons, ordering and [`Str::as_bytes`] work on the bytes
//! and skip that check. The accessors are `#[inline]`: the document
//! store keys its maps by `Str`, and a cross-crate call per comparison
//! made a 10 000-id `BTreeMap` probe about 35 % slower than one keyed by
//! `String`; inlined, they take the same time.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest text a [`Str`] stores inline, in bytes.
pub const INLINE_MAX: usize = 22;

/// A JSON string value: inline up to [`INLINE_MAX`] bytes, boxed above.
/// It dereferences to `str`, and compares, orders and hashes as a
/// `String` of the same text would.
///
/// ```
/// use safeweb_json::Str;
///
/// let short = Str::from("lung");
/// assert!(short.is_inline());
/// assert_eq!(short, "lung");
/// let long = Str::from("twenty-three bytes long");
/// assert!(!long.is_inline());
/// assert!(short < long);
/// ```
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_MAX] },
    Heap(Box<str>),
}

impl Str {
    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("inline bytes are copied from a str"),
            Repr::Heap(text) => text,
        }
    }

    /// The text's UTF-8 bytes, without re-checking them.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// Whether the text is stored inline.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Inline storage for `text`, if it fits.
    fn inline(text: &str) -> Option<Str> {
        let len = text.len();
        (len <= INLINE_MAX).then(|| {
            let mut bytes = [0; INLINE_MAX];
            bytes[..len].copy_from_slice(text.as_bytes());
            Str(Repr::Inline {
                len: len as u8,
                bytes,
            })
        })
    }
}

impl Default for Str {
    /// The empty string; allocates nothing.
    fn default() -> Str {
        Str::from("")
    }
}

impl Deref for Str {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    /// Copies `text`: inline, or into one box of exactly its length.
    fn from(text: &str) -> Str {
        Str::inline(text).unwrap_or_else(|| Str(Repr::Heap(text.into())))
    }
}

impl From<String> for Str {
    /// Inline if `text` fits, dropping its buffer; otherwise its buffer,
    /// shrunk to its length.
    fn from(text: String) -> Str {
        Str::inline(&text).unwrap_or_else(|| Str(Repr::Heap(text.into_boxed_str())))
    }
}

impl From<Cow<'_, str>> for Str {
    fn from(text: Cow<'_, str>) -> Str {
        match text {
            Cow::Borrowed(text) => Str::from(text),
            Cow::Owned(text) => Str::from(text),
        }
    }
}

impl From<Str> for String {
    fn from(text: Str) -> String {
        match text.0 {
            Repr::Heap(text) => text.into_string(),
            Repr::Inline { .. } => text.as_str().to_owned(),
        }
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

impl PartialEq<str> for Str {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Str {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for Str {
    #[inline]
    fn partial_cmp(&self, other: &Str) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is `str`'s order.
impl Ord for Str {
    #[inline]
    fn cmp(&self, other: &Str) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// As `str` hashes, so a `Str` and a `String` of one text hash alike.
impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_str_is_as_small_as_a_string() {
        assert_eq!(std::mem::size_of::<Str>(), std::mem::size_of::<String>());
    }

    #[test]
    fn text_at_the_boundary_is_inline_and_one_byte_more_is_boxed() {
        let at = "x".repeat(INLINE_MAX);
        let over = "x".repeat(INLINE_MAX + 1);
        assert!(Str::from(at.as_str()).is_inline());
        assert!(!Str::from(over.as_str()).is_inline());
        assert!(!Str::from(over.clone()).is_inline());
        assert_eq!(String::from(Str::from(over.clone())), over);
        assert_eq!(Str::default().as_str(), "");
    }
}
