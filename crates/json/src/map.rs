//! The JSON object: its members in one key-sorted, exact-size slice.
//!
//! A `BTreeMap<String, Value>` node per object was the cost this type
//! removes. A 12-member case record needed three B-tree nodes (about
//! 1.9 KB) beside its key and value strings, and every stored body, every
//! replica copy and every parse of a case built such a tree. A [`Map`]
//! is one `Box<[(Key, Value)]>`: a parsed object is one allocation of
//! exactly its members (40 bytes each), cloning it is one more, and
//! iteration is a walk over contiguous memory. Its keys are [`Key`]s,
//! interned, so neither a parse nor a clone allocates per key.
//!
//! The slice has no spare capacity, and the `Map` is 16 bytes, not a
//! `Vec`'s 24: an insert of a new key or a remove reallocates it once,
//! to its new exact size. Stored objects are built whole — parsed, or
//! collected — and rarely edited, so that is the cheap side to pay on.
//!
//! Members stay sorted by key, so encoding in key order, equality that
//! ignores the order members were written in, and byte-identical
//! re-serialisation all hold as they did for the B-tree.

use std::fmt;
use std::slice;
use std::vec;

use crate::key::Key;
use crate::value::Value;

/// Objects with at most this many members are searched by a linear scan
/// for an equal key; larger ones by binary search. String equality
/// rejects on length before it compares bytes, while every probe of a
/// binary search compares bytes, so the scan wins on the small objects
/// this system stores. Measured on a 2-vCPU Xeon: `Value::get` of a
/// 12-member case record's keys takes 12 ns a hit by scan, 55 ns by
/// binary search, and 19–21 ns in the `BTreeMap` this type replaced.
/// With keys all of one length, the scan's worst case, the two searches
/// meet near 32 members; with keys of mixed lengths the scan still wins
/// at 128.
const LINEAR_MAX: usize = 32;

/// A JSON object: members sorted by key, each key once.
///
/// ```
/// use safeweb_json::{Map, Value};
///
/// let mut m = Map::new();
/// m.insert("b".to_string(), Value::Int(2));
/// m.insert("a".to_string(), Value::Int(1));
/// assert_eq!(m.keys().collect::<Vec<_>>(), ["a", "b"]);
/// assert_eq!(m.get("b"), Some(&Value::Int(2)));
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    members: Box<[(Key, Value)]>,
}

impl Map {
    /// An empty object; allocates nothing.
    pub fn new() -> Map {
        Map::default()
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the object has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The index of `key`'s member, if present.
    fn index_of(&self, key: &str) -> Option<usize> {
        if self.members.len() <= LINEAR_MAX {
            self.members.iter().position(|(k, _)| k.as_str() == key)
        } else {
            self.members
                .binary_search_by(|(k, _)| k.as_str().cmp(key))
                .ok()
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.index_of(key).map(|i| &self.members[i].1)
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.index_of(key).map(|i| &mut self.members[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaces, in place.
    /// A new key is interned (see [`Key`]) and inserted at its sorted
    /// position, reallocating the members once, to one more.
    pub fn insert(&mut self, key: impl Into<Key> + AsRef<str>, value: Value) -> Option<Value> {
        match self.index_of(key.as_ref()) {
            Some(i) => Some(std::mem::replace(&mut self.members[i].1, value)),
            None => {
                let key = key.into();
                let at = self.members.partition_point(|(k, _)| *k < key);
                let mut members = std::mem::take(&mut self.members).into_vec();
                members.reserve_exact(1);
                members.insert(at, (key, value));
                self.members = members.into_boxed_slice();
                None
            }
        }
    }

    /// Removes `key`'s member, returning its value; reallocates the
    /// members once, to one fewer.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.index_of(key)?;
        let mut members = std::mem::take(&mut self.members).into_vec();
        let (_, value) = members.remove(i);
        self.members = members.into_boxed_slice();
        Some(value)
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.members.iter())
    }

    /// The members in key order, by value, each key as it is held: unlike
    /// `into_iter`, this copies no interned key into a `String`.
    pub fn into_members(self) -> impl ExactSizeIterator<Item = (Key, Value)> {
        self.members.into_vec().into_iter()
    }

    /// The keys in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &String> {
        self.members.iter().map(|(k, _)| &**k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.members.iter().map(|(_, v)| v)
    }

    /// Takes members in the order they were written and makes a `Map` of
    /// them: sorted by key, and for a key written more than once its last
    /// value, as successive inserts would leave it. Members already in
    /// strictly ascending key order — what this crate's encoder writes —
    /// are taken as they are. The result holds exactly its members.
    pub(crate) fn from_members(mut members: Vec<(Key, Value)>) -> Map {
        if !members.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so a key's duplicates stay in the order written.
            members.sort_by(|a, b| a.0.cmp(&b.0));
            // `dedup_by` keeps the earlier of two equal neighbours; swap
            // the later one's value into it first.
            members.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        Map {
            members: members.into_boxed_slice(),
        }
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Key>> FromIterator<(K, Value)> for Map {
    /// Members in any order, a key possibly more than once: the last
    /// value written for a key wins.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Map {
        Map::from_members(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = IntoIter;

    /// The members in key order, by value.
    fn into_iter(self) -> IntoIter {
        IntoIter(self.members.into_vec().into_iter())
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The members of a [`Map`] in key order ([`Map::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a>(slice::Iter<'a, (Key, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a String, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (&**k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The members of a [`Map`] in key order, by value (`Map::into_iter`);
/// an interned key is copied into a `String` of its own.
#[derive(Debug)]
pub struct IntoIter(vec::IntoIter<(Key, Value)>);

impl Iterator for IntoIter {
    type Item = (String, Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.into_string(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for IntoIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_members_sorts_and_keeps_the_last_duplicate() {
        let written = [("b", 1), ("a", 2), ("b", 3), ("a", 4)];
        let m = Map::from_members(
            written
                .iter()
                .map(|(k, v)| (Key::from(*k), Value::Int(*v)))
                .collect(),
        );
        assert_eq!(format!("{m:?}"), r#"{"a": Int(4), "b": Int(3)}"#);
    }

    /// Past `LINEAR_MAX` members lookups binary-search; both paths agree.
    #[test]
    fn large_objects_are_searched_by_bisection() {
        let n = LINEAR_MAX as i64 * 3;
        let m: Map = (0..n)
            .rev()
            .map(|i| (format!("k{i:03}"), Value::Int(i)))
            .collect();
        assert!(m.len() > LINEAR_MAX);
        for i in 0..n {
            assert_eq!(m.get(&format!("k{i:03}")), Some(&Value::Int(i)));
        }
        assert_eq!(m.get("k"), None);
        assert_eq!(m.get("k999"), None);
    }
}
