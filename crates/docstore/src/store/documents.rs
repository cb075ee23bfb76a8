//! The live documents: one id-ordered map, and the reads over it.
//!
//! Invariant: `docs` holds exactly the documents whose newest write was a
//! put. Only [`super::Inner::apply`] changes it after open; recovery
//! fills it from a snapshot before the first write. Id-prefix reads are
//! range walks over the map, `O(log n + matches)`.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Bound;

use safeweb_json::Str;

use super::DocStore;
use crate::document::Document;

/// The live documents by id.
pub(super) type Docs = BTreeMap<Id, Document>;

/// A document id as the store's maps key it: a [`Str`], inline for every
/// id this system writes, so keying a document costs no allocation. It
/// is ordered and probed by its bytes (`map.get(id.as_bytes())`), which
/// order as the text does, so a lookup re-checks no UTF-8.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Id(pub(super) Str);

impl Borrow<[u8]> for Id {
    fn borrow(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// The documents whose id starts with `prefix`, in id order.
fn with_prefix<'a>(docs: &'a Docs, prefix: &'a str) -> impl Iterator<Item = &'a Document> {
    docs.range::<[u8], _>((Bound::Included(prefix.as_bytes()), Bound::Unbounded))
        .take_while(move |(id, _)| id.0.as_bytes().starts_with(prefix.as_bytes()))
        .map(|(_, doc)| doc)
}

impl DocStore {
    /// Fetches a document by id.
    pub fn get(&self, id: &str) -> Option<Document> {
        self.inner.read().docs.get(id.as_bytes()).cloned()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// Whether the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.inner.read().docs.is_empty()
    }

    /// All document ids in order.
    pub fn ids(&self) -> Vec<String> {
        self.inner
            .read()
            .docs
            .keys()
            .map(|id| id.0.as_str().to_owned())
            .collect()
    }

    /// Scans all documents with a predicate over bodies. `O(n)` — prefer
    /// [`DocStore::query_view`] or [`DocStore::scan_prefix`] on hot paths.
    pub fn scan(&self, mut predicate: impl FnMut(&Document) -> bool) -> Vec<Document> {
        self.inner
            .read()
            .docs
            .values()
            .filter(|d| predicate(d))
            .cloned()
            .collect()
    }

    /// All documents whose id starts with `prefix`, in id order: a range
    /// query over the ordered id map (`O(log n + matches)`), serving id
    /// families like `record-*` without walking the whole store.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<Document> {
        with_prefix(&self.inner.read().docs, prefix)
            .cloned()
            .collect()
    }

    /// Counts documents whose id starts with `prefix` without cloning them.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        with_prefix(&self.inner.read().docs, prefix).count()
    }

    /// An atomic snapshot of the store: the sequence number and every live
    /// document, taken under one read lock. Full replication resyncs use
    /// this so the checkpoint they install is consistent with the
    /// documents they copied.
    pub fn snapshot(&self) -> (u64, Vec<Document>) {
        let inner = self.inner.read();
        (inner.feed.seq, inner.docs.values().cloned().collect())
    }
}
