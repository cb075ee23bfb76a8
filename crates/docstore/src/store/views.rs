//! By-field views, CouchRest's `by_<field>` idiom: for each view, an
//! index from a field value to the ids of the documents holding it.
//!
//! Invariant: every view's index files each live document under its
//! field's [`index_key`], and nothing else. [`View::reindex`] is the one
//! place an index changes: [`super::Inner::apply`] calls it for every
//! view on every write, and [`DocStore::create_view`] builds a new index
//! through it.

use std::collections::{BTreeMap, BTreeSet};

use safeweb_json::Value;

use super::documents::Id;
use super::{DocStore, StoreError};
use crate::document::Document;

/// A registered view: the indexed body field plus the index itself.
#[derive(Debug)]
struct View {
    field: String,
    index: BTreeMap<String, BTreeSet<Id>>,
}

/// Every view of one store, by name.
#[derive(Debug, Default)]
pub(super) struct Views(BTreeMap<String, View>);

/// The index key for a field value, or `None` when the value cannot be
/// indexed faithfully. Keys are equal exactly when the values are equal
/// under `Value`'s equality:
///
/// * `Int(1)` and `Float(1.0)` are distinct buckets (a type tag leads
///   every key);
/// * `-0.0` and `0.0` share one bucket, as f64 equality demands;
/// * non-finite floats, alone or inside an array or object, are never
///   indexed and never matched: `NaN` does not even equal itself.
///
/// Keys live only in memory (views are rebuilt on recovery), so the
/// encoding can change without a WAL migration.
fn index_key(value: &Value) -> Option<String> {
    fn finite(value: &Value) -> bool {
        match value {
            Value::Float(f) => f.is_finite(),
            Value::Array(items) => items.iter().all(finite),
            Value::Object(map) => map.values().all(finite),
            _ => true,
        }
    }
    if !finite(value) {
        return None;
    }
    Some(match value {
        Value::Null => "z".to_string(),
        Value::Bool(b) => format!("b{}", u8::from(*b)),
        Value::Int(i) => format!("i{i}"),
        // `-0.0 == 0.0`, so both take `0.0`'s bits.
        Value::Float(f) => format!("f{:x}", if *f == 0.0 { 0 } else { f.to_bits() }),
        Value::Str(s) => format!("s{s}"),
        Value::Array(_) | Value::Object(_) => format!("j{}", value.to_json()),
    })
}

impl View {
    /// Moves `old`'s id to `new`'s bucket as a document changes from
    /// `old` to `new` (`None` = absent before / deleted after). The
    /// common update leaves the indexed field alone and touches nothing.
    fn reindex(&mut self, old: Option<&Document>, new: Option<&Document>) {
        let old_value = old.and_then(|d| d.body().get(&self.field));
        let new_value = new.and_then(|d| d.body().get(&self.field));
        if old_value == new_value {
            return;
        }
        if let Some((doc, key)) = old.zip(old_value.and_then(index_key)) {
            if let Some(ids) = self.index.get_mut(&key) {
                ids.remove(doc.id_str().as_bytes());
                if ids.is_empty() {
                    self.index.remove(&key);
                }
            }
        }
        if let Some((doc, key)) = new.zip(new_value.and_then(index_key)) {
            self.index
                .entry(key)
                .or_default()
                .insert(Id(doc.id_str().clone()));
        }
    }
}

impl Views {
    /// Keeps every view in step with one document changing from `old` to
    /// `new` (see [`View::reindex`]).
    pub(super) fn reindex(&mut self, old: Option<&Document>, new: Option<&Document>) {
        for view in self.0.values_mut() {
            view.reindex(old, new);
        }
    }
}

impl DocStore {
    /// Registers a view indexing `field` of document bodies, CouchRest's
    /// `by_<field>` idiom (the paper's Listing 2 uses `Records.by_mid`).
    ///
    /// The index over the documents already stored is built immediately;
    /// every later [`DocStore::put`] / [`DocStore::delete`] / replication
    /// write maintains it incrementally (including moving a document
    /// between buckets when the indexed field's value changes).
    pub fn create_view(&self, view: &str, field: &str) {
        let mut inner = self.inner.write();
        let mut v = View {
            field: field.to_string(),
            index: BTreeMap::new(),
        };
        for doc in inner.docs.values() {
            v.reindex(None, Some(doc));
        }
        inner.views.0.insert(view.to_string(), v);
    }

    /// Queries a view: documents whose indexed field equals `key`, in id
    /// order. An index lookup — `O(log buckets + matches)`, independent of
    /// store size.
    ///
    /// Keys containing non-finite floats never match anything (JSON
    /// cannot represent them, and `NaN` does not equal itself).
    ///
    /// The view name selects query *structure*, so it is secure by
    /// construction: a compile-time literal, taint-checked string or
    /// audited declassify (see [`safeweb_safeq::TrustedLiteral`]). The
    /// key stays plain data — it is matched structurally against the
    /// index, so user input is safe there.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownView`] if the view was never created.
    pub fn query_view(
        &self,
        view: impl Into<safeweb_safeq::TrustedLiteral>,
        key: &Value,
    ) -> Result<Vec<Document>, StoreError> {
        let name = view.into();
        let inner = self.inner.read();
        let view = inner
            .views
            .0
            .get(name.as_str())
            .ok_or_else(|| StoreError::UnknownView(name.as_str().to_string()))?;
        let Some(ids) = index_key(key).and_then(|k| view.index.get(&k)) else {
            return Ok(Vec::new());
        };
        Ok(ids
            .iter()
            .map(|id| inner.docs.get(id).expect("view index in sync").clone())
            .collect())
    }
}
