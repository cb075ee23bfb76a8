//! Labelled JSON values: the frontend fetches documents from the
//! application database and SafeWeb "transparently adds the labels produced
//! by units in the backend to the data fetched" (§4.4 step 2). [`SValue`]
//! is that fetched-and-labelled document.

use safeweb_json::Value;
use safeweb_labels::{Label, LabelSet, PrivilegeSet};

use crate::sstr::{check_labels, ReleaseError, SStr};

/// A JSON value carrying a label set (document granularity — a whole
/// record from the application database shares one label set, matching how
/// the storage unit labels whole result documents).
///
/// `B` is whatever holds the JSON tree: an owned [`Value`] (the default),
/// a borrowed node (`&Value`, what [`SValue::get`] yields), or a shared
/// handle such as the document store's `Document` — wrapping one of those
/// labels the store's own allocation instead of a copy of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SValue<B = Value> {
    value: B,
    labels: LabelSet,
}

impl<B: AsRef<Value>> SValue<B> {
    /// A public (unlabelled) value.
    pub fn public(value: B) -> SValue<B> {
        SValue::with_label_set(value, LabelSet::new())
    }

    /// A labelled value.
    pub fn labelled(value: B, labels: impl IntoIterator<Item = Label>) -> SValue<B> {
        SValue::with_label_set(value, labels.into_iter().collect())
    }

    /// A value with an existing label set.
    pub fn with_label_set(value: B, labels: LabelSet) -> SValue<B> {
        SValue { value, labels }
    }

    /// The raw JSON (inspection, not release).
    pub fn value(&self) -> &Value {
        self.value.as_ref()
    }

    /// The labels attached.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    fn node<'a>(&self, node: &'a Value) -> SValue<&'a Value> {
        SValue::with_label_set(node, self.labels)
    }

    /// Member access on objects; the field is borrowed and inherits the
    /// document's labels.
    pub fn get(&self, key: &str) -> Option<SValue<&Value>> {
        self.value().get(key).map(|v| self.node(v))
    }

    /// Element access on arrays; the element is borrowed and inherits the
    /// labels.
    pub fn at(&self, index: usize) -> Option<SValue<&Value>> {
        self.value().at(index).map(|v| self.node(v))
    }

    /// Serialises to compact JSON **as a labelled string** — the paper's
    /// Listing 2 `r.to_json` whose taint made the omitted-check bug
    /// harmless.
    pub fn to_json_sstr(&self) -> SStr {
        SStr::with_label_set(self.value().to_json(), self.labels)
    }

    /// Appends the compact JSON ([`SValue::to_json_sstr`]'s bytes and
    /// labels) to a labelled buffer, by reference.
    pub fn write_json(&self, out: &mut SStr) {
        self.value().write_json(out.append_labelled(&self.labels));
    }

    /// Boundary check on the serialised form: labels first, so a denied
    /// value is never serialised.
    ///
    /// # Errors
    ///
    /// Returns [`ReleaseError`] naming the blocking labels.
    pub fn check_release(&self, privileges: &PrivilegeSet) -> Result<String, ReleaseError> {
        check_labels(&self.labels, privileges)?;
        Ok(self.value().to_json())
    }
}

impl From<Value> for SValue {
    fn from(v: Value) -> SValue {
        SValue::public(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_json::jobject;
    use safeweb_labels::Privilege;

    fn patient() -> Label {
        Label::conf("e", "patient/1")
    }

    #[test]
    fn fields_inherit_document_labels() {
        let doc = SValue::labelled(jobject! {"name" => "A. Patient", "age" => 61}, [patient()]);
        let name = doc.get("name").unwrap();
        assert_eq!(name.value().as_str(), Some("A. Patient"));
        assert_eq!(name.labels(), doc.labels());
        let age = doc.get("age").unwrap().to_json_sstr();
        assert_eq!(age.as_str(), "61");
        assert!(age.labels().contains(&patient()));
    }

    #[test]
    fn to_json_sstr_is_labelled() {
        let doc = SValue::labelled(jobject! {"x" => 1}, [patient()]);
        let json = doc.to_json_sstr();
        assert_eq!(json.as_str(), r#"{"x":1}"#);
        assert!(json.labels().contains(&patient()));
        assert!(json.check_release(&PrivilegeSet::new()).is_err());
    }

    #[test]
    fn release_with_clearance() {
        let doc = SValue::labelled(jobject! {"x" => 1}, [patient()]);
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(patient()));
        assert_eq!(doc.check_release(&privs).unwrap(), r#"{"x":1}"#);
    }

    #[test]
    fn array_access() {
        let doc = SValue::labelled(
            safeweb_json::Value::from(vec![jobject! {"id" => 1}, jobject! {"id" => 2}]),
            [patient()],
        );
        assert!(doc.at(2).is_none());
        let first = doc.at(0).unwrap();
        assert!(first.labels().contains(&patient()));
        let id = first.get("id").unwrap().to_json_sstr();
        assert_eq!(id.as_str(), "1");
        assert!(id.labels().contains(&patient()));
    }
}
