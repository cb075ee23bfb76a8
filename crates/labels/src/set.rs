//! Sets of security labels with the composition semantics of §4.1.
//!
//! When data is derived from several labelled inputs, the resulting label set
//! must preserve every flow restriction of the originals: confidentiality
//! labels are combined by **union** (sticky) while integrity labels are
//! combined by **intersection** (fragile).
//!
//! Since the interning redesign (ROADMAP item 1) a [`LabelSet`] is a `Copy`
//! handle onto a global hash-cons table: copying one
//! is a pointer copy, equality is one integer compare, and every lattice
//! operation returns another interned handle. "Mutating" methods such as
//! [`LabelSet::insert`] keep their historical signatures but re-intern and
//! re-point the handle rather than editing shared state.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::ParseLabelError;
use crate::intern::{self, LabelSetId, SetRepr};
use crate::label::{Label, LabelKind};
use crate::privilege::PrivilegeSet;

/// An immutable, interned, ordered set of [`Label`]s.
///
/// Equality and hashing are by [`LabelSetId`] — one integer — which the
/// hash-cons table guarantees coincides with content equality. Ordering is
/// content-wise (lexicographic over the sorted labels) so sort orders stay
/// deterministic across processes.
///
/// ```
/// use safeweb_labels::{Label, LabelSet};
///
/// let patient = Label::conf("ecric.org.uk", "patient/1");
/// let mdt = Label::conf("ecric.org.uk", "mdt/addenbrookes");
/// let set = LabelSet::from_iter([patient.clone(), mdt.clone()]);
/// assert!(set.contains(&patient));
/// assert_eq!(set.len(), 2);
/// // Structurally equal sets share one identity.
/// assert_eq!(set.id(), LabelSet::from_iter([mdt, patient]).id());
/// ```
#[derive(Clone, Copy)]
pub struct LabelSet {
    repr: &'static SetRepr,
}

impl LabelSet {
    /// Creates an empty label set (public data).
    pub fn new() -> LabelSet {
        LabelSet {
            repr: intern::intern_sorted_labels(Vec::new()),
        }
    }

    /// Creates a set containing a single label.
    pub fn singleton(label: Label) -> LabelSet {
        LabelSet {
            repr: intern::intern_sorted_labels(vec![label]),
        }
    }

    /// Interns an arbitrary (possibly unsorted, possibly duplicated) list.
    fn from_vec(mut labels: Vec<Label>) -> LabelSet {
        labels.sort();
        labels.dedup();
        LabelSet {
            repr: intern::intern_sorted_labels(labels),
        }
    }

    /// The interned identity of this set. Equal ids ⇔ equal sets; ids are
    /// process-local and never appear on the wire.
    pub fn id(&self) -> LabelSetId {
        self.repr.id
    }

    /// Number of distinct label sets interned in this process — the
    /// hash-cons table only grows with *novel* sets, so steady-state
    /// workloads stop growing it (asserted by tests and the labels bench).
    pub fn interned_count() -> usize {
        intern::interned_set_count()
    }

    /// Whether the set contains no labels at all.
    pub fn is_empty(&self) -> bool {
        self.repr.labels.is_empty()
    }

    /// The number of labels in the set.
    pub fn len(&self) -> usize {
        self.repr.labels.len()
    }

    /// Whether `label` is a member of this set.
    pub fn contains(&self, label: &Label) -> bool {
        self.repr.labels.binary_search(label).is_ok()
    }

    /// Adds a label, re-pointing this handle at the interned result.
    /// Returns `true` if it was newly inserted.
    ///
    /// No privilege check: the relabel rule ([`Relabel::apply`]) decides
    /// which labels a principal may add.
    ///
    /// [`Relabel::apply`]: crate::Relabel::apply
    pub fn insert(&mut self, label: Label) -> bool {
        match self.repr.labels.binary_search(&label) {
            Ok(_) => false,
            Err(pos) => {
                let mut labels = self.repr.labels.to_vec();
                labels.insert(pos, label);
                self.repr = intern::intern_sorted_labels(labels);
                true
            }
        }
    }

    /// Removes a label without any privilege check.
    ///
    /// The relabel rule ([`Relabel::apply`]) decides which labels a
    /// principal may remove.
    ///
    /// [`Relabel::apply`]: crate::Relabel::apply
    pub fn remove_unchecked(&mut self, label: &Label) -> bool {
        match self.repr.labels.binary_search(label) {
            Err(_) => false,
            Ok(pos) => {
                let mut labels = self.repr.labels.to_vec();
                labels.remove(pos);
                self.repr = intern::intern_sorted_labels(labels);
                true
            }
        }
    }

    /// Iterates over the labels in deterministic (sorted) order.
    pub fn iter(&self) -> std::slice::Iter<'static, Label> {
        self.repr.labels.iter()
    }

    /// Returns the interned projection onto the confidentiality labels.
    ///
    /// Computed once when the set is first interned; calling this is a
    /// pointer read, never an allocation.
    pub fn confidentiality(&self) -> LabelSet {
        LabelSet {
            repr: intern::projection(self.repr, LabelKind::Confidentiality),
        }
    }

    /// Returns the interned projection onto the integrity labels.
    ///
    /// Computed once when the set is first interned; calling this is a
    /// pointer read, never an allocation.
    pub fn integrity(&self) -> LabelSet {
        LabelSet {
            repr: intern::projection(self.repr, LabelKind::Integrity),
        }
    }

    /// Set union, irrespective of label kind.
    pub fn union(&self, other: &LabelSet) -> LabelSet {
        if self.id() == other.id() || other.is_empty() {
            return *self;
        }
        if self.is_empty() {
            return *other;
        }
        if other.is_subset(self) {
            return *self;
        }
        if self.is_subset(other) {
            return *other;
        }
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => merged.push(a.next().unwrap().clone()),
                    Ordering::Greater => merged.push(b.next().unwrap().clone()),
                    Ordering::Equal => {
                        merged.push(a.next().unwrap().clone());
                        b.next();
                    }
                },
                (Some(_), None) => merged.push(a.next().unwrap().clone()),
                (None, Some(_)) => merged.push(b.next().unwrap().clone()),
                (None, None) => break,
            }
        }
        LabelSet {
            repr: intern::intern_sorted_labels(merged),
        }
    }

    /// Set intersection, irrespective of label kind.
    pub fn intersection(&self, other: &LabelSet) -> LabelSet {
        if self.id() == other.id() {
            return *self;
        }
        if self.is_empty() || other.is_empty() {
            return LabelSet::new();
        }
        if self.is_subset(other) {
            return *self;
        }
        if other.is_subset(self) {
            return *other;
        }
        let common: Vec<Label> = self.iter().filter(|l| other.contains(l)).cloned().collect();
        LabelSet {
            repr: intern::intern_sorted_labels(common),
        }
    }

    /// Whether every label in `self` is also in `other`.
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        if self.id() == other.id() || self.is_empty() {
            return true;
        }
        if self.len() > other.len() {
            return false;
        }
        let mut candidates = other.iter();
        'outer: for needle in self.iter() {
            for candidate in candidates.by_ref() {
                match candidate.cmp(needle) {
                    Ordering::Less => continue,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Combines the labels of two inputs into the label set of data derived
    /// from both, per §4.1: confidentiality is sticky (union), integrity is
    /// fragile (intersection).
    ///
    /// ```
    /// use safeweb_labels::{Label, LabelSet};
    ///
    /// let a = LabelSet::from_iter([Label::conf("e", "p/1"), Label::int("e", "ok")]);
    /// let b = LabelSet::from_iter([Label::conf("e", "p/2"), Label::int("e", "ok")]);
    /// let c = a.combine(&b);
    /// assert_eq!(c.confidentiality().len(), 2); // union
    /// assert_eq!(c.integrity().len(), 1);       // intersection
    /// ```
    pub fn combine(&self, other: &LabelSet) -> LabelSet {
        if self.id() == other.id() {
            return *self;
        }
        let conf = self.confidentiality().union(&other.confidentiality());
        let int = self.integrity().intersection(&other.integrity());
        conf.union(&int)
    }

    /// Whether data with this label set may flow to a principal holding
    /// `privileges`: every confidentiality label must be covered by a
    /// clearance privilege.
    ///
    /// Integrity labels never *block* a flow (they vouch for data rather than
    /// restrict it), so they are ignored here; consumers that require a given
    /// integrity label should check [`LabelSet::contains`] explicitly.
    ///
    /// The fast path is one counter check plus one memo lookup on
    /// `(LabelSetId, PrivilegeSetId)` — no allocation. Verdicts are memoised
    /// forever because both operands are interned and immutable.
    pub fn flows_to(&self, privileges: &PrivilegeSet) -> bool {
        if self.repr.conf_count == 0 {
            return true;
        }
        let key = (self.id(), privileges.id());
        if let Some(verdict) = intern::flows_memo_get(key.0, key.1) {
            return verdict;
        }
        let verdict = self
            .iter()
            .filter(|l| l.is_confidentiality())
            .all(|l| privileges.has_clearance(l));
        intern::flows_memo_put(key.0, key.1, verdict);
        verdict
    }

    /// The confidentiality labels in `self` that `privileges` does **not**
    /// have clearance for — the non-allocating variant of
    /// [`LabelSet::blocking_labels`]. Yields labels in sorted order; empty
    /// when the flow is permitted.
    pub fn blocking<'a>(
        &self,
        privileges: &'a PrivilegeSet,
    ) -> impl Iterator<Item = &'static Label> + 'a {
        self.repr
            .labels
            .iter()
            .filter(move |l| l.is_confidentiality() && !privileges.has_clearance(l))
    }

    /// The confidentiality labels in `self` that `privileges` does **not**
    /// have clearance for — i.e. the reason a [`LabelSet::flows_to`] check
    /// fails. Empty when the flow is permitted.
    pub fn blocking_labels(&self, privileges: &PrivilegeSet) -> Vec<Label> {
        self.blocking(privileges).cloned().collect()
    }

    /// Encodes the set as a comma-separated list of label URIs in sorted
    /// order; the wire format used in STOMP headers and database documents.
    /// Returns an empty string for the empty set.
    pub fn to_wire(&self) -> String {
        let parts: Vec<String> = self.iter().map(|l| l.to_string()).collect();
        parts.join(",")
    }

    /// Decodes a comma-separated list of label URIs, ignoring surrounding
    /// whitespace around each element. The empty string decodes to the empty
    /// set.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLabelError`] if any element is not a valid label URI.
    pub fn from_wire(s: &str) -> Result<LabelSet, ParseLabelError> {
        Ok(LabelSet::from_vec(LabelSet::parse_wire(s)?))
    }

    /// The labels of a wire list, read as [`LabelSet::from_wire`] reads
    /// it, in list order and interned nowhere: input from an untrusted
    /// peer is held to the relabel rule ([`check_relabel`]) on these
    /// before it may take intern-table space ([`LabelSet::intern_within`]).
    ///
    /// # Errors
    ///
    /// Returns [`ParseLabelError`] if any element is not a valid label URI.
    ///
    /// [`check_relabel`]: crate::check_relabel
    pub fn parse_wire(s: &str) -> Result<Vec<Label>, ParseLabelError> {
        s.split(',')
            .map(str::trim)
            .filter(|part| !part.is_empty())
            .map(str::parse)
            .collect()
    }

    /// The set of `labels` for input from an untrusted peer: `None`
    /// refuses a set this process has not interned yet once the intern
    /// table is within three sets of `cap` (the set and its two kind
    /// projections). A known set always resolves, so a full table costs an
    /// honest peer nothing, and a peer cycling label URIs cannot take the
    /// table past `cap`. Also returns the number of intern-table entries
    /// the call added (0 for a known set, up to 3 for a novel one), so a
    /// caller can budget the table space a peer spends.
    pub fn intern_within(mut labels: Vec<Label>, cap: usize) -> Option<(LabelSet, usize)> {
        labels.sort();
        labels.dedup();
        intern::intern_within(labels, cap).map(|(repr, added)| (LabelSet { repr }, added))
    }
}

impl Default for LabelSet {
    fn default() -> LabelSet {
        LabelSet::new()
    }
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &LabelSet) -> bool {
        self.repr.id == other.repr.id
    }
}

impl Eq for LabelSet {}

impl Hash for LabelSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.repr.id.hash(state);
    }
}

impl PartialOrd for LabelSet {
    fn partial_cmp(&self, other: &LabelSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LabelSet {
    fn cmp(&self, other: &LabelSet) -> Ordering {
        if self.repr.id == other.repr.id {
            return Ordering::Equal;
        }
        self.repr.labels.cmp(&other.repr.labels)
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LabelSet({} {{{}}})", self.id(), self.to_wire())
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> LabelSet {
        LabelSet::from_vec(iter.into_iter().collect())
    }
}

impl Extend<Label> for LabelSet {
    fn extend<I: IntoIterator<Item = Label>>(&mut self, iter: I) {
        let novel: Vec<Label> = iter.into_iter().filter(|l| !self.contains(l)).collect();
        if novel.is_empty() {
            return;
        }
        let mut labels = self.repr.labels.to_vec();
        labels.extend(novel);
        *self = LabelSet::from_vec(labels);
    }
}

impl<'a> IntoIterator for &'a LabelSet {
    type Item = &'a Label;
    type IntoIter = std::slice::Iter<'a, Label>;

    fn into_iter(self) -> Self::IntoIter {
        self.repr.labels.iter()
    }
}

impl IntoIterator for LabelSet {
    type Item = Label;
    type IntoIter = std::iter::Cloned<std::slice::Iter<'static, Label>>;

    fn into_iter(self) -> Self::IntoIter {
        self.repr.labels.iter().cloned()
    }
}

impl fmt::Display for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.to_wire())
    }
}

impl FromStr for LabelSet {
    type Err = ParseLabelError;

    fn from_str(s: &str) -> Result<LabelSet, ParseLabelError> {
        LabelSet::from_wire(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::Privilege;

    fn conf(p: &str) -> Label {
        Label::conf("ecric.org.uk", p)
    }

    fn int(p: &str) -> Label {
        Label::int("ecric.org.uk", p)
    }

    #[test]
    fn combine_is_sticky_for_confidentiality() {
        let a = LabelSet::singleton(conf("patient/1"));
        let b = LabelSet::singleton(conf("patient/2"));
        let c = a.combine(&b);
        assert!(c.contains(&conf("patient/1")));
        assert!(c.contains(&conf("patient/2")));
    }

    #[test]
    fn combine_is_fragile_for_integrity() {
        let a = LabelSet::from_iter([int("mdt"), int("lab")]);
        let b = LabelSet::from_iter([int("mdt")]);
        let c = a.combine(&b);
        assert!(c.contains(&int("mdt")));
        assert!(!c.contains(&int("lab")));
    }

    #[test]
    fn empty_set_flows_anywhere() {
        assert!(LabelSet::new().flows_to(&PrivilegeSet::new()));
    }

    #[test]
    fn flow_requires_clearance_for_all_conf_labels() {
        let set = LabelSet::from_iter([conf("patient/1"), conf("patient/2")]);
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(conf("patient/1")));
        assert!(!set.flows_to(&privs));
        assert_eq!(set.blocking_labels(&privs), vec![conf("patient/2")]);
        privs.grant(Privilege::clearance(conf("patient/2")));
        assert!(set.flows_to(&privs));
        assert!(set.blocking_labels(&privs).is_empty());
    }

    #[test]
    fn integrity_labels_do_not_block_flow() {
        let set = LabelSet::singleton(int("mdt"));
        assert!(set.flows_to(&PrivilegeSet::new()));
    }

    #[test]
    fn wire_roundtrip() {
        let set = LabelSet::from_iter([conf("patient/1"), int("mdt"), conf("mdt/a")]);
        let wire = set.to_wire();
        let back = LabelSet::from_wire(&wire).unwrap();
        assert_eq!(set, back);
        assert_eq!(set.id(), back.id());
    }

    /// The capped intern refuses only novel sets, and only near its cap;
    /// the parse still reports malformed input as an error.
    #[test]
    fn capped_wire_decode_refuses_only_novel_sets() {
        let within =
            |wire: &str, cap| LabelSet::intern_within(LabelSet::parse_wire(wire).unwrap(), cap);
        let known = LabelSet::from_iter([conf("patient/1"), int("mdt")]);
        assert_eq!(within(&known.to_wire(), 0), Some((known, 0)));
        let novel = "label:conf:e/capped-wire-decode/1";
        let full = LabelSet::interned_count();
        assert_eq!(within(novel, full), None);
        assert_eq!(within(novel, full + 2), None);
        assert!(LabelSet::parse_wire("label:conf:a,nonsense").is_err());
        let (admitted, added) = within(novel, usize::MAX).unwrap();
        assert_eq!(added, 1, "a pure novel set is its own projection");
        assert_eq!(admitted, LabelSet::from_wire(novel).unwrap());
        assert_eq!(within(novel, 0), Some((admitted, 0)));
        let mixed = "label:conf:e/capped-wire-decode/2,label:int:e/capped-wire-decode/2";
        let (_, added) = within(mixed, usize::MAX).unwrap();
        assert_eq!(added, 3, "a mixed novel set and both its projections");
    }

    #[test]
    fn wire_empty() {
        assert_eq!(LabelSet::new().to_wire(), "");
        assert_eq!(LabelSet::from_wire("").unwrap(), LabelSet::new());
        assert_eq!(LabelSet::from_wire("  ,  ").unwrap(), LabelSet::new());
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(LabelSet::from_wire("label:conf:a,nonsense").is_err());
    }

    #[test]
    fn equal_content_means_equal_id() {
        let a = LabelSet::from_iter([conf("mdt/a"), conf("patient/1")]);
        let b = LabelSet::from_iter([conf("patient/1"), conf("mdt/a"), conf("mdt/a")]);
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn handle_copies_are_free_and_stable() {
        let a = LabelSet::from_iter([conf("patient/7")]);
        let before = LabelSet::interned_count();
        for _ in 0..100 {
            let b = a; // Copy
            assert_eq!(a, b);
        }
        assert_eq!(LabelSet::interned_count(), before);
    }

    #[test]
    fn projections_are_precomputed_and_interned() {
        let mixed = LabelSet::from_iter([conf("patient/1"), int("mdt")]);
        assert_eq!(mixed.confidentiality().id(), mixed.confidentiality().id());
        assert_eq!(
            mixed.confidentiality(),
            LabelSet::singleton(conf("patient/1"))
        );
        assert_eq!(mixed.integrity(), LabelSet::singleton(int("mdt")));
        let pure = LabelSet::singleton(conf("patient/1"));
        assert_eq!(pure.confidentiality().id(), pure.id());
    }

    #[test]
    fn ordering_matches_label_contents() {
        let a = LabelSet::singleton(conf("a"));
        let b = LabelSet::singleton(conf("b"));
        assert!(a < b);
        assert!(LabelSet::new() < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
