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
    /// Adding confidentiality labels never requires privilege (it only makes
    /// data *more* restricted); removing them does — see
    /// [`LabelSet::declassify`].
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
    /// This is a low-level operation used by the enforcement layers after
    /// they have verified the caller's declassification (or, for integrity
    /// labels, its endorsement-revocation) rights; application code should go
    /// through [`LabelSet::declassify`] instead.
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

    /// Removes `label` from the set if `privileges` grants declassification
    /// (for confidentiality labels) over it.
    ///
    /// # Errors
    ///
    /// Returns [`DeclassifyError`] if the privilege is missing. Removing a
    /// label that is not present is a no-op and succeeds.
    pub fn declassify(
        &mut self,
        label: &Label,
        privileges: &PrivilegeSet,
    ) -> Result<(), DeclassifyError> {
        if !label.is_confidentiality() {
            return Err(DeclassifyError::NotConfidentiality(label.clone()));
        }
        if !privileges.can_declassify(label) {
            return Err(DeclassifyError::MissingPrivilege(label.clone()));
        }
        self.remove_unchecked(label);
        Ok(())
    }

    /// Adds `label` as an integrity endorsement if `privileges` grants
    /// endorsement over it.
    ///
    /// # Errors
    ///
    /// Returns [`EndorseError`] if the privilege is missing or the label is
    /// not an integrity label.
    pub fn endorse(
        &mut self,
        label: &Label,
        privileges: &PrivilegeSet,
    ) -> Result<(), EndorseError> {
        if !label.is_integrity() {
            return Err(EndorseError::NotIntegrity(label.clone()));
        }
        if !privileges.can_endorse(label) {
            return Err(EndorseError::MissingPrivilege(label.clone()));
        }
        self.insert(label.clone());
        Ok(())
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
        let set = LabelSet::from_wire_within(s, usize::MAX)?;
        Ok(set.expect("an uncapped intern is never refused").0)
    }

    /// [`LabelSet::from_wire`] for input from an untrusted peer: `Ok(None)`
    /// refuses a set this process has not interned yet once the intern
    /// table is within three sets of `cap` (the set and its two kind
    /// projections). A known set always resolves, so a full table costs an
    /// honest peer nothing, and a peer cycling label URIs cannot take the
    /// table past `cap`. Also returns the number of intern-table entries
    /// the call added (0 for a known set, up to 3 for a novel one), so a
    /// caller can budget the table space a peer spends.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLabelError`] if any element is not a valid label URI.
    pub fn from_wire_within(
        s: &str,
        cap: usize,
    ) -> Result<Option<(LabelSet, usize)>, ParseLabelError> {
        let mut labels = Vec::new();
        for part in s.split(',').map(str::trim).filter(|part| !part.is_empty()) {
            labels.push(part.parse()?);
        }
        labels.sort();
        labels.dedup();
        Ok(intern::intern_within(labels, cap).map(|(repr, added)| (LabelSet { repr }, added)))
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

/// Error returned by [`LabelSet::declassify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeclassifyError {
    /// The caller lacks the declassification privilege for this label.
    MissingPrivilege(Label),
    /// Declassification only applies to confidentiality labels.
    NotConfidentiality(Label),
}

impl fmt::Display for DeclassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclassifyError::MissingPrivilege(l) => {
                write!(f, "missing declassification privilege for {l}")
            }
            DeclassifyError::NotConfidentiality(l) => {
                write!(f, "cannot declassify non-confidentiality label {l}")
            }
        }
    }
}

impl std::error::Error for DeclassifyError {}

/// Error returned by [`LabelSet::endorse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorseError {
    /// The caller lacks the endorsement privilege for this label.
    MissingPrivilege(Label),
    /// Endorsement only applies to integrity labels.
    NotIntegrity(Label),
}

impl fmt::Display for EndorseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorseError::MissingPrivilege(l) => {
                write!(f, "missing endorsement privilege for {l}")
            }
            EndorseError::NotIntegrity(l) => {
                write!(f, "cannot endorse non-integrity label {l}")
            }
        }
    }
}

impl std::error::Error for EndorseError {}

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
    fn declassify_requires_privilege() {
        let mut set = LabelSet::singleton(conf("patient/1"));
        let err = set
            .declassify(&conf("patient/1"), &PrivilegeSet::new())
            .unwrap_err();
        assert!(matches!(err, DeclassifyError::MissingPrivilege(_)));
        assert!(set.contains(&conf("patient/1")));

        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("patient/1")));
        set.declassify(&conf("patient/1"), &privs).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn declassify_rejects_integrity_labels() {
        let mut set = LabelSet::singleton(int("mdt"));
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("x")));
        assert!(matches!(
            set.declassify(&int("mdt"), &privs),
            Err(DeclassifyError::NotConfidentiality(_))
        ));
    }

    #[test]
    fn endorse_requires_privilege() {
        let mut set = LabelSet::new();
        assert!(matches!(
            set.endorse(&int("mdt"), &PrivilegeSet::new()),
            Err(EndorseError::MissingPrivilege(_))
        ));
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::endorse(int("mdt")));
        set.endorse(&int("mdt"), &privs).unwrap();
        assert!(set.contains(&int("mdt")));
    }

    #[test]
    fn wire_roundtrip() {
        let set = LabelSet::from_iter([conf("patient/1"), int("mdt"), conf("mdt/a")]);
        let wire = set.to_wire();
        let back = LabelSet::from_wire(&wire).unwrap();
        assert_eq!(set, back);
        assert_eq!(set.id(), back.id());
    }

    /// The capped decode refuses only novel sets, and only near its cap;
    /// it still reports malformed input as a parse error.
    #[test]
    fn capped_wire_decode_refuses_only_novel_sets() {
        let known = LabelSet::from_iter([conf("patient/1"), int("mdt")]);
        let wire = known.to_wire();
        assert_eq!(LabelSet::from_wire_within(&wire, 0), Ok(Some((known, 0))));
        let novel = "label:conf:e/capped-wire-decode/1";
        let full = LabelSet::interned_count();
        assert_eq!(LabelSet::from_wire_within(novel, full), Ok(None));
        assert_eq!(LabelSet::from_wire_within(novel, full + 2), Ok(None));
        assert!(LabelSet::from_wire_within("nonsense", usize::MAX).is_err());
        let (admitted, added) = LabelSet::from_wire_within(novel, usize::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(added, 1, "a pure novel set is its own projection");
        assert_eq!(admitted, LabelSet::from_wire(novel).unwrap());
        assert_eq!(
            LabelSet::from_wire_within(novel, 0),
            Ok(Some((admitted, 0)))
        );
        let mixed = "label:conf:e/capped-wire-decode/2,label:int:e/capped-wire-decode/2";
        let (_, added) = LabelSet::from_wire_within(mixed, usize::MAX)
            .unwrap()
            .unwrap();
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
