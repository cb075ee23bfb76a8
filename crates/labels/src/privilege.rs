//! Privileges over labels (§4.1).
//!
//! Two privileges govern confidentiality labels: **clearance** (the right to
//! receive data protected by a label) and **declassification** (the right to
//! remove the label, making the data public). The integrity duals are
//! **low-integrity clearance** (the right to read unendorsed data) and
//! **endorsement** (the right to attach an integrity label).
//!
//! Like [`crate::LabelSet`], a [`PrivilegeSet`] is an interned `Copy`
//! handle: its [`PrivilegeSetId`] is the second
//! half of the memo key that makes repeated
//! [`crate::LabelSet::flows_to`] checks one cache lookup.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::ParseLabelError;
use crate::intern::{self, PrivRepr, PrivilegeSetId};
use crate::label::Label;
use crate::pattern::LabelPattern;

/// The action a privilege permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrivilegeKind {
    /// Receive data carrying a confidentiality label.
    Clearance,
    /// Remove a confidentiality label from data.
    Declassify,
    /// Attach an integrity label to data.
    Endorse,
}

impl PrivilegeKind {
    /// Keyword used in policy files (`clearance`, `declassify`, `endorse`).
    pub fn keyword(self) -> &'static str {
        match self {
            PrivilegeKind::Clearance => "clearance",
            PrivilegeKind::Declassify => "declassify",
            PrivilegeKind::Endorse => "endorse",
        }
    }
}

impl fmt::Display for PrivilegeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl FromStr for PrivilegeKind {
    type Err = ParseLabelError;

    fn from_str(s: &str) -> Result<PrivilegeKind, ParseLabelError> {
        match s {
            "clearance" => Ok(PrivilegeKind::Clearance),
            "declassify" => Ok(PrivilegeKind::Declassify),
            "endorse" => Ok(PrivilegeKind::Endorse),
            other => Err(ParseLabelError::new(format!(
                "unknown privilege kind {other:?}"
            ))),
        }
    }
}

/// A single privilege: the right to perform [`PrivilegeKind`] on every label
/// matched by a [`LabelPattern`].
///
/// Patterns allow policies like "the storage unit may declassify any MDT
/// label" (`declassify label:conf:ecric.org.uk/mdt/*`) without enumerating
/// every MDT.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Privilege {
    kind: PrivilegeKind,
    pattern: LabelPattern,
}

impl Privilege {
    /// Creates a privilege of `kind` over all labels matching `pattern`.
    pub fn new(kind: PrivilegeKind, pattern: LabelPattern) -> Privilege {
        Privilege { kind, pattern }
    }

    /// Clearance over exactly `label`.
    pub fn clearance(label: Label) -> Privilege {
        Privilege::new(PrivilegeKind::Clearance, LabelPattern::exact(label))
    }

    /// Declassification over exactly `label`.
    pub fn declassify(label: Label) -> Privilege {
        Privilege::new(PrivilegeKind::Declassify, LabelPattern::exact(label))
    }

    /// Endorsement over exactly `label`.
    pub fn endorse(label: Label) -> Privilege {
        Privilege::new(PrivilegeKind::Endorse, LabelPattern::exact(label))
    }

    /// The permitted action.
    pub fn kind(&self) -> PrivilegeKind {
        self.kind
    }

    /// The labels this privilege covers.
    pub fn pattern(&self) -> &LabelPattern {
        &self.pattern
    }

    /// Whether this privilege permits `kind` on `label`.
    pub fn permits(&self, kind: PrivilegeKind, label: &Label) -> bool {
        self.kind == kind && self.pattern.matches(label)
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.pattern)
    }
}

/// The set of privileges held by a principal (a unit in the backend or an
/// authenticated user in the frontend).
///
/// Interned and `Copy`: equality is one [`PrivilegeSetId`] compare, and the
/// id keys per-clearance caches (the `flows_to` memo, the frontend's
/// rendered-view cache). "Mutations" such as [`PrivilegeSet::grant`]
/// re-intern and re-point the handle.
///
/// ```
/// use safeweb_labels::{Label, Privilege, PrivilegeSet};
///
/// let mut privs = PrivilegeSet::new();
/// privs.grant(Privilege::clearance(Label::conf("ecric.org.uk", "mdt/a")));
/// assert!(privs.has_clearance(&Label::conf("ecric.org.uk", "mdt/a")));
/// assert!(!privs.has_clearance(&Label::conf("ecric.org.uk", "mdt/b")));
/// ```
#[derive(Clone, Copy)]
pub struct PrivilegeSet {
    repr: &'static PrivRepr,
}

impl PrivilegeSet {
    /// Creates an empty privilege set (may only receive public data).
    pub fn new() -> PrivilegeSet {
        PrivilegeSet {
            repr: intern::intern_sorted_privileges(Vec::new()),
        }
    }

    /// Interns an arbitrary (possibly unsorted, duplicated) privilege list.
    fn from_vec(privileges: Vec<Privilege>) -> PrivilegeSet {
        let canonical: BTreeSet<Privilege> = privileges.into_iter().collect();
        PrivilegeSet {
            repr: intern::intern_sorted_privileges(canonical.into_iter().collect()),
        }
    }

    /// The interned identity of this set. Equal ids ⇔ equal sets;
    /// process-local, never on the wire.
    pub fn id(&self) -> PrivilegeSetId {
        self.repr.id
    }

    /// Number of distinct privilege sets interned in this process.
    pub fn interned_count() -> usize {
        intern::interned_priv_count()
    }

    /// Grants a privilege. Returns `true` if it was newly added.
    pub fn grant(&mut self, privilege: Privilege) -> bool {
        match self.repr.privileges.binary_search(&privilege) {
            Ok(_) => false,
            Err(pos) => {
                let mut privileges = self.repr.privileges.to_vec();
                privileges.insert(pos, privilege);
                self.repr = intern::intern_sorted_privileges(privileges);
                true
            }
        }
    }

    /// Whether any held privilege permits `kind` on `label`.
    pub fn permits(&self, kind: PrivilegeKind, label: &Label) -> bool {
        self.repr.privileges.iter().any(|p| p.permits(kind, label))
    }

    /// Whether the principal may receive data labelled with `label`.
    ///
    /// Declassification subsumes clearance: a principal that may *remove* a
    /// label may certainly *see* data carrying it.
    pub fn has_clearance(&self, label: &Label) -> bool {
        self.permits(PrivilegeKind::Clearance, label)
            || self.permits(PrivilegeKind::Declassify, label)
    }

    /// Whether the principal may remove `label` from data.
    pub fn can_declassify(&self, label: &Label) -> bool {
        self.permits(PrivilegeKind::Declassify, label)
    }

    /// Whether the principal may attach integrity `label` to data.
    pub fn can_endorse(&self, label: &Label) -> bool {
        self.permits(PrivilegeKind::Endorse, label)
    }

    /// Iterates over the held privileges in deterministic order.
    pub fn iter(&self) -> std::slice::Iter<'static, Privilege> {
        self.repr.privileges.iter()
    }

    /// Number of privileges held.
    pub fn len(&self) -> usize {
        self.repr.privileges.len()
    }

    /// Whether the set holds no privileges.
    pub fn is_empty(&self) -> bool {
        self.repr.privileges.is_empty()
    }

    /// Merges all privileges of `other` into `self`.
    pub fn merge(&mut self, other: &PrivilegeSet) {
        if self.id() == other.id() || other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = *other;
            return;
        }
        let mut privileges = self.repr.privileges.to_vec();
        privileges.extend(other.iter().cloned());
        *self = PrivilegeSet::from_vec(privileges);
    }
}

impl Default for PrivilegeSet {
    fn default() -> PrivilegeSet {
        PrivilegeSet::new()
    }
}

impl PartialEq for PrivilegeSet {
    fn eq(&self, other: &PrivilegeSet) -> bool {
        self.repr.id == other.repr.id
    }
}

impl Eq for PrivilegeSet {}

impl Hash for PrivilegeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.repr.id.hash(state);
    }
}

impl PartialOrd for PrivilegeSet {
    fn partial_cmp(&self, other: &PrivilegeSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PrivilegeSet {
    fn cmp(&self, other: &PrivilegeSet) -> Ordering {
        if self.repr.id == other.repr.id {
            return Ordering::Equal;
        }
        self.repr.privileges.cmp(&other.repr.privileges)
    }
}

impl fmt::Debug for PrivilegeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrivilegeSet({} {self})", self.id())
    }
}

impl FromIterator<Privilege> for PrivilegeSet {
    fn from_iter<I: IntoIterator<Item = Privilege>>(iter: I) -> PrivilegeSet {
        PrivilegeSet::from_vec(iter.into_iter().collect())
    }
}

impl Extend<Privilege> for PrivilegeSet {
    fn extend<I: IntoIterator<Item = Privilege>>(&mut self, iter: I) {
        let novel: Vec<Privilege> = iter
            .into_iter()
            .filter(|p| self.repr.privileges.binary_search(p).is_err())
            .collect();
        if novel.is_empty() {
            return;
        }
        let mut privileges = self.repr.privileges.to_vec();
        privileges.extend(novel);
        *self = PrivilegeSet::from_vec(privileges);
    }
}

impl fmt::Display for PrivilegeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|p| p.to_string()).collect();
        write!(f, "[{}]", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mdt(name: &str) -> Label {
        Label::conf("ecric.org.uk", &format!("mdt/{name}"))
    }

    #[test]
    fn declassify_implies_clearance() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(mdt("a")));
        assert!(privs.has_clearance(&mdt("a")));
        assert!(privs.can_declassify(&mdt("a")));
    }

    #[test]
    fn clearance_does_not_imply_declassify() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(mdt("a")));
        assert!(privs.has_clearance(&mdt("a")));
        assert!(!privs.can_declassify(&mdt("a")));
    }

    #[test]
    fn wildcard_privilege_covers_all_mdts() {
        let pattern: LabelPattern = "label:conf:ecric.org.uk/mdt/*".parse().unwrap();
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::new(PrivilegeKind::Declassify, pattern));
        assert!(privs.can_declassify(&mdt("a")));
        assert!(privs.can_declassify(&mdt("b")));
        assert!(!privs.can_declassify(&Label::conf("ecric.org.uk", "patient/1")));
    }

    /// Rebuilds `privs` without `privilege`; returns whether it was held.
    fn revoke(privs: &mut PrivilegeSet, privilege: &Privilege) -> bool {
        let held = privs.iter().any(|p| p == privilege);
        *privs = privs.iter().filter(|p| *p != privilege).cloned().collect();
        held
    }

    #[test]
    fn revoke_removes_privilege() {
        let mut privs = PrivilegeSet::new();
        let p = Privilege::clearance(mdt("a"));
        privs.grant(p.clone());
        assert!(revoke(&mut privs, &p));
        assert!(!privs.has_clearance(&mdt("a")));
        assert_eq!(privs, PrivilegeSet::new());
        assert!(!revoke(&mut privs, &p));
    }

    #[test]
    fn merge_unions_privileges() {
        let mut a = PrivilegeSet::new();
        a.grant(Privilege::clearance(mdt("a")));
        let mut b = PrivilegeSet::new();
        b.grant(Privilege::clearance(mdt("b")));
        a.merge(&b);
        assert!(a.has_clearance(&mdt("a")));
        assert!(a.has_clearance(&mdt("b")));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn endorse_is_separate_from_conf_privileges() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::endorse(Label::int("ecric.org.uk", "mdt")));
        assert!(privs.can_endorse(&Label::int("ecric.org.uk", "mdt")));
        assert!(!privs.has_clearance(&mdt("a")));
    }

    #[test]
    fn privilege_kind_parse_roundtrip() {
        for kind in [
            PrivilegeKind::Clearance,
            PrivilegeKind::Declassify,
            PrivilegeKind::Endorse,
        ] {
            assert_eq!(kind.keyword().parse::<PrivilegeKind>().unwrap(), kind);
        }
        assert!("superuser".parse::<PrivilegeKind>().is_err());
    }

    #[test]
    fn equal_grants_share_one_identity() {
        let mut a = PrivilegeSet::new();
        a.grant(Privilege::clearance(mdt("a")));
        a.grant(Privilege::clearance(mdt("b")));
        let mut b = PrivilegeSet::new();
        b.grant(Privilege::clearance(mdt("b")));
        b.grant(Privilege::clearance(mdt("a")));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }
}
