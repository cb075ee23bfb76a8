//! Hash-consed interning of label sets and privilege sets.
//!
//! Every distinct canonical label set in the process is stored exactly once
//! in a global, append-only table and identified by a small [`LabelSetId`].
//! A [`crate::LabelSet`] is then a `Copy` handle onto that table: copying
//! one copies a pointer, comparing two compares one integer, and hashing
//! one hashes one integer. The same scheme backs [`crate::PrivilegeSet`]
//! with [`PrivilegeSetId`].
//!
//! The tables never evict — an interned set is immutable and its id is
//! valid for the life of the process — which is what makes the
//! `(LabelSetId, PrivilegeSetId) → bool` memo for
//! [`crate::LabelSet::flows_to`] sound: both operands of a memoised verdict
//! can never change, so entries are never invalidated. The memo itself *is*
//! bounded (sharded, clear-on-overflow) because it is a pure cache; the
//! intern tables are not, because they are the identity of the values.
//!
//! Lock discipline: the table locks and the memo shard locks are always
//! taken one at a time and released before any other lock is acquired, so
//! no lock ordering exists to get wrong.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, RwLock};

use crate::label::{Label, LabelKind};
use crate::privilege::Privilege;

/// The identity of an interned canonical label set.
///
/// Two [`crate::LabelSet`] values are equal **iff** their ids are equal:
/// the hash-cons table guarantees each distinct set of labels is interned
/// exactly once per process. Ids are process-local — they are *not* stable
/// across runs and never appear on the wire (the wire format remains the
/// sorted label-URI list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelSetId(u32);

impl LabelSetId {
    /// The raw id, e.g. for use as a cache key outside this crate.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LabelSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ls#{}", self.0)
    }
}

/// The identity of an interned canonical privilege set.
///
/// Same contract as [`LabelSetId`]: equal ids ⇔ equal privilege sets,
/// process-local, never on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrivilegeSetId(u32);

impl PrivilegeSetId {
    /// The raw id, e.g. for use as a cache key outside this crate.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PrivilegeSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ps#{}", self.0)
    }
}

/// The canonical, shared representation of one interned label set.
pub(crate) struct SetRepr {
    pub(crate) id: LabelSetId,
    /// Sorted, deduplicated labels — the canonical form used as table key.
    pub(crate) labels: Box<[Label]>,
    /// How many of `labels` are confidentiality labels (the `flows_to`
    /// empty fast path: zero means the set blocks nothing).
    pub(crate) conf_count: usize,
    /// Interned projection onto the confidentiality labels, computed once
    /// at intern time (self-referential when the set is pure).
    confidentiality: OnceLock<&'static SetRepr>,
    /// Interned projection onto the integrity labels.
    integrity: OnceLock<&'static SetRepr>,
}

/// The canonical, shared representation of one interned privilege set.
pub(crate) struct PrivRepr {
    pub(crate) id: PrivilegeSetId,
    /// Sorted, deduplicated privileges.
    pub(crate) privileges: Box<[Privilege]>,
}

fn set_table() -> &'static RwLock<HashMap<&'static [Label], &'static SetRepr>> {
    static TABLE: OnceLock<RwLock<HashMap<&'static [Label], &'static SetRepr>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

fn priv_table() -> &'static RwLock<HashMap<&'static [Privilege], &'static PrivRepr>> {
    static TABLE: OnceLock<RwLock<HashMap<&'static [Privilege], &'static PrivRepr>>> =
        OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Interns `labels`, which must already be sorted and deduplicated.
///
/// The common case (the set has been seen before) takes one shared-lock
/// hash lookup. A novel set leaks one canonical allocation for the life of
/// the process and is assigned the next [`LabelSetId`].
pub(crate) fn intern_sorted_labels(labels: Vec<Label>) -> &'static SetRepr {
    intern_within(labels, usize::MAX)
        .expect("an uncapped intern is never refused")
        .0
}

/// [`intern_sorted_labels`], refusing (`None`) a novel set while the table
/// holds more than `cap - 3` sets: interning one adds the set and up to two
/// kind projections, so a table this path grows stays at or under `cap`.
/// Also returns the number of table entries this call added (0 to 3).
pub(crate) fn intern_within(labels: Vec<Label>, cap: usize) -> Option<(&'static SetRepr, usize)> {
    debug_assert!(labels.windows(2).all(|w| w[0] < w[1]), "not canonical");
    {
        let table = set_table().read().expect("label intern table poisoned");
        if let Some(repr) = table.get(labels.as_slice()) {
            return Some((repr, 0));
        }
    }
    let repr = {
        let mut table = set_table().write().expect("label intern table poisoned");
        match table.get(labels.as_slice()) {
            Some(repr) => return Some((repr, 0)),
            None if table.len().saturating_add(3) > cap => return None,
            None => {
                let conf_count = labels.iter().filter(|l| l.is_confidentiality()).count();
                let id = LabelSetId(
                    u32::try_from(table.len()).expect("label-set intern table overflow"),
                );
                let repr: &'static SetRepr = Box::leak(Box::new(SetRepr {
                    id,
                    labels: labels.into_boxed_slice(),
                    conf_count,
                    confidentiality: OnceLock::new(),
                    integrity: OnceLock::new(),
                }));
                table.insert(&repr.labels, repr);
                repr
            }
        }
    };
    // Fill the kind projections eagerly, outside the table lock. The
    // projection of a pure set is the set itself, so this recurses at most
    // one level before bottoming out.
    let mut added = 1;
    let _ = projection_counted(repr, LabelKind::Confidentiality, &mut added);
    let _ = projection_counted(repr, LabelKind::Integrity, &mut added);
    Some((repr, added))
}

/// The interned projection of `repr` onto labels of `kind`.
///
/// Computed once per repr (eagerly at intern time; the `OnceLock` also
/// covers the race where another thread observes the repr first).
pub(crate) fn projection(repr: &'static SetRepr, kind: LabelKind) -> &'static SetRepr {
    projection_counted(repr, kind, &mut 0)
}

/// [`projection`], adding to `added` the table entries interning it took.
fn projection_counted(
    repr: &'static SetRepr,
    kind: LabelKind,
    added: &mut usize,
) -> &'static SetRepr {
    let cell = match kind {
        LabelKind::Confidentiality => &repr.confidentiality,
        LabelKind::Integrity => &repr.integrity,
    };
    cell.get_or_init(|| {
        let count = match kind {
            LabelKind::Confidentiality => repr.conf_count,
            LabelKind::Integrity => repr.labels.len() - repr.conf_count,
        };
        if count == repr.labels.len() {
            return repr;
        }
        let filtered: Vec<Label> = repr
            .labels
            .iter()
            .filter(|l| l.kind() == kind)
            .cloned()
            .collect();
        let (projected, entries) =
            intern_within(filtered, usize::MAX).expect("an uncapped intern is never refused");
        *added += entries;
        projected
    })
}

/// Interns `privileges`, which must already be sorted and deduplicated.
pub(crate) fn intern_sorted_privileges(privileges: Vec<Privilege>) -> &'static PrivRepr {
    debug_assert!(privileges.windows(2).all(|w| w[0] < w[1]), "not canonical");
    {
        let table = priv_table()
            .read()
            .expect("privilege intern table poisoned");
        if let Some(repr) = table.get(privileges.as_slice()) {
            return repr;
        }
    }
    let mut table = priv_table()
        .write()
        .expect("privilege intern table poisoned");
    match table.get(privileges.as_slice()) {
        Some(repr) => repr,
        None => {
            let id = PrivilegeSetId(
                u32::try_from(table.len()).expect("privilege-set intern table overflow"),
            );
            let repr: &'static PrivRepr = Box::leak(Box::new(PrivRepr {
                id,
                privileges: privileges.into_boxed_slice(),
            }));
            table.insert(&repr.privileges, repr);
            repr
        }
    }
}

/// Number of distinct label sets interned so far in this process.
pub(crate) fn interned_set_count() -> usize {
    set_table()
        .read()
        .expect("label intern table poisoned")
        .len()
}

/// Number of distinct privilege sets interned so far in this process.
pub(crate) fn interned_priv_count() -> usize {
    priv_table()
        .read()
        .expect("privilege intern table poisoned")
        .len()
}

// --- flows_to memo ---------------------------------------------------------

/// Shard count for the memo; a power of two so the index is a mask.
const MEMO_SHARDS: usize = 16;
/// Per-shard entry bound; on overflow the shard is cleared (entries are a
/// pure cache of immutable facts, so dropping them only costs recompute).
const MEMO_SHARD_CAP: usize = 8192;

/// One memo shard: verdicts keyed by raw `(LabelSetId, PrivilegeSetId)`.
type MemoShard = Mutex<HashMap<(u32, u32), bool>>;

fn memo_shards() -> &'static [MemoShard; MEMO_SHARDS] {
    static MEMO: OnceLock<[MemoShard; MEMO_SHARDS]> = OnceLock::new();
    MEMO.get_or_init(|| std::array::from_fn(|_| Mutex::new(HashMap::new())))
}

fn memo_shard(set: LabelSetId, privs: PrivilegeSetId) -> &'static MemoShard {
    let mix = set
        .0
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(privs.0.wrapping_mul(0x85eb_ca6b));
    &memo_shards()[(mix as usize) & (MEMO_SHARDS - 1)]
}

/// Cached `flows_to` verdict for `(set, privs)`, if one is present.
pub(crate) fn flows_memo_get(set: LabelSetId, privs: PrivilegeSetId) -> Option<bool> {
    memo_shard(set, privs)
        .lock()
        .expect("flows_to memo poisoned")
        .get(&(set.0, privs.0))
        .copied()
}

/// Records a `flows_to` verdict for `(set, privs)`.
pub(crate) fn flows_memo_put(set: LabelSetId, privs: PrivilegeSetId, verdict: bool) {
    let mut shard = memo_shard(set, privs)
        .lock()
        .expect("flows_to memo poisoned");
    if shard.len() >= MEMO_SHARD_CAP {
        shard.clear();
    }
    shard.insert((set.0, privs.0), verdict);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conf(p: &str) -> Label {
        Label::conf("intern.test", p)
    }

    #[test]
    fn interning_is_idempotent_and_ids_are_identity() {
        let a = intern_sorted_labels(vec![conf("a"), conf("b")]);
        let b = intern_sorted_labels(vec![conf("a"), conf("b")]);
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.id, b.id);
        let c = intern_sorted_labels(vec![conf("a")]);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn projections_are_interned_once() {
        let mixed = intern_sorted_labels(vec![conf("a"), Label::int("intern.test", "ok")]);
        let p1 = projection(mixed, LabelKind::Confidentiality);
        let p2 = projection(mixed, LabelKind::Confidentiality);
        assert!(std::ptr::eq(p1, p2));
        assert_eq!(p1.labels.len(), 1);
        let pure = projection(p1, LabelKind::Confidentiality);
        assert!(std::ptr::eq(p1, pure), "pure projection is self");
    }

    #[test]
    fn memo_roundtrip_and_overflow_clears() {
        let set = LabelSetId(u32::MAX - 1);
        let privs = PrivilegeSetId(u32::MAX - 1);
        assert_eq!(flows_memo_get(set, privs), None);
        flows_memo_put(set, privs, true);
        assert_eq!(flows_memo_get(set, privs), Some(true));
    }
}
