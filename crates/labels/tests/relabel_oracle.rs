//! The relabel rule against an oracle: `check_relabel` (the decision) and
//! `Relabel::apply` (the decision applied to an interned set) must agree
//! with a transparent `BTreeSet` model of the rule, for random input sets,
//! relabels, privilege sets and the `privileged` flag:
//!
//! * a confidentiality label may be added by anyone, and removed only
//!   under `declassify` or `privileged`;
//! * an integrity label may be removed by anyone, and added only under
//!   `endorse` or `privileged`.
//!
//! A STOMP `SEND` is the same rule with an empty input set and the
//! frame's labels as additions, so that shape is checked on its own.

use std::collections::BTreeSet;

use proptest::prelude::*;
use safeweb_labels::{
    check_relabel, Label, LabelKind, LabelSet, Privilege, PrivilegeKind, PrivilegeSet, Relabel,
    RelabelError, RemoveSpec,
};

fn arb_label() -> impl Strategy<Value = Label> {
    let kind = prop_oneof![Just(LabelKind::Confidentiality), Just(LabelKind::Integrity)];
    let authority = prop_oneof![Just("ecric.org.uk"), Just("nhs.uk")];
    let path = prop_oneof![
        Just("patient/1"),
        Just("patient/2"),
        Just("mdt/a"),
        Just("mdt/b"),
    ];
    (kind, authority, path).prop_map(|(k, a, p)| Label::new(k, a, p).unwrap())
}

fn arb_labels() -> impl Strategy<Value = Vec<Label>> {
    proptest::collection::vec(arb_label(), 0..5)
}

/// One privilege over one label or over an authority's every label.
fn arb_privilege() -> impl Strategy<Value = Privilege> {
    let kind = prop_oneof![
        Just(PrivilegeKind::Clearance),
        Just(PrivilegeKind::Declassify),
        Just(PrivilegeKind::Endorse),
    ];
    (kind, arb_label(), any::<bool>()).prop_map(|(kind, label, wide)| match (kind, wide) {
        (kind, true) => {
            let pattern = format!("label:{}:{}/*", label.kind(), label.authority());
            Privilege::new(kind, pattern.parse().unwrap())
        }
        (PrivilegeKind::Clearance, false) => Privilege::clearance(label),
        (PrivilegeKind::Declassify, false) => Privilege::declassify(label),
        (PrivilegeKind::Endorse, false) => Privilege::endorse(label),
    })
}

fn arb_privileges() -> impl Strategy<Value = PrivilegeSet> {
    proptest::collection::vec(arb_privilege(), 0..4).prop_map(PrivilegeSet::from_iter)
}

fn arb_remove() -> impl Strategy<Value = RemoveSpec> {
    prop_oneof![
        Just(RemoveSpec::None),
        Just(RemoveSpec::All),
        proptest::collection::vec(arb_label(), 1..4).prop_map(RemoveSpec::Labels),
    ]
}

/// The `Relabel` a unit builds for `remove` and `add`.
fn build(remove: &RemoveSpec, add: &[Label]) -> Relabel {
    let mut relabel = match remove {
        RemoveSpec::None => Relabel::keep(),
        RemoveSpec::All => Relabel::keep().remove_all(),
        RemoveSpec::Labels(labels) => labels
            .iter()
            .fold(Relabel::keep(), |r, l| r.remove(l.clone())),
    };
    for label in add {
        relabel = relabel.add(label.clone());
    }
    relabel
}

/// The rule, written over a `BTreeSet`: the labels removed are those of
/// `input` that `remove` names (in request order); the first change the
/// principal may not make is the refusal, removals before additions.
fn model(
    input: &BTreeSet<Label>,
    remove: &RemoveSpec,
    add: &[Label],
    privileges: &PrivilegeSet,
    privileged: bool,
) -> Result<BTreeSet<Label>, RelabelError> {
    let removed: Vec<&Label> = match remove {
        RemoveSpec::None => Vec::new(),
        RemoveSpec::All => input.iter().collect(),
        RemoveSpec::Labels(labels) => labels.iter().filter(|l| input.contains(l)).collect(),
    };
    let may_remove = |l: &Label| privileged || l.is_integrity() || privileges.can_declassify(l);
    let may_add = |l: &Label| privileged || l.is_confidentiality() || privileges.can_endorse(l);
    if let Some(l) = removed.iter().find(|l| !may_remove(l)) {
        return Err(RelabelError::DeclassificationDenied((*l).clone()));
    }
    if let Some(l) = add.iter().find(|l| !may_add(l)) {
        return Err(RelabelError::EndorsementDenied(l.clone()));
    }
    let mut output = input.clone();
    for l in removed {
        output.remove(l);
    }
    output.extend(add.iter().cloned());
    Ok(output)
}

proptest! {
    /// The decision and the applied set agree with the model, and the
    /// decision is exactly whether applying succeeds.
    #[test]
    fn relabel_matches_the_btreeset_rule(
        input in arb_labels(),
        remove in arb_remove(),
        add in arb_labels(),
        privileges in arb_privileges(),
        privileged in any::<bool>(),
    ) {
        let set = LabelSet::from_iter(input.iter().cloned());
        let input: BTreeSet<Label> = input.into_iter().collect();
        let want = model(&input, &remove, &add, &privileges, privileged);

        let decided = check_relabel(set.iter().as_slice(), &remove, &add, &privileges, privileged);
        prop_assert_eq!(&decided, &want.as_ref().map(|_| ()).map_err(Clone::clone));

        let applied = build(&remove, &add).apply(set, &privileges, privileged);
        let applied = applied.map(|set| set.iter().cloned().collect::<BTreeSet<Label>>());
        prop_assert_eq!(applied, want);
    }

    /// A `SEND`'s labels: additions to the empty set, refused only for an
    /// integrity label the sender may not endorse.
    #[test]
    fn wire_labels_need_endorsement_only(
        labels in arb_labels(),
        privileges in arb_privileges(),
        privileged in any::<bool>(),
    ) {
        let want = model(&BTreeSet::new(), &RemoveSpec::None, &labels, &privileges, privileged);
        let decided = check_relabel(&[], &RemoveSpec::None, &labels, &privileges, privileged);
        prop_assert_eq!(decided, want.map(|_| ()));
        let unendorsed = labels.iter().any(|l| l.is_integrity() && !privileges.can_endorse(l));
        prop_assert_eq!(
            check_relabel(&[], &RemoveSpec::None, &labels, &privileges, privileged).is_err(),
            unendorsed && !privileged
        );
    }
}
