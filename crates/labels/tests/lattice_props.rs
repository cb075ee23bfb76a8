//! Property-based tests for the label lattice: the `combine` operation must
//! preserve every flow restriction of its inputs, behave like a lattice
//! join on confidentiality, and `flows_to` must be monotone.

use proptest::prelude::*;
use safeweb_labels::{Label, LabelKind, LabelSet, Privilege, PrivilegeSet};

fn arb_label() -> impl Strategy<Value = Label> {
    let kind = prop_oneof![Just(LabelKind::Confidentiality), Just(LabelKind::Integrity)];
    let authority = prop_oneof![Just("ecric.org.uk"), Just("nhs.uk"), Just("lab.org")];
    let path = prop_oneof![
        Just("patient/1".to_string()),
        Just("patient/2".to_string()),
        Just("mdt/a".to_string()),
        Just("mdt/b".to_string()),
        Just("region/east".to_string()),
        Just("".to_string()),
    ];
    (kind, authority, path).prop_map(|(k, a, p)| Label::new(k, a, &p).unwrap())
}

fn arb_label_set() -> impl Strategy<Value = LabelSet> {
    proptest::collection::vec(arb_label(), 0..6).prop_map(LabelSet::from_iter)
}

fn arb_privileges() -> impl Strategy<Value = PrivilegeSet> {
    proptest::collection::vec(arb_label(), 0..6).prop_map(|labels| {
        labels
            .into_iter()
            .map(Privilege::clearance)
            .collect::<PrivilegeSet>()
    })
}

proptest! {
    /// Confidentiality composition is a join: commutative, associative,
    /// idempotent.
    #[test]
    fn combine_conf_is_commutative(a in arb_label_set(), b in arb_label_set()) {
        prop_assert_eq!(a.combine(&b).confidentiality(), b.combine(&a).confidentiality());
    }

    #[test]
    fn combine_int_is_commutative(a in arb_label_set(), b in arb_label_set()) {
        prop_assert_eq!(a.combine(&b).integrity(), b.combine(&a).integrity());
    }

    #[test]
    fn combine_is_associative(a in arb_label_set(), b in arb_label_set(), c in arb_label_set()) {
        prop_assert_eq!(a.combine(&b).combine(&c), a.combine(&b.combine(&c)));
    }

    #[test]
    fn combine_is_idempotent(a in arb_label_set()) {
        prop_assert_eq!(a.combine(&a), a);
    }

    /// Sticky confidentiality: the combination carries *every*
    /// confidentiality label of both inputs.
    #[test]
    fn combine_preserves_conf_restrictions(a in arb_label_set(), b in arb_label_set()) {
        let c = a.combine(&b);
        for l in a.confidentiality().iter().chain(b.confidentiality().iter()) {
            prop_assert!(c.contains(l));
        }
    }

    /// Fragile integrity: the combination never claims integrity both inputs
    /// did not have.
    #[test]
    fn combine_never_invents_integrity(a in arb_label_set(), b in arb_label_set()) {
        let c = a.combine(&b);
        for l in c.integrity().iter() {
            prop_assert!(a.contains(l) && b.contains(l));
        }
    }

    /// If the combined set may flow somewhere, each input on its own may
    /// flow there too (combine is restriction-monotone).
    #[test]
    fn flow_of_combination_implies_flow_of_inputs(
        a in arb_label_set(),
        b in arb_label_set(),
        privs in arb_privileges(),
    ) {
        let c = a.combine(&b);
        if c.flows_to(&privs) {
            prop_assert!(a.flows_to(&privs));
            prop_assert!(b.flows_to(&privs));
        }
    }

    /// Granting more privileges never blocks a previously allowed flow.
    #[test]
    fn flows_to_is_monotone_in_privileges(
        set in arb_label_set(),
        privs in arb_privileges(),
        extra in arb_label(),
    ) {
        if set.flows_to(&privs) {
            let mut bigger = privs;
            bigger.grant(Privilege::clearance(extra));
            prop_assert!(set.flows_to(&bigger));
        }
    }

    /// Subset label sets are never harder to release than supersets.
    #[test]
    fn flow_is_antitone_in_labels(
        a in arb_label_set(),
        b in arb_label_set(),
        privs in arb_privileges(),
    ) {
        if a.is_subset(&b) && b.flows_to(&privs) {
            prop_assert!(a.flows_to(&privs));
        }
    }

    /// Wire encoding round-trips exactly.
    #[test]
    fn wire_roundtrip(set in arb_label_set()) {
        let wire = set.to_wire();
        prop_assert_eq!(LabelSet::from_wire(&wire).unwrap(), set);
    }

    /// Label URI parsing round-trips exactly.
    #[test]
    fn label_uri_roundtrip(label in arb_label()) {
        let uri = label.to_string();
        prop_assert_eq!(uri.parse::<Label>().unwrap(), label);
    }

    /// Declassification with privilege removes exactly the targeted label
    /// and cannot make the flow *less* permitted.
    #[test]
    fn declassify_only_removes_target(set in arb_label_set(), target in arb_label()) {
        prop_assume!(target.is_confidentiality());
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(target.clone()));
        let mut after = set;
        after.declassify(&target, &privs).unwrap();
        prop_assert!(!after.contains(&target));
        for l in set.iter() {
            if *l != target {
                prop_assert!(after.contains(l));
            }
        }
    }
}
