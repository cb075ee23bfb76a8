//! Executable-oracle property suite for the interned lattice.
//!
//! The interned `LabelSet` (hash-consed handles, memoised `flows_to`,
//! precomputed projections) must be observationally identical to the naive
//! implementation it replaced. This suite re-implements that original as a
//! transparent `BTreeSet<Label>` model and drives both through random
//! operation sequences, comparing contents and every derived observation
//! after each step — so any divergence introduced by interning, memo
//! caching or projection precomputation shows up as a counterexample.

use std::collections::BTreeSet;

use proptest::prelude::*;
use safeweb_labels::{Label, LabelKind, LabelSet, Privilege, PrivilegeSet, Relabel};

/// The reference model: the straightforward `BTreeSet` semantics the
/// interned implementation must reproduce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Model {
    labels: BTreeSet<Label>,
}

impl Model {
    fn from_labels(labels: &[Label]) -> Model {
        Model {
            labels: labels.iter().cloned().collect(),
        }
    }

    fn insert(&mut self, label: Label) {
        self.labels.insert(label);
    }

    fn remove(&mut self, label: &Label) {
        self.labels.remove(label);
    }

    fn union(&self, other: &Model) -> Model {
        Model {
            labels: self.labels.union(&other.labels).cloned().collect(),
        }
    }

    fn intersection(&self, other: &Model) -> Model {
        Model {
            labels: self.labels.intersection(&other.labels).cloned().collect(),
        }
    }

    /// §4.1 combination: confidentiality union, integrity intersection.
    fn combine(&self, other: &Model) -> Model {
        let labels = self
            .labels
            .union(&other.labels)
            .filter(|l| l.is_confidentiality())
            .chain(
                self.labels
                    .intersection(&other.labels)
                    .filter(|l| l.is_integrity()),
            )
            .cloned()
            .collect();
        Model { labels }
    }

    fn flows_to(&self, privileges: &PrivilegeSet) -> bool {
        self.labels
            .iter()
            .filter(|l| l.is_confidentiality())
            .all(|l| privileges.has_clearance(l))
    }

    fn filter_kind(&self, kind: LabelKind) -> Model {
        Model {
            labels: self
                .labels
                .iter()
                .filter(|l| l.kind() == kind)
                .cloned()
                .collect(),
        }
    }

    fn blocking(&self, privileges: &PrivilegeSet) -> Vec<Label> {
        self.labels
            .iter()
            .filter(|l| l.is_confidentiality() && !privileges.has_clearance(l))
            .cloned()
            .collect()
    }
}

/// One step of a random operation sequence, applied to both sides.
#[derive(Debug, Clone)]
enum Op {
    Insert(Label),
    Remove(Label),
    Union(Vec<Label>),
    Intersection(Vec<Label>),
    Combine(Vec<Label>),
    /// `Relabel::keep().remove(label)`, under privileges over `label`.
    RelabelRemove(Label),
    /// `Relabel::keep().add(label)`, under privileges over `label`.
    RelabelAdd(Label),
}

fn arb_label() -> impl Strategy<Value = Label> {
    let kind = prop_oneof![Just(LabelKind::Confidentiality), Just(LabelKind::Integrity)];
    let authority = prop_oneof![Just("ecric.org.uk"), Just("nhs.uk")];
    let path = prop_oneof![
        Just("patient/1".to_string()),
        Just("patient/2".to_string()),
        Just("mdt/a".to_string()),
        Just("mdt/b".to_string()),
        Just("region/east".to_string()),
        Just("ok".to_string()),
    ];
    (kind, authority, path).prop_map(|(k, a, p)| Label::new(k, a, &p).unwrap())
}

fn arb_labels() -> impl Strategy<Value = Vec<Label>> {
    proptest::collection::vec(arb_label(), 0..5)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_label().prop_map(Op::Insert),
        arb_label().prop_map(Op::Remove),
        arb_labels().prop_map(Op::Union),
        arb_labels().prop_map(Op::Intersection),
        arb_labels().prop_map(Op::Combine),
        arb_label().prop_map(Op::RelabelRemove),
        arb_label().prop_map(Op::RelabelAdd),
    ]
}

/// A privilege set granting clearance+declassify+endorse over `labels`, so
/// every relabel op in the random walk is allowed.
fn all_privileges(labels: &[Label]) -> PrivilegeSet {
    let mut privs = PrivilegeSet::new();
    for label in labels {
        if label.is_confidentiality() {
            privs.grant(Privilege::clearance(label.clone()));
            privs.grant(Privilege::declassify(label.clone()));
        } else {
            privs.grant(Privilege::endorse(label.clone()));
        }
    }
    privs
}

fn arb_privileges() -> impl Strategy<Value = PrivilegeSet> {
    proptest::collection::vec(arb_label(), 0..5).prop_map(|labels| {
        labels
            .into_iter()
            .filter(|l| l.is_confidentiality())
            .map(Privilege::clearance)
            .collect::<PrivilegeSet>()
    })
}

/// Every observation the two implementations share, compared in one place.
fn assert_agrees(set: &LabelSet, model: &Model, probes: &[PrivilegeSet]) {
    let got: Vec<Label> = set.iter().cloned().collect();
    let want: Vec<Label> = model.labels.iter().cloned().collect();
    assert_eq!(got, want, "contents diverged");
    assert_eq!(set.len(), model.labels.len());
    assert_eq!(set.is_empty(), model.labels.is_empty());

    let conf: Vec<Label> = set.confidentiality().iter().cloned().collect();
    let conf_model: Vec<Label> = model
        .filter_kind(LabelKind::Confidentiality)
        .labels
        .into_iter()
        .collect();
    assert_eq!(conf, conf_model, "confidentiality projection diverged");
    let int: Vec<Label> = set.integrity().iter().cloned().collect();
    let int_model: Vec<Label> = model
        .filter_kind(LabelKind::Integrity)
        .labels
        .into_iter()
        .collect();
    assert_eq!(int, int_model, "integrity projection diverged");

    for privs in probes {
        assert_eq!(
            set.flows_to(privs),
            model.flows_to(privs),
            "flows_to diverged for {privs}"
        );
        assert_eq!(
            set.blocking_labels(privs),
            model.blocking(privs),
            "blocking_labels diverged for {privs}"
        );
    }
}

proptest! {
    /// The interned implementation tracks the BTreeSet model through
    /// arbitrary operation sequences, under every shared observation —
    /// including the memoised `flows_to`, probed repeatedly so both the
    /// memo-miss and memo-hit paths are exercised.
    #[test]
    fn interned_lattice_matches_btreeset_oracle(
        init in arb_labels(),
        ops in proptest::collection::vec(arb_op(), 0..12),
        probes in proptest::collection::vec(arb_privileges(), 1..4),
    ) {
        let mut set = LabelSet::from_iter(init.clone());
        let mut model = Model::from_labels(&init);
        assert_agrees(&set, &model, &probes);

        for op in ops {
            match op {
                Op::Insert(label) => {
                    set.insert(label.clone());
                    model.insert(label);
                }
                Op::Remove(label) => {
                    set.remove_unchecked(&label);
                    model.remove(&label);
                }
                Op::Union(labels) => {
                    set = set.union(&LabelSet::from_iter(labels.clone()));
                    model = model.union(&Model::from_labels(&labels));
                }
                Op::Intersection(labels) => {
                    set = set.intersection(&LabelSet::from_iter(labels.clone()));
                    model = model.intersection(&Model::from_labels(&labels));
                }
                Op::Combine(labels) => {
                    set = set.combine(&LabelSet::from_iter(labels.clone()));
                    model = model.combine(&Model::from_labels(&labels));
                }
                Op::RelabelRemove(label) => {
                    let privs = all_privileges(std::slice::from_ref(&label));
                    let relabel = Relabel::keep().remove(label.clone());
                    set = relabel.apply(set, &privs, false).expect("privileges cover it");
                    model.remove(&label);
                }
                Op::RelabelAdd(label) => {
                    let privs = all_privileges(std::slice::from_ref(&label));
                    let relabel = Relabel::keep().add(label.clone());
                    set = relabel.apply(set, &privs, false).expect("privileges cover it");
                    model.insert(label);
                }
            }
            assert_agrees(&set, &model, &probes);
        }

        // Probe flows_to twice more: the second round is guaranteed to be
        // memo hits and must still agree with the model.
        assert_agrees(&set, &model, &probes);
    }

    /// Interned identity is extensional: two sets built by different
    /// operation orders have equal ids iff the model says their contents
    /// are equal.
    #[test]
    fn id_equality_is_content_equality(a in arb_labels(), b in arb_labels()) {
        let sa = LabelSet::from_iter(a.clone());
        let sb = LabelSet::from_iter(b.clone());
        let ma = Model::from_labels(&a);
        let mb = Model::from_labels(&b);
        prop_assert_eq!(sa.id() == sb.id(), ma == mb);
        prop_assert_eq!(sa == sb, ma == mb);
    }
}
