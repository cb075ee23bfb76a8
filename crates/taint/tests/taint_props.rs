//! Property tests for taint propagation: the fundamental invariant is that
//! the labels of any derived value are a superset of the union of its
//! inputs' labels (no operation launders labels away), and the user-taint
//! bit survives everything except explicit sanitisation.

use proptest::prelude::*;
use safeweb_json::jobject;
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_taint::{SNum, SStr, SValue};

fn arb_labels() -> impl Strategy<Value = Vec<Label>> {
    proptest::collection::vec(
        prop_oneof![
            Just(Label::conf("e", "p/1")),
            Just(Label::conf("e", "p/2")),
            Just(Label::conf("e", "mdt/a")),
            Just(Label::int("e", "ok")),
        ],
        0..3,
    )
}

fn arb_sstr() -> impl Strategy<Value = SStr> {
    ("[a-zA-Z0-9 ]{0,12}", arb_labels(), any::<bool>()).prop_map(|(s, ls, tainted)| {
        let base = if tainted {
            SStr::from_user(s)
        } else {
            SStr::public(s)
        };
        base + &SStr::labelled("", ls)
    })
}

/// An operation applied to one or two labelled strings.
#[derive(Debug, Clone)]
enum Op {
    Concat,
    Replace,
    Upper,
    Lower,
    Trim,
    SplitFirst,
    Join,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Concat),
        Just(Op::Replace),
        Just(Op::Upper),
        Just(Op::Lower),
        Just(Op::Trim),
        Just(Op::SplitFirst),
        Just(Op::Join),
    ]
}

fn apply(op: &Op, a: &SStr, b: &SStr) -> SStr {
    match op {
        Op::Concat => a.concat(b),
        Op::Replace => a.replace("a", b),
        Op::Upper => a.to_uppercase(),
        Op::Lower => a.to_lowercase(),
        Op::Trim => a.trim(),
        Op::SplitFirst => a.split(" ").into_iter().next().unwrap_or_else(|| a.clone()),
        Op::Join => SStr::join([a, b], "-"),
    }
}

fn uses_both(op: &Op) -> bool {
    matches!(op, Op::Concat | Op::Replace | Op::Join)
}

proptest! {
    /// Labels never disappear: result labels ⊇ a's labels (and ⊇ b's for
    /// binary ops).
    #[test]
    fn label_monotonicity(a in arb_sstr(), b in arb_sstr(), ops in proptest::collection::vec(arb_op(), 1..5)) {
        let mut acc = a.clone();
        let mut expected = *a.labels();
        for op in &ops {
            acc = apply(op, &acc, &b);
            if uses_both(op) {
                expected = expected.union(b.labels());
            }
            prop_assert!(expected.is_subset(acc.labels()),
                "after {:?}: expected {} ⊆ {}", op, expected, acc.labels());
        }
    }

    /// The user-taint bit survives every (non-sanitising) operation chain
    /// whenever any input was tainted.
    #[test]
    fn taint_bit_sticks(a in arb_sstr(), b in arb_sstr(), ops in proptest::collection::vec(arb_op(), 1..5)) {
        let mut acc = a.clone();
        let mut expect_tainted = a.is_user_tainted();
        for op in &ops {
            acc = apply(op, &acc, &b);
            if uses_both(op) {
                expect_tainted |= b.is_user_tainted();
            }
            if expect_tainted {
                prop_assert!(acc.is_user_tainted(), "taint lost after {:?}", op);
            }
        }
        // Sanitising clears it regardless of history.
        prop_assert!(!acc.sanitize_html().is_user_tainted());
    }

    /// Appending into one buffer is concatenating values: the same bytes,
    /// exactly the union of the pieces' labels however often a set
    /// repeats, and a taint bit only from pieces appended unsanitised.
    #[test]
    fn in_place_appends_equal_the_by_value_forms(
        pieces in proptest::collection::vec((arb_sstr(), 0usize..3), 0..12),
    ) {
        let mut out = SStr::public("");
        let mut expected = SStr::public("");
        for (piece, how) in &pieces {
            match how {
                0 => {
                    out.push_sstr(piece);
                    expected = expected.concat(piece);
                }
                1 => {
                    out.push_html_escaped(piece.as_str(), piece.labels());
                    expected = expected.concat(&piece.sanitize_html());
                }
                _ => {
                    out.append_labelled(piece.labels()).push_str(piece.as_str());
                    let untainted = SStr::with_label_set(piece.as_str(), *piece.labels());
                    expected = expected.concat(&untainted);
                }
            }
            prop_assert_eq!(&out, &expected);
        }
    }

    /// Writing a labelled document into a buffer is appending its
    /// labelled serialisation; its own release checks before serialising
    /// and agrees with the string's.
    #[test]
    fn svalue_writes_and_releases_like_its_json_string(ls in arb_labels(), n in -50i64..50) {
        let doc = SValue::labelled(jobject! {"n" => n, "s" => "<&>"}, ls.clone());
        let json = doc.to_json_sstr();
        let mut out = SStr::public("[");
        doc.write_json(&mut out);
        prop_assert_eq!(&out, &SStr::public("[").concat(&json));
        // A field read through `get` carries the document's labels.
        let field = doc.get("n").unwrap().to_json_sstr();
        prop_assert_eq!(field, SStr::with_label_set(n.to_string(), *doc.labels()));
        let full: PrivilegeSet = ls.iter().cloned().map(Privilege::clearance).collect();
        for privs in [full, PrivilegeSet::new()] {
            prop_assert_eq!(
                doc.check_release(&privs),
                json.check_release(&privs).map(str::to_string)
            );
            prop_assert_eq!(json.clone().release(&privs), doc.check_release(&privs));
        }
    }

    /// check_release agrees exactly with LabelSet::flows_to.
    #[test]
    fn release_matches_flow_semantics(s in arb_sstr()) {
        // Grant clearance for every label: must release.
        let full: PrivilegeSet = s.labels().iter().cloned().map(Privilege::clearance).collect();
        prop_assert!(s.check_release(&full).is_ok());
        // With no privileges, release succeeds iff no confidentiality labels.
        let empty_ok = s.check_release(&PrivilegeSet::new()).is_ok();
        prop_assert_eq!(empty_ok, s.labels().confidentiality().is_empty());
    }

    /// SNum arithmetic labels = union of operand labels.
    #[test]
    fn snum_labels_union(la in arb_labels(), lb in arb_labels(), x in -1000i64..1000, y in -1000i64..1000) {
        let a = SNum::labelled(x, la.clone());
        let b = SNum::labelled(y, lb.clone());
        let sum = a + b;
        let expected: LabelSet = la.into_iter().chain(lb).collect();
        prop_assert_eq!(sum.labels(), &expected);
    }

    /// Sanitised HTML never contains raw metacharacters.
    #[test]
    fn sanitize_html_removes_metachars(s in "\\PC{0,24}") {
        let out = SStr::from_user(s).sanitize_html();
        prop_assert!(!out.as_str().contains('<'));
        prop_assert!(!out.as_str().contains('>'));
        prop_assert!(!out.as_str().contains('"'));
    }
}
