//! The relabel rule (§4.3): how a principal may change the labels of what
//! it outputs, under the privileges the policy gives it (§4.1). One rule,
//! applied by the engine's jail to every publish and store write of a
//! unit, and by the STOMP server to the labels of every `SEND`:
//!
//! * a confidentiality label may be added by anyone, and removed only
//!   under `declassify` or `privileged`;
//! * an integrity label may be removed by anyone, and added only under
//!   `endorse` or `privileged`.

use std::fmt;

use crate::label::Label;
use crate::privilege::PrivilegeSet;
use crate::set::LabelSet;

/// Label adjustments a unit may request when publishing or storing,
/// mirroring Listing 1's `:add => [...], :remove => $LABELS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Relabel {
    add: Vec<Label>,
    remove: RemoveSpec,
}

/// Which labels to remove from `$LABELS` on output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RemoveSpec {
    /// Keep all labels (the default).
    #[default]
    None,
    /// Remove every current label — Listing 1's `:remove => $LABELS`.
    All,
    /// Remove the listed labels.
    Labels(Vec<Label>),
}

/// A label change the relabel rule refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelabelError {
    /// Removes a confidentiality label without `declassify` over it.
    DeclassificationDenied(Label),
    /// Adds an integrity label without `endorse` over it.
    EndorsementDenied(Label),
}

impl fmt::Display for RelabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelabelError::DeclassificationDenied(l) => {
                write!(f, "declassification denied for {l}")
            }
            RelabelError::EndorsementDenied(l) => write!(f, "endorsement denied for {l}"),
        }
    }
}

impl std::error::Error for RelabelError {}

impl Relabel {
    /// No adjustment: output carries `$LABELS` unchanged.
    pub fn keep() -> Relabel {
        Relabel::default()
    }

    /// Adds a label to the output (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, label: Label) -> Relabel {
        self.add.push(label);
        self
    }

    /// Removes every ambient label (requires declassification for each
    /// confidentiality label).
    pub fn remove_all(mut self) -> Relabel {
        self.remove = RemoveSpec::All;
        self
    }

    /// Removes one label (requires declassification if confidentiality).
    pub fn remove(mut self, label: Label) -> Relabel {
        match &mut self.remove {
            RemoveSpec::Labels(v) => v.push(label),
            RemoveSpec::None => self.remove = RemoveSpec::Labels(vec![label]),
            RemoveSpec::All => {}
        }
        self
    }

    /// (`input` − removals) ∪ additions, if a principal holding
    /// `privileges` (declared `privileged` or not) may make that change
    /// ([`check_relabel`]).
    ///
    /// # Errors
    ///
    /// The first label change the rule refuses: removals in request
    /// order, then additions.
    pub fn apply(
        &self,
        input: LabelSet,
        privileges: &PrivilegeSet,
        privileged: bool,
    ) -> Result<LabelSet, RelabelError> {
        let present = input.iter().as_slice();
        check_relabel(present, &self.remove, &self.add, privileges, privileged)?;
        let mut labels = match &self.remove {
            RemoveSpec::None => input,
            RemoveSpec::All => LabelSet::new(),
            RemoveSpec::Labels(to_remove) => {
                let mut labels = input;
                for l in to_remove {
                    labels.remove_unchecked(l);
                }
                labels
            }
        };
        for l in &self.add {
            labels.insert(l.clone());
        }
        Ok(labels)
    }
}

/// The relabel rule: whether a principal holding `privileges`, declared
/// `privileged` or not, may remove `remove` from the labels `input` and
/// add `add`. Removing a label `input` lacks changes nothing and is
/// allowed. Allocates and interns nothing unless it refuses.
///
/// # Errors
///
/// The first label change the rule refuses: removals in request order,
/// then additions.
pub fn check_relabel(
    input: &[Label],
    remove: &RemoveSpec,
    add: &[Label],
    privileges: &PrivilegeSet,
    privileged: bool,
) -> Result<(), RelabelError> {
    if privileged {
        // Privileged units may declassify anything they received (§4.3);
        // their power is limited by withholding clearance.
        return Ok(());
    }
    let removed = match remove {
        RemoveSpec::None => &[][..],
        RemoveSpec::All => input,
        RemoveSpec::Labels(to_remove) => to_remove,
    };
    for l in removed {
        if l.is_confidentiality() && !privileges.can_declassify(l) && input.contains(l) {
            return Err(RelabelError::DeclassificationDenied(l.clone()));
        }
    }
    for l in add {
        if l.is_integrity() && !privileges.can_endorse(l) {
            return Err(RelabelError::EndorsementDenied(l.clone()));
        }
    }
    Ok(())
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
    fn removing_a_confidentiality_label_requires_declassify() {
        let set = LabelSet::singleton(conf("patient/1"));
        let relabel = Relabel::keep().remove(conf("patient/1"));
        assert_eq!(
            relabel.apply(set, &PrivilegeSet::new(), false),
            Err(RelabelError::DeclassificationDenied(conf("patient/1")))
        );

        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("patient/1")));
        assert_eq!(relabel.apply(set, &privs, false), Ok(LabelSet::new()));
    }

    #[test]
    fn adding_an_integrity_label_requires_endorse() {
        let relabel = Relabel::keep().add(int("mdt"));
        assert_eq!(
            relabel.apply(LabelSet::new(), &PrivilegeSet::new(), false),
            Err(RelabelError::EndorsementDenied(int("mdt")))
        );
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::endorse(int("mdt")));
        assert_eq!(
            relabel.apply(LabelSet::new(), &privs, false),
            Ok(LabelSet::singleton(int("mdt")))
        );
    }

    /// The other two changes are free: adding confidentiality only
    /// restricts the data, and dropping integrity only stops vouching
    /// for it.
    #[test]
    fn adding_confidentiality_and_dropping_integrity_are_free() {
        let set = LabelSet::singleton(int("mdt"));
        let relabel = Relabel::keep().remove_all().add(conf("list"));
        assert_eq!(
            relabel.apply(set, &PrivilegeSet::new(), false),
            Ok(LabelSet::singleton(conf("list")))
        );
    }
}
