//! Labelled numbers: the paper's taint-tracking library also redefines
//! Ruby's `Numeric` subclasses (§4.4).

use std::ops::{Add, Div, Mul, Sub};

use safeweb_labels::{Label, LabelSet, PrivilegeSet};

use crate::sstr::{check_labels, ReleaseError, SStr};

/// A labelled 64-bit integer. Arithmetic between labelled numbers unions
/// their labels, mirroring [`SStr`] concatenation.
///
/// ```
/// use safeweb_taint::SNum;
/// use safeweb_labels::Label;
///
/// let a = SNum::labelled(40, [Label::conf("e", "mdt/a")]);
/// let b = SNum::labelled(2, [Label::conf("e", "mdt/b")]);
/// let c = a + b;
/// assert_eq!(c.value(), 42);
/// assert_eq!(c.labels().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SNum {
    value: i64,
    labels: LabelSet,
}

impl SNum {
    /// A public (unlabelled) number.
    pub fn public(value: i64) -> SNum {
        SNum {
            value,
            labels: LabelSet::new(),
        }
    }

    /// A labelled number.
    pub fn labelled(value: i64, labels: impl IntoIterator<Item = Label>) -> SNum {
        SNum {
            value,
            labels: labels.into_iter().collect(),
        }
    }

    /// A number with an existing label set.
    pub fn with_label_set(value: i64, labels: LabelSet) -> SNum {
        SNum { value, labels }
    }

    /// The raw value (inspection, not release).
    pub fn value(&self) -> i64 {
        self.value
    }

    /// The labels attached.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Attaches an extra label.
    pub fn with_label(mut self, label: Label) -> SNum {
        self.labels.insert(label);
        self
    }

    fn combine(&self, value: i64, other: &SNum) -> SNum {
        SNum {
            value,
            labels: self.labels.union(&other.labels),
        }
    }

    /// Converts to a labelled string (e.g. for template interpolation).
    pub fn to_sstr(&self) -> SStr {
        SStr::with_label_set(self.value.to_string(), self.labels)
    }

    /// Boundary check, like [`SStr::check_release`].
    ///
    /// # Errors
    ///
    /// Returns [`ReleaseError`] naming the blocking labels.
    pub fn check_release(&self, privileges: &PrivilegeSet) -> Result<i64, ReleaseError> {
        check_labels(&self.labels, privileges)?;
        Ok(self.value)
    }

    /// Checked division: `None` on division by zero, labels still combined.
    pub fn checked_div(&self, rhs: &SNum) -> Option<SNum> {
        self.value
            .checked_div(rhs.value)
            .map(|v| self.combine(v, rhs))
    }
}

impl Add for SNum {
    type Output = SNum;

    fn add(self, rhs: SNum) -> SNum {
        self.combine(self.value.wrapping_add(rhs.value), &rhs)
    }
}

impl Sub for SNum {
    type Output = SNum;

    fn sub(self, rhs: SNum) -> SNum {
        self.combine(self.value.wrapping_sub(rhs.value), &rhs)
    }
}

impl Mul for SNum {
    type Output = SNum;

    fn mul(self, rhs: SNum) -> SNum {
        self.combine(self.value.wrapping_mul(rhs.value), &rhs)
    }
}

impl Div for SNum {
    type Output = SNum;

    /// # Panics
    ///
    /// Panics on division by zero, like `i64`; use [`SNum::checked_div`]
    /// for a fallible alternative.
    fn div(self, rhs: SNum) -> SNum {
        self.combine(self.value / rhs.value, &rhs)
    }
}

impl From<i64> for SNum {
    fn from(v: i64) -> SNum {
        SNum::public(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::Privilege;

    fn l(p: &str) -> Label {
        Label::conf("e", p)
    }

    #[test]
    fn arithmetic_unions_labels() {
        let a = SNum::labelled(10, [l("a")]);
        let b = SNum::labelled(4, [l("b")]);
        assert_eq!((a.clone() + b.clone()).value(), 14);
        assert_eq!((a.clone() - b.clone()).value(), 6);
        assert_eq!((a.clone() * b.clone()).value(), 40);
        assert_eq!((a.clone() / b.clone()).value(), 2);
        for op in [
            a.clone() + b.clone(),
            a.clone() - b.clone(),
            a.clone() * b.clone(),
            a / b,
        ] {
            assert!(op.labels().contains(&l("a")));
            assert!(op.labels().contains(&l("b")));
        }
    }

    #[test]
    fn checked_div_by_zero() {
        let a = SNum::labelled(10, [l("a")]);
        assert!(a.checked_div(&SNum::public(0)).is_none());
        assert_eq!(a.checked_div(&SNum::public(2)).unwrap().value(), 5);
    }

    #[test]
    fn to_sstr_carries_labels() {
        let n = SNum::labelled(7, [l("a")]);
        let s = n.to_sstr();
        assert_eq!(s.as_str(), "7");
        assert!(s.labels().contains(&l("a")));
    }

    #[test]
    fn release_check() {
        let n = SNum::labelled(7, [l("a")]);
        assert!(n.check_release(&PrivilegeSet::new()).is_err());
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(l("a")));
        assert_eq!(n.check_release(&privs).unwrap(), 7);
    }
}
