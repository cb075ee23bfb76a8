//! Security labels, represented as URIs as in §4.1 of the paper.
//!
//! A label such as `label:conf:ecric.org.uk/patient/33812769` protects the
//! confidentiality of one patient's data, while `label:int:ecric.org.uk/mdt`
//! asserts the integrity of data produced within the MDT application.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::error::ParseLabelError;

/// The kind of protection a [`Label`] provides.
///
/// Confidentiality labels are *sticky*: once attached to a datum, every datum
/// derived from it inherits them. Integrity labels are *fragile*: a derived
/// datum keeps an integrity label only if **all** of its inputs carried it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LabelKind {
    /// Prevents sensitive data from escaping a system boundary (`label:conf:`).
    Confidentiality,
    /// Prevents low-integrity data from entering parts of an application
    /// (`label:int:`).
    Integrity,
}

impl LabelKind {
    /// The URI scheme segment for this kind (`"conf"` or `"int"`).
    pub fn scheme(self) -> &'static str {
        match self {
            LabelKind::Confidentiality => "conf",
            LabelKind::Integrity => "int",
        }
    }
}

impl fmt::Display for LabelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.scheme())
    }
}

/// A single security label.
///
/// Labels are URIs of the form `label:<kind>:<authority>/<path>`, where
/// `<authority>` names the organisation that minted the label and `<path>`
/// identifies the protected resource (possibly hierarchical).
///
/// ```
/// use safeweb_labels::{Label, LabelKind};
///
/// let l: Label = "label:conf:ecric.org.uk/patient/33812769".parse()?;
/// assert_eq!(l.kind(), LabelKind::Confidentiality);
/// assert_eq!(l.authority(), "ecric.org.uk");
/// assert_eq!(l.path(), "patient/33812769");
/// # Ok::<(), safeweb_labels::ParseLabelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    kind: LabelKind,
    // Shared strings: labels are cloned on every event delivery and label
    // set union, so cloning must be cheap (two refcount bumps).
    authority: Arc<str>,
    path: Arc<str>,
}

impl Label {
    /// Creates a confidentiality label for `authority` and `path`.
    ///
    /// # Panics
    ///
    /// Panics if `authority` or `path` is syntactically invalid; use
    /// [`Label::new`] for fallible construction.
    pub fn conf(authority: &str, path: &str) -> Label {
        Label::new(LabelKind::Confidentiality, authority, path)
            .expect("invalid confidentiality label components")
    }

    /// Creates an integrity label for `authority` and `path`.
    ///
    /// # Panics
    ///
    /// Panics if `authority` or `path` is syntactically invalid; use
    /// [`Label::new`] for fallible construction.
    pub fn int(authority: &str, path: &str) -> Label {
        Label::new(LabelKind::Integrity, authority, path)
            .expect("invalid integrity label components")
    }

    /// Creates a label, validating its components.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLabelError`] if the authority is empty or either
    /// component contains whitespace, commas or control characters (these
    /// would break the header encoding used on the wire).
    pub fn new(kind: LabelKind, authority: &str, path: &str) -> Result<Label, ParseLabelError> {
        validate_component(authority, "authority")?;
        if authority.is_empty() {
            return Err(ParseLabelError::new("label authority must not be empty"));
        }
        if !path.is_empty() {
            validate_component(path, "path")?;
        }
        Ok(Label {
            kind,
            authority: Arc::from(authority),
            path: Arc::from(path),
        })
    }

    /// The protection kind of this label.
    pub fn kind(&self) -> LabelKind {
        self.kind
    }

    /// Whether this is a confidentiality label.
    pub fn is_confidentiality(&self) -> bool {
        self.kind == LabelKind::Confidentiality
    }

    /// Whether this is an integrity label.
    pub fn is_integrity(&self) -> bool {
        self.kind == LabelKind::Integrity
    }

    /// The organisation that minted this label, e.g. `ecric.org.uk`.
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// The resource path protected by this label, e.g. `patient/33812769`.
    /// May be empty for an authority-wide label.
    pub fn path(&self) -> &str {
        &self.path
    }
}

fn validate_component(s: &str, what: &str) -> Result<(), ParseLabelError> {
    for ch in s.chars() {
        if ch.is_whitespace() || ch == ',' || ch.is_control() {
            return Err(ParseLabelError::new(format!(
                "label {what} contains forbidden character {ch:?}"
            )));
        }
    }
    Ok(())
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "label:{}:{}", self.kind.scheme(), self.authority)
        } else {
            write!(
                f,
                "label:{}:{}/{}",
                self.kind.scheme(),
                self.authority,
                self.path
            )
        }
    }
}

impl FromStr for Label {
    type Err = ParseLabelError;

    /// Parses a label URI of the form `label:conf:<authority>/<path>` or
    /// `label:int:<authority>/<path>`.
    fn from_str(s: &str) -> Result<Label, ParseLabelError> {
        let rest = s.strip_prefix("label:").ok_or_else(|| {
            ParseLabelError::new(format!("label URI must start with `label:`: {s:?}"))
        })?;
        let (scheme, loc) = rest
            .split_once(':')
            .ok_or_else(|| ParseLabelError::new(format!("missing label kind in {s:?}")))?;
        let kind = match scheme {
            "conf" => LabelKind::Confidentiality,
            "int" => LabelKind::Integrity,
            other => {
                return Err(ParseLabelError::new(format!(
                    "unknown label kind {other:?} (expected `conf` or `int`)"
                )))
            }
        };
        let (authority, path) = match loc.split_once('/') {
            Some((a, p)) => (a, p),
            None => (loc, ""),
        };
        Label::new(kind, authority, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_confidentiality_roundtrip() {
        let uri = "label:conf:ecric.org.uk/patient/33812769";
        let l: Label = uri.parse().unwrap();
        assert_eq!(l.kind(), LabelKind::Confidentiality);
        assert_eq!(l.authority(), "ecric.org.uk");
        assert_eq!(l.path(), "patient/33812769");
        assert_eq!(l.to_string(), uri);
    }

    #[test]
    fn parse_integrity_roundtrip() {
        let uri = "label:int:ecric.org.uk/mdt";
        let l: Label = uri.parse().unwrap();
        assert_eq!(l.kind(), LabelKind::Integrity);
        assert_eq!(l.to_string(), uri);
    }

    #[test]
    fn authority_only_label() {
        let l: Label = "label:conf:nhs.uk".parse().unwrap();
        assert_eq!(l.authority(), "nhs.uk");
        assert_eq!(l.path(), "");
        assert_eq!(l.to_string(), "label:conf:nhs.uk");
    }

    #[test]
    fn rejects_bad_scheme() {
        assert!("label:secret:x/y".parse::<Label>().is_err());
        assert!("conf:x/y".parse::<Label>().is_err());
        assert!("label:conf".parse::<Label>().is_err());
    }

    #[test]
    fn rejects_forbidden_characters() {
        assert!(Label::new(LabelKind::Confidentiality, "a b", "p").is_err());
        assert!(Label::new(LabelKind::Confidentiality, "a", "p,q").is_err());
        assert!(Label::new(LabelKind::Confidentiality, "", "p").is_err());
    }

    #[test]
    fn labels_order_deterministically() {
        let a = Label::conf("a.org", "x");
        let b = Label::conf("b.org", "x");
        let i = Label::int("a.org", "x");
        assert!(a < b);
        assert!(a != i);
    }

    #[test]
    fn display_matches_to_uri() {
        let l = Label::conf("ecric.org.uk", "mdt/addenbrookes");
        assert_eq!(format!("{l}"), "label:conf:ecric.org.uk/mdt/addenbrookes");
    }
}
