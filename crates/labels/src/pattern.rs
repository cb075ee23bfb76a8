//! Label patterns used in policy files to grant privileges over families of
//! labels (e.g. every per-MDT label) without enumerating them.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseLabelError;
use crate::label::{Label, LabelKind};

/// A pattern over [`Label`]s.
///
/// A pattern looks like a label URI whose path may end in `/*` (matching any
/// suffix below that path) or be exactly `*` (matching any path under the
/// authority, including the empty path):
///
/// ```
/// use safeweb_labels::{Label, LabelPattern};
///
/// let p: LabelPattern = "label:conf:ecric.org.uk/mdt/*".parse()?;
/// assert!(p.matches(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
/// assert!(!p.matches(&Label::conf("ecric.org.uk", "patient/1")));
/// # Ok::<(), safeweb_labels::ParseLabelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelPattern {
    kind: LabelKind,
    authority: String,
    path: PathPattern,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PathPattern {
    /// Matches exactly this path.
    Exact(String),
    /// Matches `prefix` itself and any path of the form `prefix/...`.
    /// An empty prefix matches every path.
    Prefix(String),
}

impl LabelPattern {
    /// A pattern matching exactly one label.
    pub fn exact(label: Label) -> LabelPattern {
        LabelPattern {
            kind: label.kind(),
            authority: label.authority().to_string(),
            path: PathPattern::Exact(label.path().to_string()),
        }
    }

    /// A pattern matching `prefix` and everything below it under
    /// `authority`. An empty `prefix` matches every label of that kind at
    /// that authority.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLabelError`] if the components are not valid label
    /// syntax.
    pub fn prefix(
        kind: LabelKind,
        authority: &str,
        prefix: &str,
    ) -> Result<LabelPattern, ParseLabelError> {
        // Reuse label validation for the components.
        Label::new(kind, authority, prefix)?;
        Ok(LabelPattern {
            kind,
            authority: authority.to_string(),
            path: PathPattern::Prefix(prefix.to_string()),
        })
    }

    /// Whether `label` is matched by this pattern.
    pub fn matches(&self, label: &Label) -> bool {
        if label.kind() != self.kind || label.authority() != self.authority {
            return false;
        }
        match &self.path {
            PathPattern::Exact(p) => label.path() == p,
            PathPattern::Prefix(p) => {
                if p.is_empty() {
                    true
                } else {
                    label.path() == p
                        || label
                            .path()
                            .strip_prefix(p.as_str())
                            .is_some_and(|rest| rest.starts_with('/'))
                }
            }
        }
    }

    /// The label kind this pattern applies to.
    pub fn kind(&self) -> LabelKind {
        self.kind
    }

    /// The authority this pattern applies to.
    pub fn authority(&self) -> &str {
        &self.authority
    }
}

impl fmt::Display for LabelPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            PathPattern::Exact(p) if p.is_empty() => {
                write!(f, "label:{}:{}", self.kind.scheme(), self.authority)
            }
            PathPattern::Exact(p) => {
                write!(f, "label:{}:{}/{}", self.kind.scheme(), self.authority, p)
            }
            PathPattern::Prefix(p) if p.is_empty() => {
                write!(f, "label:{}:{}/*", self.kind.scheme(), self.authority)
            }
            PathPattern::Prefix(p) => {
                write!(f, "label:{}:{}/{}/*", self.kind.scheme(), self.authority, p)
            }
        }
    }
}

impl FromStr for LabelPattern {
    type Err = ParseLabelError;

    /// Parses either a plain label URI (exact match) or a URI whose path
    /// ends in `/*` (prefix match).
    fn from_str(s: &str) -> Result<LabelPattern, ParseLabelError> {
        if let Some(stem) = s.strip_suffix("/*") {
            let label: Label = stem.parse()?;
            LabelPattern::prefix(label.kind(), label.authority(), label.path())
        } else {
            let label: Label = s.parse()?;
            Ok(LabelPattern::exact(label))
        }
    }
}

impl From<Label> for LabelPattern {
    fn from(label: Label) -> LabelPattern {
        LabelPattern::exact(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `p` can match more than one label.
    fn is_wildcard(p: &LabelPattern) -> bool {
        matches!(p.path, PathPattern::Prefix(_))
    }

    #[test]
    fn exact_pattern_matches_only_itself() {
        let p = LabelPattern::exact(Label::conf("e", "mdt/a"));
        assert!(p.matches(&Label::conf("e", "mdt/a")));
        assert!(!p.matches(&Label::conf("e", "mdt/a/sub")));
        assert!(!p.matches(&Label::conf("e", "mdt")));
        assert!(!p.matches(&Label::int("e", "mdt/a")));
        assert!(!is_wildcard(&p));
    }

    #[test]
    fn prefix_pattern_matches_subtree() {
        let p: LabelPattern = "label:conf:e/mdt/*".parse().unwrap();
        assert!(p.matches(&Label::conf("e", "mdt")));
        assert!(p.matches(&Label::conf("e", "mdt/a")));
        assert!(p.matches(&Label::conf("e", "mdt/a/b")));
        assert!(!p.matches(&Label::conf("e", "mdtx")));
        assert!(!p.matches(&Label::conf("e", "patient/1")));
        assert!(is_wildcard(&p));
    }

    #[test]
    fn authority_wildcard() {
        let p: LabelPattern = "label:conf:e/*".parse().unwrap();
        assert!(p.matches(&Label::conf("e", "anything")));
        assert!(p.matches(&Label::conf("e", "")));
        assert!(!p.matches(&Label::conf("other", "anything")));
    }

    #[test]
    fn kind_must_match() {
        let p: LabelPattern = "label:int:e/mdt/*".parse().unwrap();
        assert!(p.matches(&Label::int("e", "mdt/a")));
        assert!(!p.matches(&Label::conf("e", "mdt/a")));
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "label:conf:e/mdt/a",
            "label:conf:e/mdt/*",
            "label:int:e/*",
            "label:conf:e",
        ] {
            let p: LabelPattern = s.parse().unwrap();
            assert_eq!(p.to_string(), s, "pattern {s}");
            let again: LabelPattern = p.to_string().parse().unwrap();
            assert_eq!(again, p);
        }
    }

    #[test]
    fn rejects_inner_star() {
        // A `*` that is not the final path segment is just an ordinary
        // character and must fail label validation? No: '*' is allowed in
        // label paths only when it is the trailing wildcard. Parsing
        // "label:conf:e/a*" treats it as an exact label containing '*',
        // which we accept as Label syntax but it will never be produced by
        // honest label constructors. Ensure it at least does not act as a
        // wildcard.
        let p: LabelPattern = "label:conf:e/a*".parse().unwrap();
        assert!(!is_wildcard(&p));
        assert!(!p.matches(&Label::conf("e", "ab")));
    }
}
