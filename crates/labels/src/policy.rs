//! The data-flow policy specification file (§4.1, §5.2).
//!
//! Privileges over labels are assigned to backend *units* and frontend
//! *users* through a policy file. The paper highlights that this file (and
//! the scripts editing it) is part of the audited trusted codebase, so the
//! format is deliberately small and line-oriented:
//!
//! A unit's entry governs it wherever it acts: inside the engine's jail,
//! and as a STOMP peer that logs in under the unit's name. `declassify`,
//! `endorse` and `privileged` decide, by the relabel rule
//! ([`check_relabel`](crate::check_relabel)), which labels a jailed
//! unit may remove from or add to what it outputs, and which integrity
//! labels a STOMP `SEND` may carry: only those the sender may `endorse`,
//! or any if it is `privileged`.
//!
//! ```text
//! # The storage unit may declassify every MDT label.
//! unit data_storage {
//!     privileged
//!     clearance  label:conf:ecric.org.uk/patient/*
//!     declassify label:conf:ecric.org.uk/mdt/*
//! }
//!
//! user mdt_addenbrookes {
//!     clearance label:conf:ecric.org.uk/mdt/addenbrookes
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::error::ParsePolicyError;
use crate::pattern::LabelPattern;
use crate::privilege::{Privilege, PrivilegeKind, PrivilegeSet};

/// The two kinds of principal a policy can assign privileges to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrincipalKind {
    /// An event-processing unit in the backend.
    Unit,
    /// An authenticated web user in the frontend.
    User,
}

impl PrincipalKind {
    /// Policy-file keyword (`unit` / `user`).
    pub fn keyword(self) -> &'static str {
        match self {
            PrincipalKind::Unit => "unit",
            PrincipalKind::User => "user",
        }
    }
}

impl fmt::Display for PrincipalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One principal's entry in a [`Policy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrincipalPolicy {
    privileged: bool,
    privileges: PrivilegeSet,
}

impl PrincipalPolicy {
    /// Creates an empty, unprivileged entry.
    pub fn new() -> PrincipalPolicy {
        PrincipalPolicy::default()
    }

    /// Whether the principal is a *privileged unit*: it runs outside the IFC
    /// jail with I/O access and may effectively declassify anything it is
    /// cleared to receive (§4.3), and its STOMP `SEND`s may carry any
    /// integrity label. Meaningless for users.
    pub fn is_privileged(&self) -> bool {
        self.privileged
    }

    /// Marks the principal as privileged.
    pub fn set_privileged(&mut self, privileged: bool) {
        self.privileged = privileged;
    }

    /// The privileges granted to this principal.
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.privileges
    }

    /// Grants an additional privilege.
    pub fn grant(&mut self, privilege: Privilege) {
        self.privileges.grant(privilege);
    }
}

/// A parsed policy file: privilege assignments for every named unit and
/// user.
///
/// ```
/// use safeweb_labels::{Label, Policy, PrincipalKind};
///
/// let text = "
/// unit storage {
///     privileged
///     declassify label:conf:ecric.org.uk/mdt/*
/// }
/// user mdt1 {
///     clearance label:conf:ecric.org.uk/mdt/one
/// }
/// ";
/// let policy: Policy = text.parse()?;
/// let privs = policy.privileges(PrincipalKind::User, "mdt1");
/// assert!(privs.has_clearance(&Label::conf("ecric.org.uk", "mdt/one")));
/// # Ok::<(), safeweb_labels::ParsePolicyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    entries: BTreeMap<(PrincipalKind, String), PrincipalPolicy>,
}

impl Policy {
    /// Creates an empty policy: nobody holds any privilege.
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Returns the entry for a principal, creating it if absent.
    pub fn entry(&mut self, kind: PrincipalKind, name: &str) -> &mut PrincipalPolicy {
        self.entries.entry((kind, name.to_string())).or_default()
    }

    /// Looks up a principal's entry, if declared.
    pub fn get(&self, kind: PrincipalKind, name: &str) -> Option<&PrincipalPolicy> {
        self.entries.get(&(kind, name.to_string()))
    }

    /// The privileges of a principal; principals not mentioned in the policy
    /// hold no privileges at all (fail-closed).
    pub fn privileges(&self, kind: PrincipalKind, name: &str) -> PrivilegeSet {
        self.get(kind, name)
            .map(|e| *e.privileges())
            .unwrap_or_default()
    }

    /// Whether the named unit is declared `privileged`.
    pub fn is_privileged_unit(&self, name: &str) -> bool {
        self.get(PrincipalKind::Unit, name)
            .is_some_and(|e| e.is_privileged())
    }

    /// Iterates over all `(kind, name, entry)` triples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (PrincipalKind, &str, &PrincipalPolicy)> {
        self.entries.iter().map(|((k, n), e)| (*k, n.as_str(), e))
    }

    /// Number of declared principals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no principal is declared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromStr for Policy {
    type Err = ParsePolicyError;

    fn from_str(text: &str) -> Result<Policy, ParsePolicyError> {
        let mut policy = Policy::new();
        let mut current: Option<(PrincipalKind, String)> = None;

        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw_line.split_once('#') {
                Some((before, _comment)) => before.trim(),
                None => raw_line.trim(),
            };
            if line.is_empty() {
                continue;
            }

            if let Some((kind, name)) = &current {
                if line == "}" {
                    current = None;
                    continue;
                }
                let entry = policy.entry(*kind, name);
                if line == "privileged" {
                    if *kind != PrincipalKind::Unit {
                        return Err(ParsePolicyError::new(
                            lineno,
                            "only units can be declared privileged",
                        ));
                    }
                    entry.set_privileged(true);
                    continue;
                }
                let (keyword, rest) = line.split_once(char::is_whitespace).ok_or_else(|| {
                    ParsePolicyError::new(
                        lineno,
                        format!("expected `<privilege> <label>`: {line:?}"),
                    )
                })?;
                let priv_kind: PrivilegeKind = keyword
                    .parse()
                    .map_err(|e| ParsePolicyError::new(lineno, format!("{e}")))?;
                let pattern: LabelPattern = rest
                    .trim()
                    .parse()
                    .map_err(|e| ParsePolicyError::new(lineno, format!("{e}")))?;
                entry.grant(Privilege::new(priv_kind, pattern));
            } else {
                let stripped = line.strip_suffix('{').ok_or_else(|| {
                    ParsePolicyError::new(
                        lineno,
                        format!("expected `unit <name> {{` or `user <name> {{`: {line:?}"),
                    )
                })?;
                let mut parts = stripped.split_whitespace();
                let kind = match parts.next() {
                    Some("unit") => PrincipalKind::Unit,
                    Some("user") => PrincipalKind::User,
                    other => {
                        return Err(ParsePolicyError::new(
                            lineno,
                            format!("expected `unit` or `user`, found {other:?}"),
                        ))
                    }
                };
                let name = parts.next().ok_or_else(|| {
                    ParsePolicyError::new(lineno, "missing principal name before `{`")
                })?;
                if parts.next().is_some() {
                    return Err(ParsePolicyError::new(
                        lineno,
                        "unexpected tokens after principal name",
                    ));
                }
                if policy.get(kind, name).is_some() {
                    return Err(ParsePolicyError::new(
                        lineno,
                        format!("duplicate declaration of {kind} {name}"),
                    ));
                }
                current = Some((kind, name.to_string()));
                policy.entry(kind, name);
            }
        }

        if let Some((kind, name)) = current {
            return Err(ParsePolicyError::new(
                text.lines().count(),
                format!("unterminated block for {kind} {name} (missing `}}`)"),
            ));
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    const SAMPLE: &str = "
# MDT portal policy
unit data_producer {
    privileged
    endorse label:int:ecric.org.uk/mdt
}

unit data_storage {
    privileged
    clearance  label:conf:ecric.org.uk/patient/*
    declassify label:conf:ecric.org.uk/mdt/*
}

unit aggregator {
    clearance label:conf:ecric.org.uk/mdt/*   # jailed unit
}

user mdt_addenbrookes {
    clearance label:conf:ecric.org.uk/mdt/addenbrookes
}
";

    #[test]
    fn parses_sample_policy() {
        let policy: Policy = SAMPLE.parse().unwrap();
        assert_eq!(policy.len(), 4);
        assert!(policy.is_privileged_unit("data_producer"));
        assert!(policy.is_privileged_unit("data_storage"));
        assert!(!policy.is_privileged_unit("aggregator"));
        assert!(!policy.is_privileged_unit("nonexistent"));

        let storage = policy.privileges(PrincipalKind::Unit, "data_storage");
        assert!(storage.can_declassify(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
        assert!(storage.has_clearance(&Label::conf("ecric.org.uk", "patient/42")));

        let user = policy.privileges(PrincipalKind::User, "mdt_addenbrookes");
        assert!(user.has_clearance(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
        assert!(!user.has_clearance(&Label::conf("ecric.org.uk", "mdt/papworth")));
        assert!(!user.can_declassify(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
    }

    #[test]
    fn unknown_principal_has_no_privileges() {
        let policy: Policy = SAMPLE.parse().unwrap();
        assert!(policy.privileges(PrincipalKind::User, "mallory").is_empty());
    }

    #[test]
    fn file_string_roundtrip() {
        let policy: Policy = SAMPLE.parse().unwrap();
        // The policy written back out in its file format.
        let mut text = String::new();
        for (kind, name, entry) in policy.iter() {
            text.push_str(&format!("{kind} {name} {{\n"));
            if entry.is_privileged() {
                text.push_str("    privileged\n");
            }
            for p in entry.privileges().iter() {
                text.push_str(&format!("    {} {}\n", p.kind().keyword(), p.pattern()));
            }
            text.push_str("}\n");
        }
        let again: Policy = text.parse().unwrap();
        assert_eq!(policy, again);
    }

    #[test]
    fn error_reports_line_number() {
        let err = "unit x {\n    teleport label:conf:a/b\n}"
            .parse::<Policy>()
            .unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("teleport"));
    }

    #[test]
    fn rejects_privileged_user() {
        let err = "user u {\n privileged \n}".parse::<Policy>().unwrap_err();
        assert!(err.to_string().contains("only units"));
    }

    #[test]
    fn rejects_unterminated_block() {
        assert!("unit x {\n clearance label:conf:a/b\n"
            .parse::<Policy>()
            .is_err());
    }

    #[test]
    fn rejects_duplicate_principal() {
        let err = "unit x {\n}\nunit x {\n}".parse::<Policy>().unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let policy: Policy = "# nothing\n\n   # more\n".parse().unwrap();
        assert!(policy.is_empty());
    }
}
