//! The data-flow policy specification file (§4.1, §5.2).
//!
//! Privileges over labels are assigned to backend *units* through a
//! policy file. The paper highlights that this file (and the scripts
//! editing it) is part of the audited trusted codebase, so the format is
//! deliberately small and line-oriented. Frontend users' privileges are
//! not declared here: they live in the web database (§5.1, the `users`
//! table of `safeweb-web`'s `auth`), and the parser refuses a `user`
//! block rather than silently ignore its grants.
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
//! # A jailed unit cleared to read every MDT's records.
//! unit aggregator {
//!     clearance label:conf:ecric.org.uk/mdt/*
//! }
//! ```

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::error::ParsePolicyError;
use crate::pattern::LabelPattern;
use crate::privilege::{Privilege, PrivilegeKind, PrivilegeSet};

/// One unit's entry in a [`Policy`].
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

    /// Whether the unit is *privileged*: it runs outside the IFC jail
    /// with I/O access and may effectively declassify anything it is
    /// cleared to receive (§4.3), and its STOMP `SEND`s may carry any
    /// integrity label.
    pub fn is_privileged(&self) -> bool {
        self.privileged
    }

    /// Marks the unit as privileged.
    pub fn set_privileged(&mut self, privileged: bool) {
        self.privileged = privileged;
    }

    /// The privileges granted to this unit.
    pub fn privileges(&self) -> &PrivilegeSet {
        &self.privileges
    }

    /// Grants an additional privilege.
    pub fn grant(&mut self, privilege: Privilege) {
        self.privileges.grant(privilege);
    }
}

/// A parsed policy file: privilege assignments for every named unit.
///
/// ```
/// use safeweb_labels::{Label, Policy};
///
/// let text = "
/// unit storage {
///     privileged
///     declassify label:conf:ecric.org.uk/mdt/*
/// }
/// unit mdt1_reader {
///     clearance label:conf:ecric.org.uk/mdt/one
/// }
/// ";
/// let policy: Policy = text.parse()?;
/// let privs = policy.privileges("mdt1_reader");
/// assert!(privs.has_clearance(&Label::conf("ecric.org.uk", "mdt/one")));
/// assert!(policy.is_privileged_unit("storage"));
///
/// // Users' privileges come from the web database, not from here.
/// assert!("user mdt1 {\n}".parse::<Policy>().is_err());
/// # Ok::<(), safeweb_labels::ParsePolicyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    entries: BTreeMap<String, PrincipalPolicy>,
}

impl Policy {
    /// Creates an empty policy: nobody holds any privilege.
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Returns the entry for a unit, creating it if absent.
    pub fn entry(&mut self, name: &str) -> &mut PrincipalPolicy {
        self.entries.entry(name.to_string()).or_default()
    }

    /// Looks up a unit's entry, if declared.
    pub fn get(&self, name: &str) -> Option<&PrincipalPolicy> {
        self.entries.get(name)
    }

    /// The privileges of a unit; units not mentioned in the policy hold
    /// no privileges at all (fail-closed).
    pub fn privileges(&self, name: &str) -> PrivilegeSet {
        self.get(name).map(|e| *e.privileges()).unwrap_or_default()
    }

    /// Whether the named unit is declared `privileged`.
    pub fn is_privileged_unit(&self, name: &str) -> bool {
        self.get(name).is_some_and(|e| e.is_privileged())
    }

    /// Iterates over all `(name, entry)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PrincipalPolicy)> {
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Number of declared units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no unit is declared.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromStr for Policy {
    type Err = ParsePolicyError;

    fn from_str(text: &str) -> Result<Policy, ParsePolicyError> {
        let mut policy = Policy::new();
        let mut current: Option<String> = None;

        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw_line.split_once('#') {
                Some((before, _comment)) => before.trim(),
                None => raw_line.trim(),
            };
            if line.is_empty() {
                continue;
            }

            if let Some(name) = &current {
                if line == "}" {
                    current = None;
                    continue;
                }
                let entry = policy.entry(name);
                if line == "privileged" {
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
                    ParsePolicyError::new(lineno, format!("expected `unit <name> {{`: {line:?}"))
                })?;
                let mut parts = stripped.split_whitespace();
                match parts.next() {
                    Some("unit") => {}
                    Some("user") => {
                        return Err(ParsePolicyError::new(
                            lineno,
                            "only units are declared in a policy file: a user's privileges \
                             come from the web database",
                        ))
                    }
                    other => {
                        return Err(ParsePolicyError::new(
                            lineno,
                            format!("expected `unit`, found {other:?}"),
                        ))
                    }
                }
                let name = parts
                    .next()
                    .ok_or_else(|| ParsePolicyError::new(lineno, "missing unit name before `{`"))?;
                if parts.next().is_some() {
                    return Err(ParsePolicyError::new(
                        lineno,
                        "unexpected tokens after unit name",
                    ));
                }
                if policy.get(name).is_some() {
                    return Err(ParsePolicyError::new(
                        lineno,
                        format!("duplicate declaration of unit {name}"),
                    ));
                }
                current = Some(name.to_string());
                policy.entry(name);
            }
        }

        if let Some(name) = current {
            return Err(ParsePolicyError::new(
                text.lines().count(),
                format!("unterminated block for unit {name} (missing `}}`)"),
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
";

    #[test]
    fn parses_sample_policy() {
        let policy: Policy = SAMPLE.parse().unwrap();
        assert_eq!(policy.len(), 3);
        assert!(policy.is_privileged_unit("data_producer"));
        assert!(policy.is_privileged_unit("data_storage"));
        assert!(!policy.is_privileged_unit("aggregator"));
        assert!(!policy.is_privileged_unit("nonexistent"));

        let storage = policy.privileges("data_storage");
        assert!(storage.can_declassify(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
        assert!(storage.has_clearance(&Label::conf("ecric.org.uk", "patient/42")));

        let aggregator = policy.privileges("aggregator");
        assert!(aggregator.has_clearance(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
        assert!(!aggregator.has_clearance(&Label::conf("ecric.org.uk", "patient/42")));
        assert!(!aggregator.can_declassify(&Label::conf("ecric.org.uk", "mdt/addenbrookes")));
    }

    #[test]
    fn unknown_principal_has_no_privileges() {
        let policy: Policy = SAMPLE.parse().unwrap();
        assert!(policy.privileges("mallory").is_empty());
    }

    #[test]
    fn file_string_roundtrip() {
        let policy: Policy = SAMPLE.parse().unwrap();
        // The policy written back out in its file format.
        let mut text = String::new();
        for (name, entry) in policy.iter() {
            text.push_str(&format!("unit {name} {{\n"));
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
        // Any `user` block, privileged or not, points to the web database.
        let err = "unit x {\n}\nuser mdt_a {\n clearance label:conf:e/mdt/a\n}"
            .parse::<Policy>()
            .unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("web database"), "{err}");
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
