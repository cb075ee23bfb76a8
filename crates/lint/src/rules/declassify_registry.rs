//! Rule `declassify-registry`: every declassification escape hatch is
//! enumerated in a checked-in registry.
//!
//! `safeq`'s §"Audited declassification" story is that a grep plus the
//! runtime audit log enumerates every place raw user input can shape a
//! query. This rule replaces the grep with a machine check: every call
//! site of
//!
//! * `TrustedLiteral::declassified(…)`,
//! * `Privilege::declassify(…)`,
//! * the taint-clearing sanitisers `.sanitize_html()` /
//!   `.sanitize_sql()` and the former's in-place form
//!   `.push_html_escaped()`
//!
//! must appear in `DECLASSIFY.toml`, keyed by path + marker with an
//! exact site count and a written justification. Adding a declassify
//! site to a registered file without bumping its count fails CI, so
//! the audit surface is closed under review; a registry entry whose
//! file no longer declassifies is flagged as stale.

use std::collections::BTreeMap;

use crate::diag::Finding;
use crate::lexer::Tok;
use crate::toml;
use crate::workspace::Workspace;

const RULE: &str = "declassify-registry";

/// The audited markers, as they appear in `DECLASSIFY.toml`.
pub const MARKERS: [&str; 5] = [
    "TrustedLiteral::declassified",
    "Privilege::declassify",
    "sanitize_html",
    "sanitize_sql",
    "push_html_escaped",
];

/// One `[[site]]` entry of `DECLASSIFY.toml`.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Workspace-relative path of the declassifying file.
    pub path: String,
    /// Which marker (one of [`MARKERS`]).
    pub marker: String,
    /// Exact number of call sites of that marker in that file.
    pub count: i64,
    /// Why these declassifications are acceptable.
    pub justification: String,
    /// Line of the entry in the registry file.
    pub file_line: u32,
}

/// The parsed `DECLASSIFY.toml`.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Entries in file order.
    pub entries: Vec<RegistryEntry>,
}

impl Registry {
    /// Parses registry text.
    ///
    /// # Errors
    ///
    /// A message naming the malformed entry: the registry gates CI, so
    /// a typo must fail loudly.
    pub fn parse(src: &str) -> Result<Registry, String> {
        let raw = toml::parse(src).map_err(|e| format!("DECLASSIFY.toml: {e}"))?;
        let mut entries = Vec::new();
        for entry in raw {
            if entry.header != "site" {
                return Err(format!(
                    "DECLASSIFY.toml line {}: unexpected [[{}]] (only [[site]] is valid)",
                    entry.line, entry.header
                ));
            }
            let field = |k: &str| {
                entry.str(k).map(str::to_string).ok_or_else(|| {
                    format!(
                        "DECLASSIFY.toml line {}: [[site]] missing string `{k}`",
                        entry.line
                    )
                })
            };
            let marker = field("marker")?;
            if !MARKERS.contains(&marker.as_str()) {
                return Err(format!(
                    "DECLASSIFY.toml line {}: unknown marker {marker:?} (expected one of {MARKERS:?})",
                    entry.line
                ));
            }
            let justification = field("justification")?;
            if justification.trim().len() < 10 {
                return Err(format!(
                    "DECLASSIFY.toml line {}: justification must be a written sentence",
                    entry.line
                ));
            }
            let count = entry
                .get("count")
                .and_then(toml::Value::as_int)
                .ok_or_else(|| {
                    format!(
                        "DECLASSIFY.toml line {}: [[site]] missing integer `count`",
                        entry.line
                    )
                })?;
            entries.push(RegistryEntry {
                path: field("path")?,
                marker,
                count,
                justification,
                file_line: entry.line,
            });
        }
        Ok(Registry { entries })
    }
}

/// Runs the rule: scans every file for marker call sites and
/// reconciles them against the registry.
pub fn check_declassify_registry(ws: &Workspace, registry: &Registry) -> Vec<Finding> {
    // (path, marker) -> lines of call sites found.
    let mut sites: BTreeMap<(String, String), Vec<u32>> = BTreeMap::new();
    for file in &ws.files {
        for (marker, line) in marker_sites(&file.tokens) {
            sites
                .entry((file.rel.clone(), marker.to_string()))
                .or_default()
                .push(line);
        }
    }

    let mut findings = Vec::new();
    for ((path, marker), lines) in &sites {
        let entry = registry
            .entries
            .iter()
            .find(|e| &e.path == path && &e.marker == marker);
        match entry {
            None => {
                for line in lines {
                    findings.push(Finding {
                        rule: RULE,
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "unregistered `{marker}` call site; add a [[site]] entry with a \
                             justification to DECLASSIFY.toml"
                        ),
                    });
                }
            }
            Some(entry) if entry.count != lines.len() as i64 => {
                findings.push(Finding {
                    rule: RULE,
                    path: path.clone(),
                    line: lines[0],
                    message: format!(
                        "`{marker}` site count drifted: registry says {}, found {} (lines {:?}); \
                         re-audit and update DECLASSIFY.toml",
                        entry.count,
                        lines.len(),
                        lines
                    ),
                });
            }
            Some(_) => {}
        }
    }
    for entry in &registry.entries {
        if !sites.contains_key(&(entry.path.clone(), entry.marker.clone())) {
            findings.push(Finding {
                rule: RULE,
                path: "DECLASSIFY.toml".to_string(),
                line: entry.file_line,
                message: format!(
                    "stale registry entry: `{}` no longer calls `{}`; delete the entry",
                    entry.path, entry.marker
                ),
            });
        }
    }
    findings
}

/// Scans a token stream for marker call sites.
///
/// Qualified markers match the token triple `Type` `::` `method`;
/// sanitiser markers match `.method(` so the `fn sanitize_html`
/// definitions in `safeweb-taint` itself do not count as call sites.
fn marker_sites(tokens: &[Tok]) -> Vec<(&'static str, u32)> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let prev = |n: usize| i.checked_sub(n).map(|j| &tokens[j]);
        if tok.is_ident("declassified")
            && prev(1).is_some_and(|t| t.is_punct(':'))
            && prev(2).is_some_and(|t| t.is_punct(':'))
            && prev(3).is_some_and(|t| t.is_ident("TrustedLiteral"))
        {
            out.push(("TrustedLiteral::declassified", tok.line));
        }
        if tok.is_ident("declassify")
            && prev(1).is_some_and(|t| t.is_punct(':'))
            && prev(2).is_some_and(|t| t.is_punct(':'))
            && prev(3).is_some_and(|t| t.is_ident("Privilege"))
        {
            out.push(("Privilege::declassify", tok.line));
        }
        // The sanitiser markers follow the two path markers.
        for marker in &MARKERS[2..] {
            if tok.is_ident(marker)
                && prev(1).is_some_and(|t| t.is_punct('.'))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                out.push((*marker, tok.line));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile, Workspace};

    fn ws(rel: &str, src: &str) -> Workspace {
        Workspace::from_files(vec![SourceFile::from_source(rel, "x", FileKind::Src, src)])
    }

    fn registry(src: &str) -> Registry {
        Registry::parse(src).unwrap()
    }

    const CALLS: &str = r#"
fn f(s: &SStr) {
    let a = TrustedLiteral::declassified(s, "why");
    let b = s.sanitize_html();
}
"#;

    #[test]
    fn unregistered_site_is_flagged() {
        let findings = check_declassify_registry(&ws("a.rs", CALLS), &Registry::default());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("unregistered"));
    }

    #[test]
    fn registered_sites_with_exact_count_pass() {
        let reg = registry(
            "[[site]]\npath = \"a.rs\"\nmarker = \"TrustedLiteral::declassified\"\ncount = 1\n\
             justification = \"admin console free-form query, reviewed\"\n\
             [[site]]\npath = \"a.rs\"\nmarker = \"sanitize_html\"\ncount = 1\n\
             justification = \"template escaping sanitiser call\"",
        );
        let findings = check_declassify_registry(&ws("a.rs", CALLS), &reg);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn count_drift_and_stale_entries_are_flagged() {
        let reg = registry(
            "[[site]]\npath = \"a.rs\"\nmarker = \"TrustedLiteral::declassified\"\ncount = 2\n\
             justification = \"admin console free-form query, reviewed\"\n\
             [[site]]\npath = \"gone.rs\"\nmarker = \"sanitize_sql\"\ncount = 1\n\
             justification = \"file was deleted last PR, entry remains\"",
        );
        let src = "fn f(s: &SStr) { let a = TrustedLiteral::declassified(s, \"why\"); }";
        let findings = check_declassify_registry(&ws("a.rs", src), &reg);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("drifted")));
        assert!(findings.iter().any(|f| f.message.contains("stale")));
    }

    #[test]
    fn definitions_and_docs_are_not_call_sites() {
        let src = r#"
/// Calls [`TrustedLiteral::declassified`] eventually.
impl SStr {
    pub fn sanitize_html(&self) -> SStr { todo!() }
    pub fn declassified(s: &SStr, justification: &'static str) -> T { todo!() }
}
"#;
        let findings = check_declassify_registry(&ws("a.rs", src), &Registry::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn registry_rejects_unknown_marker_and_thin_justification() {
        assert!(Registry::parse(
            "[[site]]\npath = \"a.rs\"\nmarker = \"nope\"\ncount = 1\njustification = \"long enough words\""
        )
        .is_err());
        assert!(Registry::parse(
            "[[site]]\npath = \"a.rs\"\nmarker = \"sanitize_sql\"\ncount = 1\njustification = \"ok\""
        )
        .is_err());
    }
}
