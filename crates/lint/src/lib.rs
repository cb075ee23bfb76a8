//! # safeweb-lint
//!
//! The in-repo workspace analyzer that machine-checks SafeWeb's IFC
//! security invariants. SafeWeb's pitch is that developer mistakes
//! cannot become security bugs — but until this crate, the workspace's
//! *own* invariants (unsafe confined to `reactor::sys`, every
//! declassification justified, no concatenated string forming query
//! structure) were enforced by convention and grep, and PR 7 proved
//! convention fails: two `proptest!` suites silently never ran. In the
//! spirit of LWeb's statically-checked label policies, this crate is
//! the static layer that checks the enforcement layer itself.
//!
//! Six rules, all hard CI failures with `file:line` diagnostics:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-confinement`   | `unsafe` only in `reactor::sys`; every other crate root carries `#![forbid(unsafe_code)]` |
//! | `declassify-registry`  | every `TrustedLiteral::declassified` / `Privilege::declassify` / sanitiser call site is enumerated in `DECLASSIFY.toml` with a justification |
//! | `query-hygiene`        | `format!`/`+` output never flows (same function, token level) into `parse_trusted`, `select_spec`, `Selector::parse`, `records_by`, or view names |
//! | `lock-order`           | the per-crate `Mutex`/`RwLock` acquisition graph is acyclic |
//! | `telemetry-hygiene`    | payload/principal-derived values never flow (same function, token level) into `record_span` names or registry metric names |
//! | `test-liveness`        | every `proptest!` fn carries `#[test]`; every `*_props.rs` / `tests/*.rs` file has a live test |
//!
//! Exemptions go in `lint.allow.toml`; every entry needs a written
//! justification, and a stale entry is itself a finding. The lint has
//! no parser and no `rustc` dependency: its own lexer (see [`lexer`])
//! feeds token-level rules, so it runs on code that does not compile
//! and cannot be fooled by strings or comments. It lints the whole
//! workspace including itself, the shims, and `tests/`.
//!
//! ```no_run
//! use std::path::Path;
//! let report = safeweb_lint::run_workspace(Path::new("."), &Default::default()).unwrap();
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fs;
use std::path::Path;

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod toml;
pub mod workspace;

pub use diag::{Allowlist, Finding, Report};
pub use rules::{Registry, RegistryEntry};
pub use workspace::{discover, FileKind, SourceFile, Workspace};

/// Where the lint looks for its policy files, workspace-relative.
pub const ALLOWLIST_PATH: &str = "lint.allow.toml";
/// Workspace-relative path of the declassification registry.
pub const REGISTRY_PATH: &str = "DECLASSIFY.toml";

/// Per-run knobs (all default to the checked-in policy files).
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Override the allowlist (None = `lint.allow.toml` under the
    /// root, which may be absent: an absent allowlist allows nothing).
    pub allowlist: Option<Allowlist>,
    /// Override the registry (None = `DECLASSIFY.toml` under the
    /// root; absent = empty registry).
    pub registry: Option<Registry>,
}

/// Runs every rule over a pre-built workspace with explicit policies —
/// the pure core that both [`run_workspace`] and the fixture tests
/// call.
pub fn run_rules(ws: &Workspace, registry: &Registry, allow: &Allowlist) -> Report {
    let mut findings = Vec::new();
    findings.extend(rules::check_unsafe_confinement(ws));
    findings.extend(rules::check_declassify_registry(ws, registry));
    findings.extend(rules::check_query_hygiene(ws));
    findings.extend(rules::check_lock_order(ws));
    findings.extend(rules::check_telemetry_hygiene(ws));
    findings.extend(rules::check_test_liveness(ws));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    let (kept, suppressed) = allow.apply(findings);
    Report {
        findings: kept,
        suppressed,
        files_checked: ws.files.len(),
    }
}

/// Walks the workspace at `root`, loads the policy files, and runs
/// every rule.
///
/// # Errors
///
/// A human-readable message on I/O failure or a malformed policy file
/// (a malformed policy is a hard error, not a finding: it must never
/// silently allow anything).
pub fn run_workspace(root: &Path, options: &Options) -> Result<Report, String> {
    let ws = discover(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if ws.files.is_empty() {
        return Err(format!(
            "no Rust files found under {} — wrong --root?",
            root.display()
        ));
    }
    let registry = match &options.registry {
        Some(r) => r.clone(),
        None => load_or_default(&root.join(REGISTRY_PATH), Registry::parse)?,
    };
    let allow = match &options.allowlist {
        Some(a) => a.clone(),
        None => load_or_default(&root.join(ALLOWLIST_PATH), Allowlist::parse)?,
    };
    Ok(run_rules(&ws, &registry, &allow))
}

fn load_or_default<T: Default>(
    path: &Path,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    if !path.exists() {
        return Ok(T::default());
    }
    let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&src)
}
