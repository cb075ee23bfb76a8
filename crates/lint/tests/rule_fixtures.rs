//! Mutation checks for every lint rule against the seeded-violation
//! corpus in `fixtures/`: each `*_violation.rs` fixture MUST produce
//! findings of exactly its rule, and each clean twin MUST produce
//! none. If a rule silently stops firing — the failure mode the lint
//! exists to prevent — these tests fail, so the corpus keeps the lint
//! honest the same way the lint keeps the workspace honest.

use safeweb_lint::{run_rules, Allowlist, FileKind, Registry, SourceFile, Workspace};

const UNSAFE_VIOLATION: &str = include_str!("../fixtures/unsafe_violation.rs");
const UNSAFE_CLEAN: &str = include_str!("../fixtures/unsafe_clean.rs");
const ROOT_VIOLATION: &str = include_str!("../fixtures/unsafe_root_violation.rs");
const ROOT_CLEAN: &str = include_str!("../fixtures/unsafe_root_clean.rs");
const DECLASSIFY_SITES: &str = include_str!("../fixtures/declassify_sites.rs");
const DECLASSIFY_REGISTRY: &str = include_str!("../fixtures/declassify_registry.toml");
const QUERY_VIOLATION: &str = include_str!("../fixtures/query_violation.rs");
const QUERY_CLEAN: &str = include_str!("../fixtures/query_clean.rs");
const LOCK_VIOLATION: &str = include_str!("../fixtures/lock_violation.rs");
const LOCK_CLEAN: &str = include_str!("../fixtures/lock_clean.rs");
const LIVENESS_VIOLATION: &str = include_str!("../fixtures/liveness_violation_props.rs");
const LIVENESS_CLEAN: &str = include_str!("../fixtures/liveness_clean_props.rs");
const TELEMETRY_VIOLATION: &str = include_str!("../fixtures/telemetry_violation.rs");
const TELEMETRY_CLEAN: &str = include_str!("../fixtures/telemetry_clean.rs");

/// A one-file workspace at a realistic workspace-relative path.
fn ws(rel: &str, kind: FileKind, src: &str) -> Workspace {
    Workspace::from_files(vec![SourceFile::from_source(rel, "netstub", kind, src)])
}

/// Runs every rule with empty policies and returns the kept findings.
fn lint(ws: &Workspace) -> Vec<safeweb_lint::Finding> {
    run_rules(ws, &Registry::default(), &Allowlist::default()).findings
}

/// Asserts the seeded violation fires exactly `expected` findings, all
/// of rule `rule`, and that the clean twin is silent.
fn mutation_check(rule: &str, expected: usize, violation: &Workspace, clean: &Workspace) {
    let findings = lint(violation);
    assert_eq!(
        findings.len(),
        expected,
        "seeded {rule} violation must fire {expected} findings: {findings:?}"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "unexpected rule fired: {f}");
        assert!(f.line > 0 || rule == "test-liveness", "missing line: {f}");
    }
    let findings = lint(clean);
    assert!(findings.is_empty(), "clean twin must pass: {findings:?}");
}

#[test]
fn unsafe_confinement_catches_stray_unsafe() {
    mutation_check(
        "unsafe-confinement",
        1,
        &ws("crates/netstub/src/io.rs", FileKind::Src, UNSAFE_VIOLATION),
        &ws("crates/netstub/src/io.rs", FileKind::Src, UNSAFE_CLEAN),
    );
}

#[test]
fn unsafe_confinement_catches_missing_root_gate() {
    mutation_check(
        "unsafe-confinement",
        1,
        &ws("crates/netstub/src/lib.rs", FileKind::Src, ROOT_VIOLATION),
        &ws("crates/netstub/src/lib.rs", FileKind::Src, ROOT_CLEAN),
    );
}

#[test]
fn declassify_registry_catches_unregistered_sites() {
    let files = ws(
        "crates/netstub/src/escape.rs",
        FileKind::Src,
        DECLASSIFY_SITES,
    );
    // Violation: the three marker sites against an empty registry.
    let findings = lint(&files);
    assert_eq!(findings.len(), 3, "{findings:?}");
    for f in &findings {
        assert_eq!(f.rule, "declassify-registry");
        assert!(f.message.contains("unregistered"), "{f}");
    }
    // Clean twin: the checked-in fixture registry enumerates them all.
    let registry = Registry::parse(DECLASSIFY_REGISTRY).expect("fixture registry parses");
    let report = run_rules(&files, &registry, &Allowlist::default());
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn declassify_registry_catches_count_drift_and_stale_entries() {
    let files = ws(
        "crates/netstub/src/escape.rs",
        FileKind::Src,
        DECLASSIFY_SITES,
    );
    // Mutation: bump one count without adding a site.
    let drifted = DECLASSIFY_REGISTRY.replacen("count = 1", "count = 2", 1);
    let registry = Registry::parse(&drifted).unwrap();
    let findings = run_rules(&files, &registry, &Allowlist::default()).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("drifted"), "{}", findings[0]);

    // Mutation: keep the registry but delete the declassifying code —
    // every entry is now stale and must be flagged for deletion.
    let registry = Registry::parse(DECLASSIFY_REGISTRY).unwrap();
    let empty = ws(
        "crates/netstub/src/escape.rs",
        FileKind::Src,
        "pub fn f() {}",
    );
    let findings = run_rules(&empty, &registry, &Allowlist::default()).findings;
    assert_eq!(findings.len(), 3, "{findings:?}");
    for f in &findings {
        assert!(f.message.contains("stale"), "{f}");
        assert_eq!(f.path, "DECLASSIFY.toml");
    }
}

#[test]
fn telemetry_hygiene_catches_payload_into_record_sinks() {
    // Three seeded flows: an event attribute directly into a span
    // name, a principal-derived string interpolated into a metric
    // name, and document bytes bound to a name passed as a metric name.
    mutation_check(
        "telemetry-hygiene",
        3,
        &ws(
            "crates/netstub/src/obs.rs",
            FileKind::Src,
            TELEMETRY_VIOLATION,
        ),
        &ws("crates/netstub/src/obs.rs", FileKind::Src, TELEMETRY_CLEAN),
    );

    // Mutation: neutering the seeded flows one at a time must drop
    // exactly one finding each — proving each detector fires
    // independently rather than one flow masking the others.
    for (needle, replacement) in [
        (r#"event.attr("patient").unwrap_or("")"#, r#""unit-name""#),
        ("web.requests.{who}", "web.requests"),
        ("counter(summary)", r#"counter("storage")"#),
    ] {
        let mutated = TELEMETRY_VIOLATION.replacen(needle, replacement, 1);
        assert_ne!(
            mutated, TELEMETRY_VIOLATION,
            "mutation {needle:?} must apply"
        );
        let findings = lint(&ws("crates/netstub/src/obs.rs", FileKind::Src, &mutated));
        assert_eq!(findings.len(), 2, "neutering {needle:?}: {findings:?}");
    }
}

#[test]
fn query_hygiene_catches_concat_into_sinks() {
    // Three seeded flows: format! directly into select_spec's args,
    // a tainted let into Selector::parse, and a `+`-built view name
    // into records_by.
    mutation_check(
        "query-hygiene",
        3,
        &ws("crates/netstub/src/find.rs", FileKind::Src, QUERY_VIOLATION),
        &ws("crates/netstub/src/find.rs", FileKind::Src, QUERY_CLEAN),
    );
}

#[test]
fn lock_order_catches_both_seeded_cycles() {
    // AB/BA on tables/index plus the reader-writer cycle on log/map.
    mutation_check(
        "lock-order",
        2,
        &ws("crates/netstub/src/store.rs", FileKind::Src, LOCK_VIOLATION),
        &ws("crates/netstub/src/store.rs", FileKind::Src, LOCK_CLEAN),
    );
}

#[test]
fn test_liveness_catches_metaless_proptest_fn() {
    mutation_check(
        "test-liveness",
        1,
        &ws(
            "crates/netstub/tests/escape_props.rs",
            FileKind::Test,
            LIVENESS_VIOLATION,
        ),
        &ws(
            "crates/netstub/tests/escape_props.rs",
            FileKind::Test,
            LIVENESS_CLEAN,
        ),
    );
}

#[test]
fn allowlist_suppresses_exactly_its_rule_and_path() {
    let files = ws("crates/netstub/src/find.rs", FileKind::Src, QUERY_VIOLATION);
    let allow = Allowlist::parse(
        "[[allow]]\nrule = \"query-hygiene\"\npath = \"crates/netstub/src/find.rs\"\n\
         justification = \"fixture: deliberate negative control for the suppression test\"",
    )
    .unwrap();
    let report = run_rules(&files, &Registry::default(), &allow);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 3, "{:?}", report.suppressed);
}

#[test]
fn stale_allowlist_entry_is_itself_a_finding() {
    let files = ws("crates/netstub/src/find.rs", FileKind::Src, QUERY_CLEAN);
    let allow = Allowlist::parse(
        "[[allow]]\nrule = \"query-hygiene\"\npath = \"crates/netstub/src/find.rs\"\n\
         justification = \"fixture: this exemption no longer suppresses anything\"",
    )
    .unwrap();
    let findings = run_rules(&files, &Registry::default(), &allow).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "allowlist");
    assert!(findings[0].message.contains("stale"), "{}", findings[0]);
}

#[test]
fn shipped_tree_is_lint_clean() {
    // The acceptance criterion, as a test: the checked-in workspace
    // (with its checked-in policy files) produces zero findings.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let report = safeweb_lint::run_workspace(root, &Default::default()).expect("lint runs");
    assert!(
        report.is_clean(),
        "shipped tree has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
