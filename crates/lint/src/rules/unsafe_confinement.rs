//! Rule `unsafe-confinement`: `unsafe` stays inside `reactor::sys`.
//!
//! The workspace's safety story (ARCHITECTURE.md) is that exactly one
//! module — the raw epoll/eventfd bindings in
//! `crates/reactor/src/sys.rs` — contains `unsafe` code, and everything
//! above it speaks safe wrappers. This rule makes that story
//! machine-checked:
//!
//! * an `unsafe` token anywhere else in the workspace is a finding
//!   (lexer-level, so a quoted or commented `unsafe` does not count);
//! * every crate root must carry `#![forbid(unsafe_code)]`, so the
//!   compiler enforces the same invariant even when the lint is not
//!   running — except the reactor root, which must carry
//!   `#![deny(unsafe_code)]` (its `sys` module opts back in with a
//!   scoped `allow`, which `forbid` would make impossible).
//!
//! The same scan carries a second clause, `sync-confinement`: what a
//! poisoned lock means is decided once, in `safeweb-sync`, so
//! `std::sync::{Mutex, RwLock, Condvar}` named anywhere else under
//! `crates/*/src` (test modules included) is a finding. Paths and use
//! trees rooted at `std` are matched; atomics, `Arc`, `OnceLock` and
//! `mpsc` stay free.

use crate::diag::Finding;
use crate::lexer::Tok;
use crate::rules::matching_brace;
use crate::workspace::Workspace;

const RULE: &str = "unsafe-confinement";
const SYNC_RULE: &str = "sync-confinement";

/// The one module allowed to contain `unsafe` tokens.
pub const UNSAFE_SANCTUARY: &str = "crates/reactor/src/sys.rs";

/// The one crate allowed to name `std::sync`'s lock types.
pub const SYNC_SANCTUARY: &str = "crates/sync/src/";

/// The `std::sync` items only [`SYNC_SANCTUARY`] may name.
const STD_LOCKS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// The crate root that cannot `forbid` (its child module needs a
/// scoped `allow`) and must `deny` instead.
pub const DENY_ROOT: &str = "crates/reactor/src/lib.rs";

/// Runs the rule over the workspace.
pub fn check_unsafe_confinement(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if file.rel != UNSAFE_SANCTUARY {
            for tok in &file.tokens {
                if tok.is_ident("unsafe") {
                    findings.push(Finding {
                        rule: RULE,
                        path: file.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "`unsafe` outside the sanctioned module {UNSAFE_SANCTUARY}; \
                             wrap the operation in a safe `reactor::sys` API instead"
                        ),
                    });
                }
            }
        }
        let mut parts = file.rel.split('/');
        let crate_src = parts.next() == Some("crates") && parts.nth(1) == Some("src");
        if crate_src && !file.rel.starts_with(SYNC_SANCTUARY) {
            for tok in std_locks(&file.tokens) {
                findings.push(Finding {
                    rule: SYNC_RULE,
                    path: file.rel.clone(),
                    line: tok.line,
                    message: format!(
                        "`std::sync::{}` outside the lock facade {SYNC_SANCTUARY}; \
                         use `safeweb_sync`, whose one poison policy every lock shares",
                        tok.text
                    ),
                });
            }
        }
        if file.is_crate_root {
            let required = if file.rel == DENY_ROOT {
                "deny"
            } else {
                "forbid"
            };
            if !has_inner_unsafe_gate(&file.tokens, required) {
                findings.push(Finding {
                    rule: RULE,
                    path: file.rel.clone(),
                    line: 1,
                    message: format!(
                        "crate root is missing `#![{required}(unsafe_code)]`; every root \
                         must compiler-enforce the unsafe confinement invariant"
                    ),
                });
            }
        }
    }
    findings
}

/// Each lock type a path or use tree rooted at `std` names
/// (`std::sync::Mutex::new`, `use std::{sync::{Arc, Mutex}}`): std has
/// these names only under `std::sync`.
fn std_locks(tokens: &[Tok]) -> Vec<&Tok> {
    let is_lock = |t: &&Tok| STD_LOCKS.iter().any(|l| t.is_ident(l));
    let sep =
        |j: usize| tokens.len() > j + 2 && tokens[j].is_punct(':') && tokens[j + 1].is_punct(':');
    let mut found = Vec::new();
    for mut i in (0..tokens.len()).filter(|&i| tokens[i].is_ident("std")) {
        while sep(i + 1) {
            i += 3;
            if tokens[i].is_punct('{') {
                found.extend(tokens[i..matching_brace(tokens, i)].iter().filter(is_lock));
                break;
            }
            found.extend(Some(&tokens[i]).filter(is_lock));
        }
    }
    found
}

/// Whether the stream contains `#![<gate>(unsafe_code)]`.
fn has_inner_unsafe_gate(tokens: &[Tok], gate: &str) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(gate)
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile, Workspace};

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace::from_files(
            files
                .into_iter()
                .map(|(rel, src)| SourceFile::from_source(rel, "x", FileKind::Src, src))
                .collect(),
        )
    }

    #[test]
    fn flags_unsafe_outside_sanctuary_only() {
        let findings = check_unsafe_confinement(&ws(vec![
            ("crates/x/src/a.rs", "fn f() { let p = 1; }"),
            (
                "crates/x/src/b.rs",
                "fn f() { let v = vec![0u8]; let _ = &v; } fn g() { unsafe { } }",
            ),
            ("crates/reactor/src/sys.rs", "pub fn e() { unsafe { } }"),
        ]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/x/src/b.rs");
    }

    #[test]
    fn quoted_and_commented_unsafe_do_not_count() {
        let findings = check_unsafe_confinement(&ws(vec![(
            "crates/x/src/a.rs",
            "// unsafe here\n/* unsafe */ fn f() { let s = \"unsafe\"; let _ = s; }",
        )]));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn crate_roots_must_carry_the_gate() {
        let findings = check_unsafe_confinement(&ws(vec![
            ("crates/x/src/lib.rs", "//! docs\npub fn f() {}"),
            (
                "crates/y/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}",
            ),
        ]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/x/src/lib.rs");
    }

    #[test]
    fn std_locks_are_flagged_outside_the_facade_only() {
        let src = "use std::sync::{atomic::{AtomicBool, Ordering}, Arc, Mutex};\n\
                   use std::{sync::{mpsc, RwLock}, time::Duration};\n\
                   static C: std::sync::Condvar = std::sync::Condvar::new();\n\
                   type L = std::sync::Arc<Mutex<u8>>;\n\
                   use std::sync::OnceLock; // std::sync::Mutex in a comment\n\
                   fn f() { let _ = \"std::sync::RwLock\"; }";
        let findings = check_unsafe_confinement(&ws(vec![
            ("crates/x/src/a.rs", src),
            (
                "crates/sync/src/lib.rs",
                "#![forbid(unsafe_code)]\nuse std::sync::Mutex;",
            ),
            ("crates/x/tests/t.rs", "use std::sync::Mutex;"),
        ]));
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2, 3, 3], "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == SYNC_RULE));
    }

    #[test]
    fn reactor_root_requires_deny_not_forbid() {
        let findings = check_unsafe_confinement(&ws(vec![(
            "crates/reactor/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod sys;",
        )]));
        assert_eq!(
            findings.len(),
            1,
            "forbid on the reactor root would not compile"
        );
        let findings = check_unsafe_confinement(&ws(vec![(
            "crates/reactor/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod sys;",
        )]));
        assert!(findings.is_empty());
    }
}
