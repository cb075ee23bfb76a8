//! Rule `lock-order`: the workspace lock-acquisition graph is acyclic.
//!
//! The ROADMAP carries "deadlock detection for backpressure cycles";
//! this rule is the static first step. Per function (non-test code),
//! it extracts `Mutex`/`RwLock` guard nesting at the token level:
//!
//! * an acquisition is `receiver.lock()` / `.read()` / `.write()` with
//!   no arguments — the `safeweb-sync` guard API, the only lock API
//!   `sync-confinement` lets `crates/*/src` use (the zero-argument
//!   requirement keeps `io::Read::read(&mut buf)` and
//!   `Write::write(&buf)` out);
//! * a guard bound by `let` is held until its enclosing block closes
//!   (or an explicit `drop(guard)`); a temporary guard is held to the
//!   end of its statement;
//! * acquiring `B` while `A` is held adds the edge `A → B` to the
//!   per-crate graph, with the file:line of the nested acquisition.
//!
//! Lock identity is `crate-name/receiver-field-name` — coarse, but
//! exactly the granularity at which this workspace names its locks
//! (`shards`, `tables`, `inner`, …), and coarse is the *conservative*
//! direction for deadlock detection. A cycle among two or more locks
//! fails the lint with one representative site per edge. Self-edges
//! (`inner → inner`) are ignored: two same-named fields on different
//! instances (e.g. `self.inner` and `other.inner` in a merge) are the
//! common false positive, while true self-deadlock is a dynamic
//! property this static step cannot decide.

use std::collections::BTreeMap;

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::rules::{cfg_test_mask, fn_bodies};
use crate::workspace::{FileKind, Workspace};

const RULE: &str = "lock-order";

/// One lock-order edge: `from` was held while `to` was acquired.
#[derive(Debug, Clone)]
struct Edge {
    path: String,
    line: u32,
}

/// Runs the rule: builds the per-crate lock graph and reports cycles.
pub fn check_lock_order(ws: &Workspace) -> Vec<Finding> {
    // (crate, from, to) -> first site seen.
    let mut edges: BTreeMap<(String, String, String), Edge> = BTreeMap::new();
    for file in &ws.files {
        if file.kind == FileKind::Test {
            continue;
        }
        let mask = cfg_test_mask(&file.tokens);
        for body in fn_bodies(&file.tokens) {
            if mask.get(body.open).copied().unwrap_or(false) {
                continue;
            }
            collect_edges(
                &file.tokens,
                body.open,
                body.close,
                &file.crate_name,
                &file.rel,
                &mut edges,
            );
        }
    }

    // Group edges per crate and find cycles.
    let mut graphs: BTreeMap<&str, BTreeMap<&str, Vec<&str>>> = BTreeMap::new();
    for (krate, from, to) in edges.keys() {
        graphs
            .entry(krate)
            .or_default()
            .entry(from)
            .or_default()
            .push(to);
    }
    let mut findings = Vec::new();
    for (krate, graph) in &graphs {
        for cycle in cycles(graph) {
            // Report at the site of the first edge of the cycle.
            let key = (
                krate.to_string(),
                cycle[0].to_string(),
                cycle[1].to_string(),
            );
            let site = &edges[&key];
            let chain: Vec<String> = cycle
                .windows(2)
                .map(|w| {
                    let e = &edges[&(krate.to_string(), w[0].to_string(), w[1].to_string())];
                    format!("{} -> {} at {}:{}", w[0], w[1], e.path, e.line)
                })
                .collect();
            findings.push(Finding {
                rule: RULE,
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "lock-order cycle in crate `{krate}`: {}; acquire these locks in one \
                     global order (or break the nesting)",
                    chain.join(", ")
                ),
            });
        }
    }
    findings
}

/// A guard currently held while scanning a function body.
struct Guard {
    lock: String,
    /// The `let`-bound variable, for `drop(var)` release.
    var: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below this (let guards) or at the next same-depth `;` (temps).
    depth: usize,
    temp: bool,
}

fn collect_edges(
    tokens: &[Tok],
    open: usize,
    close: usize,
    krate: &str,
    rel: &str,
    edges: &mut BTreeMap<(String, String, String), Edge>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // The active `let` statement's bound variable, if any.
    let mut stmt_let_var: Option<String> = None;
    let mut stmt_is_let = false;
    let mut stmt_start = true;

    let mut i = open;
    while i <= close {
        let tok = &tokens[i];
        if tok.is_punct('{') {
            depth += 1;
            stmt_start = true;
            i += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.depth <= depth);
            stmt_start = true;
            stmt_is_let = false;
            i += 1;
            continue;
        }
        if tok.is_punct(';') {
            guards.retain(|g| !(g.temp && g.depth == depth));
            stmt_start = true;
            stmt_is_let = false;
            stmt_let_var = None;
            i += 1;
            continue;
        }
        if stmt_start && tok.kind == TokKind::Ident {
            stmt_is_let = tok.is_ident("let");
            if stmt_is_let {
                stmt_let_var = tokens[i + 1..=close.min(i + 6)]
                    .iter()
                    .find(|t| {
                        t.kind == TokKind::Ident
                            && !matches!(t.text.as_str(), "mut" | "ref" | "Some" | "Ok" | "Err")
                    })
                    .map(|t| t.text.clone());
            }
            stmt_start = false;
        }
        // drop(guard_var) releases that guard early.
        if tok.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(var) = tokens.get(i + 2) {
                guards.retain(|g| g.var.as_deref() != Some(var.text.as_str()));
            }
        }
        // receiver.lock() / .read() / .write() with no arguments.
        if matches!(tok.text.as_str(), "lock" | "read" | "write")
            && tok.kind == TokKind::Ident
            && i >= 2
            && tokens[i - 1].is_punct('.')
            && tokens[i - 2].kind == TokKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            let lock = tokens[i - 2].text.clone();
            for held in &guards {
                if held.lock != lock {
                    edges
                        .entry((krate.to_string(), held.lock.clone(), lock.clone()))
                        .or_insert_with(|| Edge {
                            path: rel.to_string(),
                            line: tok.line,
                        });
                }
            }
            guards.push(Guard {
                lock,
                var: if stmt_is_let {
                    stmt_let_var.clone()
                } else {
                    None
                },
                depth,
                temp: !stmt_is_let,
            });
        }
        i += 1;
    }
}

/// Enumerates elementary cycles (as closed node walks
/// `[a, …, a]`) in a small adjacency map. Each cycle is reported once,
/// anchored at its lexicographically smallest node.
fn cycles<'a>(graph: &BTreeMap<&'a str, Vec<&'a str>>) -> Vec<Vec<&'a str>> {
    let mut out = Vec::new();
    for &start in graph.keys() {
        let mut stack = vec![start];
        dfs(graph, start, start, &mut stack, &mut out);
    }
    out
}

fn dfs<'a>(
    graph: &BTreeMap<&'a str, Vec<&'a str>>,
    start: &'a str,
    node: &'a str,
    stack: &mut Vec<&'a str>,
    out: &mut Vec<Vec<&'a str>>,
) {
    for &next in graph.get(node).into_iter().flatten() {
        if next == start && stack.len() > 1 {
            let mut cycle = stack.clone();
            cycle.push(start);
            out.push(cycle);
            continue;
        }
        // Anchor each cycle at its smallest node to avoid duplicates,
        // and keep walks elementary.
        if next <= start || stack.contains(&next) {
            continue;
        }
        stack.push(next);
        dfs(graph, start, next, stack, out);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        check_lock_order(&Workspace::from_files(vec![SourceFile::from_source(
            "crates/x/src/a.rs",
            "x",
            FileKind::Src,
            src,
        )]))
    }

    #[test]
    fn consistent_order_passes() {
        let src = r#"
fn a(&self) { let g1 = self.tables.lock(); let g2 = self.index.lock(); }
fn b(&self) { let g1 = self.tables.lock(); let g2 = self.index.lock(); }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let src = r#"
fn a(&self) { let g1 = self.tables.lock(); let g2 = self.index.lock(); }
fn b(&self) { let g2 = self.index.lock(); let g1 = self.tables.lock(); }
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("lock-order cycle"));
        assert!(findings[0].message.contains("index"));
        assert!(findings[0].message.contains("tables"));
    }

    #[test]
    fn block_scoping_releases_guards() {
        // The first guard is released by its block before the second
        // acquisition, so there is no nesting in `a`.
        let src = r#"
fn a(&self) { { let g1 = self.tables.lock(); } let g2 = self.index.lock(); }
fn b(&self) { let g2 = self.index.lock(); let g1 = self.tables.lock(); }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporaries_release_at_statement_end() {
        let src = r#"
fn a(&self) { self.tables.lock().insert(1); let g2 = self.index.lock(); }
fn b(&self) { let g2 = self.index.lock(); let g1 = self.tables.lock(); }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases() {
        let src = r#"
fn a(&self) { let g1 = self.tables.lock(); drop(g1); let g2 = self.index.lock(); }
fn b(&self) { let g2 = self.index.lock(); let g1 = self.tables.lock(); }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn three_lock_rotation_is_found() {
        let src = r#"
fn a(&self) { let g = self.a.lock(); let h = self.b.lock(); }
fn b(&self) { let g = self.b.lock(); let h = self.c.lock(); }
fn c(&self) { let g = self.c.lock(); let h = self.a.lock(); }
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn same_name_reacquisition_is_not_a_cycle() {
        let src =
            "fn m(&self, other: &Self) { let a = self.inner.lock(); let b = other.inner.lock(); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn io_read_write_with_args_are_not_locks() {
        let src = r#"
fn a(&self, f: &mut File) { let n = f.read(&mut buf); w.write(&buf); let g = self.x.lock(); }
fn b(&self) { let g = self.x.lock(); let r = self.read.lock(); }
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn rwlock_read_write_participate() {
        let src = r#"
fn a(&self) { let g = self.map.read(); let h = self.log.lock(); }
fn b(&self) { let g = self.log.lock(); let h = self.map.write(); }
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn cross_crate_same_names_do_not_join() {
        let a = SourceFile::from_source(
            "crates/x/src/a.rs",
            "x",
            FileKind::Src,
            "fn a(&self) { let g = self.inner.lock(); let h = self.state.lock(); }",
        );
        let b = SourceFile::from_source(
            "crates/y/src/b.rs",
            "y",
            FileKind::Src,
            "fn b(&self) { let g = self.state.lock(); let h = self.inner.lock(); }",
        );
        let findings = check_lock_order(&Workspace::from_files(vec![a, b]));
        assert!(findings.is_empty(), "{findings:?}");
    }
}
