//! The seven invariant checks (two of them, `unsafe-confinement` and
//! `sync-confinement`, share one scan), plus the token-walking helpers they
//! share; `query-hygiene` and `telemetry-hygiene` also share one flow walk
//! (`flow.rs`). Each rule is a pure function from a lexed
//! [`Workspace`](crate::workspace::Workspace) (and optionally a policy
//! file) to [`Finding`](crate::diag::Finding)s; `tests/rule_fixtures.rs`
//! mutation-checks every rule against a seeded-violation corpus.

use crate::lexer::Tok;

pub mod declassify_registry;
mod flow;
pub mod lock_order;
pub mod query_hygiene;
pub mod telemetry_hygiene;
pub mod test_liveness;
pub mod unsafe_confinement;

pub use declassify_registry::{check_declassify_registry, Registry, RegistryEntry};
pub use lock_order::check_lock_order;
pub use query_hygiene::check_query_hygiene;
pub use telemetry_hygiene::check_telemetry_hygiene;
pub use test_liveness::check_test_liveness;
pub use unsafe_confinement::check_unsafe_confinement;

/// Marks every token inside a `#[cfg(test)] mod … { … }` block, so
/// rules that only apply to production code can skip test modules.
pub(crate) fn cfg_test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip past this attribute and any further attributes, then
            // expect `mod name {` and mask to the matching brace.
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            if j < tokens.len() && tokens[j].is_ident("pub") {
                j += 1;
            }
            if j + 1 < tokens.len() && tokens[j].is_ident("mod") {
                if let Some(open) = tokens[j..].iter().position(|t| t.is_punct('{')) {
                    let open = j + open;
                    let close = matching_brace(tokens, open);
                    for slot in mask.iter_mut().take(close + 1).skip(i) {
                        *slot = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Whether tokens at `i` start `#[cfg(test)]` (or `#[cfg(all(test, …))]`).
fn is_cfg_test_attr(tokens: &[Tok], i: usize) -> bool {
    if !(tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[')) {
        return false;
    }
    let end = matching(tokens, i + 1, '[', ']');
    if !tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    tokens[i + 2..end].iter().any(|t| t.is_ident("test"))
}

/// Index just past an attribute starting at a `#` token.
fn skip_attr(tokens: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct('!') {
        j += 1;
    }
    if j < tokens.len() && tokens[j].is_punct('[') {
        return matching(tokens, j, '[', ']') + 1;
    }
    i + 1
}

/// Index of the delimiter matching `tokens[open]` (which must be
/// `open_c`), or the last index if unbalanced.
pub(crate) fn matching(tokens: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Index of the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    matching(tokens, open, '{', '}')
}

/// A function body as a token range (body braces included).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnBody {
    /// Index of the opening `{`.
    pub open: usize,
    /// Index of the matching `}`.
    pub close: usize,
}

/// Every function body in the stream, nested functions and closures
/// included in their enclosing body's range (rules that scan a body
/// therefore see a superset, which is the conservative direction).
pub(crate) fn fn_bodies(tokens: &[Tok]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            // Walk to the body `{` (skipping parenthesised params and
            // bracketed bounds) or a `;` ending a bodyless signature.
            let mut j = i + 1;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') {
                    j = matching(tokens, j, '(', ')') + 1;
                    continue;
                }
                if t.is_punct('{') {
                    out.push(FnBody {
                        open: j,
                        close: matching_brace(tokens, j),
                    });
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                j += 1;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn masks_cfg_test_modules() {
        let src = "fn live() {} #[cfg(test)] mod tests { fn hidden() {} } fn after() {}";
        let tokens = lex(src);
        let mask = cfg_test_mask(&tokens);
        let hidden = tokens.iter().position(|t| t.is_ident("hidden")).unwrap();
        let live = tokens.iter().position(|t| t.is_ident("live")).unwrap();
        let after = tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(mask[hidden]);
        assert!(!mask[live]);
        assert!(!mask[after]);
    }

    #[test]
    fn masks_cfg_all_test_and_stacked_attrs() {
        let src = "#[cfg(all(test, unix))] #[allow(dead_code)] mod t { fn x() {} } fn y() {}";
        let tokens = lex(src);
        let mask = cfg_test_mask(&tokens);
        let x = tokens.iter().position(|t| t.is_ident("x")).unwrap();
        let y = tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert!(mask[x]);
        assert!(!mask[y]);
    }

    #[test]
    fn finds_fn_bodies_past_params_and_where() {
        let src = "fn a(x: i32) -> i32 { x } trait T { fn sig(&self); } \
                   fn b<R>(r: R) -> R where R: Clone { r.clone() }";
        let tokens = lex(src);
        let bodies = fn_bodies(&tokens);
        assert_eq!(bodies.len(), 2, "sig() has no body");
    }
}
