//! The same-function, token-level flow walk that `query-hygiene` and
//! `telemetry-hygiene` share. A rule supplies two things:
//!
//! 1. a **taint predicate** over an expression's tokens, given the
//!    bindings tainted so far: a `let` whose initializer satisfies it
//!    taints its bound name, and a clean re-binding clears it;
//! 2. a **sink table**: for a call's name token, which argument carries
//!    structure, and the finding's message. A sink whose scanned argument
//!    satisfies the predicate is a finding.
//!
//! The walk is deliberately intra-function and token-level (no type
//! inference, no inter-procedural flow): it will not catch laundering
//! through a helper function, but it cannot misfire on code that never
//! mentions a sink. Test files and `#[cfg(test)]` modules are skipped.

use std::collections::HashSet;

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::rules::{cfg_test_mask, fn_bodies, matching};
use crate::workspace::{FileKind, Workspace};

/// A sink call, as a rule's sink table describes it.
pub(crate) struct Sink {
    /// The argument scanned: `None` for all of them, `Some(n)` for the
    /// `n`-th (0-based) top-level one.
    pub(crate) arg: Option<usize>,
    /// The finding's message.
    pub(crate) message: String,
}

/// Runs one flow rule over every non-test function body of `ws`.
/// `sink(tokens, i)` answers for the call whose name is `tokens[i]`
/// (followed by `(`, and not a `fn` definition).
pub(crate) fn check_flows(
    ws: &Workspace,
    rule: &'static str,
    taints: impl Fn(&[Tok], &HashSet<String>) -> bool,
    sink: impl Fn(&[Tok], usize) -> Option<Sink>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if file.kind == FileKind::Test {
            continue;
        }
        let tokens = &file.tokens;
        let mask = cfg_test_mask(tokens);
        for body in fn_bodies(tokens) {
            if mask.get(body.open).copied().unwrap_or(false) {
                continue;
            }
            let mut tainted: HashSet<String> = HashSet::new();
            let (mut i, close) = (body.open + 1, body.close);
            while i < close {
                let tok = &tokens[i];
                // `let <pat> = <init> ;` — classify the initializer.
                if tok.is_ident("let") {
                    let (name, init_start) = let_binding(tokens, i, close);
                    let init_end = stmt_end(tokens, init_start, close);
                    if let Some(name) = name {
                        if taints(&tokens[init_start..init_end], &tainted) {
                            tainted.insert(name);
                        } else {
                            // A clean re-binding shadows any earlier taint.
                            tainted.remove(&name);
                        }
                    }
                    i += 1;
                    continue;
                }
                let call = tok.kind == TokKind::Ident
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && !(i > 0 && tokens[i - 1].is_ident("fn"));
                if let Some(found) = call.then(|| sink(tokens, i)).flatten() {
                    let args_close = matching(tokens, i + 1, '(', ')');
                    let args = &tokens[i + 2..args_close];
                    let scan = found.arg.map_or(args, |n| nth_argument(args, n));
                    if taints(scan, &tainted) {
                        findings.push(Finding {
                            rule,
                            path: file.rel.clone(),
                            line: tok.line,
                            message: found.message,
                        });
                    }
                    i = args_close + 1;
                    continue;
                }
                i += 1;
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings.dedup();
    findings
}

/// Extracts the bound name of a `let` (first identifier of the
/// pattern, skipping `mut`) and the index just past the `=`.
fn let_binding(tokens: &[Tok], let_idx: usize, close: usize) -> (Option<String>, usize) {
    let mut name = None;
    let mut j = let_idx + 1;
    while j < close {
        let t = &tokens[j];
        if t.is_punct('=') && !tokens.get(j + 1).is_some_and(|n| n.is_punct('=')) {
            return (name, j + 1);
        }
        if t.is_punct(';') {
            return (None, j);
        }
        if name.is_none()
            && t.kind == TokKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "Some" | "Ok" | "Err")
        {
            name = Some(t.text.clone());
        }
        j += 1;
    }
    (None, close)
}

/// Index of the `;` ending the statement starting at `from` (brace
/// depth respected so `let x = if c { a } else { b };` scans whole).
fn stmt_end(tokens: &[Tok], from: usize, close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < close {
        let t = &tokens[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
        j += 1;
    }
    close
}

/// The tokens of the `n`-th (0-based) top-level argument.
fn nth_argument(args: &[Tok], n: usize) -> &[Tok] {
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut seen = 0usize;
    for (j, t) in args.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if seen == n {
                return &args[start..j];
            }
            seen += 1;
            start = j + 1;
        }
    }
    if seen == n {
        &args[start..]
    } else {
        &[]
    }
}
