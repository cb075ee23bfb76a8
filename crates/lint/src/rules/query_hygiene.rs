//! Rule `query-hygiene`: concatenated strings never become query
//! structure.
//!
//! The typed query surfaces (`TrustedLiteral`, `QuerySpec`,
//! `Selector::bind`) exist so that user input can only enter a query
//! as a bound parameter. The residual bug class is trusted code
//! *building* query text with `format!` or `+` and feeding it to a
//! structure-consuming sink — exactly the `/find_raw` negative control
//! in `safeweb-attack`. This rule catches that shape in non-test code
//! with a same-function, token-level flow check:
//!
//! 1. an identifier is **concat-tainted** when its `let` initializer
//!    invokes `format!` or applies `+` next to a string literal or an
//!    already-tainted identifier;
//! 2. a **sink** call whose relevant arguments contain `format!` or a
//!    concat-tainted identifier is a finding.
//!
//! Sinks: `parse_trusted(…)` and `select_spec(…)` (all arguments),
//! `Selector::parse(…)` (the untrusted-text parser — feeding it
//! *constructed* text is the SQLi shape), and the view-name (first)
//! argument of `records_by` / `create_view` / `query_view` /
//! `query_view_range`.
//!
//! The check is deliberately intra-function and token-level (no type
//! inference, no inter-procedural flow): it will not catch laundering
//! through a helper function, but it cannot misfire on code that never
//! mentions a sink — and the fixture corpus mutation-checks both
//! directions.

use std::collections::HashSet;

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::rules::{cfg_test_mask, fn_bodies, matching};
use crate::workspace::{FileKind, Workspace};

const RULE: &str = "query-hygiene";

/// Sinks whose every argument must be concat-free.
const FULL_ARG_SINKS: [&str; 2] = ["parse_trusted", "select_spec"];

/// Sinks whose first (view-name / template) argument must be
/// concat-free.
const FIRST_ARG_SINKS: [&str; 4] = [
    "records_by",
    "create_view",
    "query_view",
    "query_view_range",
];

/// Runs the rule over every non-test file.
pub fn check_query_hygiene(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        if file.kind == FileKind::Test {
            continue;
        }
        let mask = cfg_test_mask(&file.tokens);
        for body in fn_bodies(&file.tokens) {
            if mask.get(body.open).copied().unwrap_or(false) {
                continue;
            }
            check_body(
                &file.tokens,
                body.open,
                body.close,
                &file.rel,
                &mut findings,
            );
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings.dedup();
    findings
}

fn check_body(tokens: &[Tok], open: usize, close: usize, rel: &str, findings: &mut Vec<Finding>) {
    let mut tainted: HashSet<String> = HashSet::new();
    let mut i = open + 1;
    while i < close {
        let tok = &tokens[i];
        // `let <pat> = <init> ;` — classify the initializer.
        if tok.is_ident("let") {
            let (name, init_start) = let_binding(tokens, i, close);
            let init_end = stmt_end(tokens, init_start, close);
            if let Some(name) = name {
                if is_concat_expr(&tokens[init_start..init_end], &tainted) {
                    tainted.insert(name);
                } else {
                    // A clean re-binding shadows any earlier taint.
                    tainted.remove(&name);
                }
            }
            i += 1;
            continue;
        }
        // Sink call?
        if tok.kind == TokKind::Ident && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let name = tok.text.as_str();
            let is_def = i > 0 && tokens[i - 1].is_ident("fn");
            let full = FULL_ARG_SINKS.contains(&name);
            let first = FIRST_ARG_SINKS.contains(&name);
            let selector_parse = name == "parse"
                && i >= 3
                && tokens[i - 1].is_punct(':')
                && tokens[i - 2].is_punct(':')
                && tokens[i - 3].is_ident("Selector");
            if !is_def && (full || first || selector_parse) {
                let args_close = matching(tokens, i + 1, '(', ')');
                let args = &tokens[i + 2..args_close];
                let scan = if full || selector_parse {
                    args
                } else {
                    first_argument(args)
                };
                if is_concat_expr(scan, &tainted) {
                    let shown = if selector_parse {
                        "Selector::parse"
                    } else {
                        name
                    };
                    findings.push(Finding {
                        rule: RULE,
                        path: rel.to_string(),
                        line: tok.line,
                        message: format!(
                            "concatenated string flows into `{shown}`: query structure must \
                             come from a literal, a checked `TrustedLiteral`, or bound \
                             parameters — never `format!`/`+` output"
                        ),
                    });
                }
                i = args_close + 1;
                continue;
            }
        }
        i += 1;
    }
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

/// Whether an expression's tokens show string concatenation: a
/// `format!` invocation, a `+` adjacent to a string literal, or a
/// `+`/use of an already-tainted identifier.
fn is_concat_expr(tokens: &[Tok], tainted: &HashSet<String>) -> bool {
    for (j, t) in tokens.iter().enumerate() {
        if t.is_ident("format") && tokens.get(j + 1).is_some_and(|n| n.is_punct('!')) {
            return true;
        }
        if t.kind == TokKind::Ident && tainted.contains(&t.text) {
            return true;
        }
        if t.is_punct('+') {
            // `+=` and `a + b` on strings both count when a string
            // literal sits on either side; numeric addition does not.
            let prev_str = j > 0 && tokens[j - 1].kind == TokKind::Str;
            let next_str = tokens
                .get(j + 1)
                .map(|n| {
                    n.kind == TokKind::Str
                        || (n.is_punct('&')
                            && tokens.get(j + 2).is_some_and(|m| m.kind == TokKind::Str))
                })
                .unwrap_or(false);
            if prev_str || next_str {
                return true;
            }
        }
    }
    false
}

/// The tokens of the first top-level argument.
fn first_argument(args: &[Tok]) -> &[Tok] {
    let mut depth = 0i32;
    for (j, t) in args.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            return &args[..j];
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        check_query_hygiene(&Workspace::from_files(vec![SourceFile::from_source(
            "crates/x/src/a.rs",
            "x",
            FileKind::Src,
            src,
        )]))
    }

    #[test]
    fn direct_format_into_sink_is_flagged() {
        let src = r#"fn f(user: &str) { let sel = parse_trusted(&format!("name = '{user}'")); }"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("parse_trusted"));
    }

    #[test]
    fn tainted_let_flows_into_selector_parse() {
        let src = r#"
fn f(user: &str) {
    let source = format!("name = '{}'", user);
    let sel = Selector::parse(&source);
}
"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Selector::parse"));
    }

    #[test]
    fn plus_concatenation_taints() {
        let src = r#"
fn f(user: String) {
    let q = String::from("name = ") + &user;
    let q2 = "x = '".to_string() + &user + "'";
    db.records_by(&q2, key);
}
"#;
        // `String::from("…") + …` has a string literal inside the call,
        // not adjacent to `+` — but q2's initializer has `"…" + …`.
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("records_by"));
    }

    #[test]
    fn literal_view_names_and_bound_values_pass() {
        let src = r#"
fn f(ctx: &Ctx<'_>, mid: &SStr) {
    let docs = ctx.records_by("by_mid", mid);
    let spec = QuerySpec::table("accounts").filter(Filter::eq("name", name));
    let rows = db.select_spec(&spec);
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn value_argument_of_view_sinks_may_be_formatted() {
        // Only the view *name* is structure; the key is a value.
        let src = r#"fn f(ctx: &Ctx<'_>, i: u32) { let d = ctx.records_by("by_mid", &format!("m{i}")); }"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn f(user: &str) { let s = parse_trusted(&format!("x{user}")); }
}
"#;
        assert!(run(src).is_empty());
        let findings = check_query_hygiene(&Workspace::from_files(vec![SourceFile::from_source(
            "crates/x/tests/t.rs",
            "x",
            FileKind::Test,
            r#"fn f(u: &str) { let s = parse_trusted(&format!("x{u}")); }"#,
        )]));
        assert!(findings.is_empty());
    }

    #[test]
    fn sink_definitions_are_not_calls() {
        let src = "impl S { pub fn parse_trusted(text: &str) -> R { todo!() } }";
        assert!(run(src).is_empty());
    }
}
