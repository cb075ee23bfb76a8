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
//! Sinks: `select_spec(…)` (all arguments),
//! `Selector::parse(…)` (the untrusted-text parser — feeding it
//! *constructed* text is the SQLi shape), and the view-name (first)
//! argument of `records_by` / `create_view` / `query_view`.
//!
//! The walk is the shared one in `rules/flow.rs`; the fixture
//! corpus mutation-checks both directions.

use std::collections::HashSet;

use crate::diag::Finding;
use crate::lexer::{Tok, TokKind};
use crate::rules::flow::{check_flows, Sink};
use crate::workspace::Workspace;

const RULE: &str = "query-hygiene";

/// Sinks whose every argument must be concat-free.
const FULL_ARG_SINKS: [&str; 1] = ["select_spec"];

/// Sinks whose first (view-name / template) argument must be
/// concat-free.
const FIRST_ARG_SINKS: [&str; 3] = ["records_by", "create_view", "query_view"];

/// Runs the rule over every non-test file.
pub fn check_query_hygiene(ws: &Workspace) -> Vec<Finding> {
    check_flows(ws, RULE, is_concat_expr, sink)
}

/// The sink table: which argument of the call at `tokens[i]` must be
/// concat-free.
fn sink(tokens: &[Tok], i: usize) -> Option<Sink> {
    let name = tokens[i].text.as_str();
    let selector_parse = name == "parse"
        && i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].is_ident("Selector");
    let (arg, shown) = if FULL_ARG_SINKS.contains(&name) {
        (None, name)
    } else if selector_parse {
        (None, "Selector::parse")
    } else if FIRST_ARG_SINKS.contains(&name) {
        (Some(0), name)
    } else {
        return None;
    };
    Some(Sink {
        arg,
        message: format!(
            "concatenated string flows into `{shown}`: query structure must \
             come from a literal, a checked `TrustedLiteral`, or bound \
             parameters — never `format!`/`+` output"
        ),
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile};

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
        let src = r#"fn f(user: &str) { let rows = db.select_spec(&format!("name = '{user}'")); }"#;
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("select_spec"));
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
    fn f(user: &str) { let s = db.select_spec(&format!("x{user}")); }
}
"#;
        assert!(run(src).is_empty());
        let findings = check_query_hygiene(&Workspace::from_files(vec![SourceFile::from_source(
            "crates/x/tests/t.rs",
            "x",
            FileKind::Test,
            r#"fn f(u: &str) { let s = db.select_spec(&format!("x{u}")); }"#,
        )]));
        assert!(findings.is_empty());
    }

    #[test]
    fn sink_definitions_are_not_calls() {
        let src = "impl S { pub fn select_spec(spec: &str) -> R { todo!() } }";
        assert!(run(src).is_empty());
    }
}
