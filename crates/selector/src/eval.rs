//! Three-valued-logic evaluator over string attribute maps.
//!
//! Event attributes are untyped strings (§4.1), so the evaluator coerces in
//! the SQL style: a comparison is numeric when **both** operands parse as
//! numbers, string-wise otherwise. Missing attributes evaluate to SQL
//! `NULL`, and `NULL` propagates through comparisons and arithmetic with
//! Kleene three-valued logic — a selector only *matches* when it evaluates
//! to definite `TRUE`.

use crate::ast::{ArithOp, CmpOp, Expr};

/// The lattice of evaluation results for boolean contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true — the event matches.
    True,
    /// Definitely false.
    False,
    /// NULL was encountered; indeterminate.
    Unknown,
}

impl Truth {
    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    fn of(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }
}

/// Runtime value produced by evaluating a sub-expression.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
}

/// Provides attribute values for identifiers in a selector. Implemented for
/// plain maps and by the event type in `safeweb-events`.
pub trait AttributeSource {
    /// The value of the named attribute, or `None` if absent (SQL `NULL`).
    fn attribute(&self, name: &str) -> Option<&str>;
}

impl AttributeSource for std::collections::BTreeMap<String, String> {
    fn attribute(&self, name: &str) -> Option<&str> {
        self.get(name).map(String::as_str)
    }
}

impl AttributeSource for std::collections::HashMap<String, String> {
    fn attribute(&self, name: &str) -> Option<&str> {
        self.get(name).map(String::as_str)
    }
}

impl<T: AttributeSource + ?Sized> AttributeSource for &T {
    fn attribute(&self, name: &str) -> Option<&str> {
        (**self).attribute(name)
    }
}

pub(crate) fn eval_truth<S: AttributeSource>(expr: &Expr, source: &S) -> Truth {
    match eval(expr, source) {
        Val::Null => Truth::Unknown,
        Val::Bool(b) => Truth::of(b),
        // Non-boolean top-level results do not constitute a match.
        _ => Truth::Unknown,
    }
}

fn eval<S: AttributeSource>(expr: &Expr, source: &S) -> Val {
    match expr {
        Expr::Ident(name) => match source.attribute(name) {
            Some(s) => Val::Str(s.to_string()),
            None => Val::Null,
        },
        Expr::Str(s) => Val::Str(s.clone()),
        Expr::Num(n) => Val::Num(*n),
        Expr::Bool(b) => Val::Bool(*b),
        Expr::Not(e) => truth_val(eval_truth(e, source).not()),
        Expr::And(a, b) => truth_val(eval_truth(a, source).and(eval_truth(b, source))),
        Expr::Or(a, b) => truth_val(eval_truth(a, source).or(eval_truth(b, source))),
        Expr::Cmp(op, a, b) => {
            let (va, vb) = (eval(a, source), eval(b, source));
            truth_val(compare(*op, &va, &vb))
        }
        Expr::Arith(op, a, b) => {
            let (va, vb) = (eval(a, source), eval(b, source));
            match (as_num(&va), as_num(&vb)) {
                (Some(x), Some(y)) => {
                    let r = match op {
                        ArithOp::Add => x + y,
                        ArithOp::Sub => x - y,
                        ArithOp::Mul => x * y,
                        ArithOp::Div => x / y,
                    };
                    if r.is_finite() {
                        Val::Num(r)
                    } else {
                        Val::Null
                    }
                }
                _ => Val::Null,
            }
        }
        Expr::Neg(e) => match as_num(&eval(e, source)) {
            Some(x) => Val::Num(-x),
            None => Val::Null,
        },
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
        } => {
            let t = match eval(expr, source) {
                Val::Str(s) => Truth::of(like_match(&s, pattern, *escape)),
                Val::Null => Truth::Unknown,
                // LIKE on numbers applies to their string form, mirroring
                // the untyped-string event model.
                Val::Num(n) => Truth::of(like_match(&format_num(n), pattern, *escape)),
                Val::Bool(_) => Truth::Unknown,
            };
            truth_val(if *negated { t.not() } else { t })
        }
        Expr::In {
            expr,
            items,
            negated,
        } => {
            let t = match eval(expr, source) {
                Val::Str(s) => Truth::of(items.contains(&s)),
                Val::Num(n) => {
                    let s = format_num(n);
                    Truth::of(items.contains(&s))
                }
                Val::Null => Truth::Unknown,
                Val::Bool(_) => Truth::Unknown,
            };
            truth_val(if *negated { t.not() } else { t })
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, source);
            let l = eval(lo, source);
            let h = eval(hi, source);
            let t = compare(CmpOp::Ge, &v, &l).and(compare(CmpOp::Le, &v, &h));
            truth_val(if *negated { t.not() } else { t })
        }
        Expr::IsNull { expr, negated } => {
            let is_null = matches!(eval(expr, source), Val::Null);
            truth_val(Truth::of(is_null != *negated))
        }
    }
}

fn truth_val(t: Truth) -> Val {
    match t {
        Truth::True => Val::Bool(true),
        Truth::False => Val::Bool(false),
        Truth::Unknown => Val::Null,
    }
}

fn as_num(v: &Val) -> Option<f64> {
    match v {
        Val::Num(n) => Some(*n),
        Val::Str(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// Formats a number the way untyped string attributes would store it:
/// integral values without a decimal point.
fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn compare(op: CmpOp, a: &Val, b: &Val) -> Truth {
    if matches!(a, Val::Null) || matches!(b, Val::Null) {
        return Truth::Unknown;
    }
    // Numeric comparison when both sides are numeric (or numeric strings);
    // otherwise lexicographic string comparison.
    let ord = match (as_num(a), as_num(b)) {
        (Some(x), Some(y)) => x.partial_cmp(&y),
        _ => match (a, b) {
            (Val::Str(x), Val::Str(y)) => Some(x.cmp(y)),
            (Val::Bool(x), Val::Bool(y)) => Some(x.cmp(y)),
            _ => None,
        },
    };
    let Some(ord) = ord else {
        return Truth::Unknown;
    };
    Truth::of(match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

/// One pattern element of a `LIKE`.
#[derive(Clone, Copy, PartialEq)]
enum LikeTok {
    /// A literal character, escaped or plain.
    Lit(char),
    /// `_`: exactly one character.
    One,
    /// `%`: any run of characters, including none.
    Any,
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches a
/// single character; `escape` makes the following pattern character literal.
///
/// The pattern is tokenised once, then matched in one greedy pass that
/// keeps a single backtrack point (the latest `%`): O(|text| × |pattern|)
/// in the worst case and no recursion, so a subscriber-supplied pattern
/// can neither stall the publisher evaluating it nor overflow its stack.
fn like_match(text: &str, pattern: &str, escape: Option<char>) -> bool {
    let mut pat = Vec::new();
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        pat.push(match c {
            c if Some(c) == escape => match chars.next() {
                Some(lit) => LikeTok::Lit(lit),
                None => return false, // dangling escape never matches
            },
            '%' => LikeTok::Any,
            '_' => LikeTok::One,
            c => LikeTok::Lit(c),
        });
    }
    let text: Vec<char> = text.chars().collect();
    let (mut ti, mut pi) = (0, 0);
    // After the latest `%`: the pattern index past it, and the text index
    // its run currently ends at.
    let mut backtrack: Option<(usize, usize)> = None;
    while ti < text.len() {
        match pat.get(pi) {
            Some(LikeTok::Any) => {
                pi += 1;
                backtrack = Some((pi, ti));
            }
            Some(LikeTok::One) => (ti, pi) = (ti + 1, pi + 1),
            Some(&LikeTok::Lit(c)) if c == text[ti] => (ti, pi) = (ti + 1, pi + 1),
            // Mismatch: let the latest `%` swallow one more character.
            _ => match backtrack {
                Some((after_any, run_end)) => {
                    (pi, ti) = (after_any, run_end + 1);
                    backtrack = Some((after_any, ti));
                }
                None => return false,
            },
        }
    }
    pat[pi..].iter().all(|tok| *tok == LikeTok::Any)
}

#[cfg(test)]
mod tests {
    use super::like_match;
    use crate::Selector;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn attrs(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn matches(sel: &str, pairs: &[(&str, &str)]) -> bool {
        Selector::parse(sel).unwrap().matches(&attrs(pairs))
    }

    #[test]
    fn string_equality() {
        assert!(matches("type = 'cancer'", &[("type", "cancer")]));
        assert!(!matches("type = 'cancer'", &[("type", "benign")]));
    }

    #[test]
    fn numeric_coercion() {
        assert!(matches("age > 50", &[("age", "61")]));
        assert!(!matches("age > 50", &[("age", "7")]));
        // "7" > "50" lexicographically, but numeric coercion must win.
        assert!(matches("age < 50", &[("age", "7")]));
    }

    #[test]
    fn missing_attribute_is_null_not_match() {
        assert!(!matches("age > 50", &[]));
        assert!(!matches("NOT age > 50", &[])); // NOT UNKNOWN = UNKNOWN
        assert!(matches("age IS NULL", &[]));
        assert!(matches("age IS NOT NULL", &[("age", "1")]));
    }

    #[test]
    fn three_valued_logic() {
        // UNKNOWN OR TRUE = TRUE
        assert!(matches(
            "missing = 'x' OR type = 'cancer'",
            &[("type", "cancer")]
        ));
        // UNKNOWN AND TRUE = UNKNOWN → no match
        assert!(!matches(
            "missing = 'x' AND type = 'cancer'",
            &[("type", "cancer")]
        ));
        // FALSE AND UNKNOWN = FALSE
        assert!(matches(
            "NOT (type = 'benign' AND missing = 'x')",
            &[("type", "cancer")]
        ));
    }

    #[test]
    fn like_patterns() {
        assert!(matches("name LIKE 'J_n%'", &[("name", "Jones")]));
        assert!(!matches("name LIKE 'J_n%'", &[("name", "Smith")]));
        assert!(matches(
            "code LIKE '10!%26' ESCAPE '!'",
            &[("code", "10%26")]
        ));
        assert!(!matches(
            "code LIKE '10!%26' ESCAPE '!'",
            &[("code", "10x26")]
        ));
        assert!(matches("a LIKE '%'", &[("a", "")]));
        assert!(matches("a NOT LIKE 'x%'", &[("a", "y")]));
    }

    /// The recursive matcher `like_match` replaced, kept as its oracle:
    /// each `%` tries every split of the rest of the text, so its cost is
    /// exponential in the `%` count and its depth one frame per pattern
    /// character.
    fn like_rec(text: &[char], pat: &[char], escape: Option<char>) -> bool {
        if pat.is_empty() {
            return text.is_empty();
        }
        match pat[0] {
            c if Some(c) == escape => match pat.get(1) {
                Some(&lit) => {
                    !text.is_empty() && text[0] == lit && like_rec(&text[1..], &pat[2..], escape)
                }
                None => false,
            },
            '%' => (0..=text.len()).any(|skip| like_rec(&text[skip..], &pat[1..], escape)),
            '_' => !text.is_empty() && like_rec(&text[1..], &pat[1..], escape),
            c => !text.is_empty() && text[0] == c && like_rec(&text[1..], &pat[1..], escape),
        }
    }

    fn like_oracle(text: &str, pattern: &str, escape: Option<char>) -> bool {
        let text: Vec<char> = text.chars().collect();
        let pattern: Vec<char> = pattern.chars().collect();
        like_rec(&text, &pattern, escape)
    }

    proptest! {
        #[test]
        fn like_agrees_with_the_recursive_oracle(
            pattern in "[ab%_!]{0,8}",
            texts in proptest::collection::vec("[ab!]{0,8}", 1..16),
        ) {
            for text in &texts {
                for escape in [None, Some('!')] {
                    prop_assert_eq!(
                        like_match(text, &pattern, escape),
                        like_oracle(text, &pattern, escape),
                        "{:?} LIKE {:?} ESCAPE {:?}", text, pattern, escape
                    );
                }
            }
        }
    }

    /// Patterns that made the recursive matcher backtrack for minutes or
    /// overflow its stack: one greedy pass each now.
    #[test]
    fn hostile_like_patterns_finish() {
        let text = "a".repeat(64);
        let alternating = format!("x LIKE '{}%b'", "%a".repeat(16));
        assert!(!matches(&alternating, &[("x", &text)]));
        let ending = format!("x LIKE '{}'", "%a".repeat(16));
        assert!(matches(&ending, &[("x", &text)]));

        for percents in [100_000, 1_000_000] {
            let pattern = format!("{}x", "%".repeat(percents));
            assert!(like_match("x", &pattern, None));
            assert!(!like_match("y", &pattern, None));
        }
    }

    #[test]
    fn in_lists() {
        assert!(matches("mdt IN ('a','b')", &[("mdt", "b")]));
        assert!(!matches("mdt IN ('a','b')", &[("mdt", "c")]));
        assert!(matches("mdt NOT IN ('a','b')", &[("mdt", "c")]));
        assert!(!matches("mdt IN ('a')", &[]));
    }

    #[test]
    fn between_is_inclusive() {
        assert!(matches("age BETWEEN 40 AND 60", &[("age", "40")]));
        assert!(matches("age BETWEEN 40 AND 60", &[("age", "60")]));
        assert!(!matches("age BETWEEN 40 AND 60", &[("age", "61")]));
        assert!(matches("age NOT BETWEEN 40 AND 60", &[("age", "61")]));
    }

    #[test]
    fn arithmetic() {
        assert!(matches("dose * 2 = 10", &[("dose", "5")]));
        assert!(matches("a + b > 10", &[("a", "6"), ("b", "5")]));
        assert!(!matches("a / 0 = 1", &[("a", "5")])); // div-by-zero → NULL
        assert!(matches("-a < 0", &[("a", "3")]));
    }

    #[test]
    fn non_numeric_arith_is_null() {
        assert!(!matches("name + 1 = 2", &[("name", "bob")]));
        assert!(matches("(name + 1) IS NULL", &[("name", "bob")]));
    }

    #[test]
    fn boolean_literals() {
        assert!(matches("TRUE", &[]));
        assert!(!matches("FALSE", &[]));
        assert!(!matches("NOT TRUE", &[]));
    }
}
