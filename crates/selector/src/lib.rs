//! # safeweb-selector
//!
//! The SQL-92 content-filtering language used by SafeWeb's event broker
//! (§4.2 of the paper): STOMP `SUBSCRIBE` frames may carry a `selector`
//! header such as `type = 'cancer' AND age > 50`, and the broker delivers
//! only events whose attributes satisfy it.
//!
//! The dialect follows JMS message selectors: identifiers name event
//! attributes, comparisons, `AND`/`OR`/`NOT` with three-valued logic,
//! `LIKE` (with `ESCAPE`), `IN`, `BETWEEN`, `IS [NOT] NULL` and arithmetic.
//! Because SafeWeb event attributes are untyped strings, comparisons coerce
//! numerically when both operands look numeric.
//!
//! ```
//! use std::collections::BTreeMap;
//! use safeweb_selector::Selector;
//!
//! let sel = Selector::parse("type = 'cancer' AND age BETWEEN 50 AND 70")?;
//! let mut attrs = BTreeMap::new();
//! attrs.insert("type".to_string(), "cancer".to_string());
//! attrs.insert("age".to_string(), "61".to_string());
//! assert!(sel.matches(&attrs));
//! # Ok::<(), safeweb_selector::ParseSelectorError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ast;
mod error;
mod eval;
mod parser;
mod token;

pub use ast::{ArithOp, CmpOp, Expr};
pub use error::ParseSelectorError;
pub use eval::{AttributeSource, Truth};

use std::fmt;
use std::str::FromStr;

use safeweb_safeq::{Param, TrustedLiteral};

use crate::token::{tokenize, Token};

/// Maximum nesting depth (`NOT` chains, unary minus, parentheses) the
/// parser accepts before returning a typed error instead of recursing.
pub const MAX_NESTING_DEPTH: usize = parser::MAX_DEPTH;

/// Longest selector source, in bytes, [`Selector::parse`] accepts. A
/// `SUBSCRIBE` selector is peer input, and `LIKE` costs up to
/// O(|text| × |pattern|) per evaluated event; the cap bounds the pattern.
pub const MAX_SELECTOR_LEN: usize = 4096;

/// Errors from the trusted selector constructor [`Selector::bind`].
#[derive(Debug, Clone, PartialEq)]
pub enum SelectorError {
    /// The template failed to parse.
    Parse(ParseSelectorError),
    /// A bind template's placeholder count does not match the parameters.
    Arity {
        /// Placeholders in the template.
        expected: usize,
        /// Parameters supplied.
        got: usize,
    },
    /// `Param::Null` cannot be bound: the selector grammar has no `NULL`
    /// literal (test for absence with `IS NULL` instead).
    NullParam,
}

impl fmt::Display for SelectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectorError::Parse(e) => e.fmt(f),
            SelectorError::Arity { expected, got } => write!(
                f,
                "bind template has {expected} placeholder(s) but {got} parameter(s) were supplied"
            ),
            SelectorError::NullParam => f.write_str(
                "cannot bind NULL into a selector (the grammar has no NULL literal; use IS NULL)",
            ),
        }
    }
}

impl std::error::Error for SelectorError {}

impl From<ParseSelectorError> for SelectorError {
    fn from(e: ParseSelectorError) -> SelectorError {
        SelectorError::Parse(e)
    }
}

/// A parsed, reusable selector expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    expr: Expr,
    source: String,
}

impl Selector {
    /// Parses a selector expression.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSelectorError`] when the expression is longer than
    /// [`MAX_SELECTOR_LEN`] bytes or is not valid selector syntax.
    pub fn parse(input: &str) -> Result<Selector, ParseSelectorError> {
        if input.len() > MAX_SELECTOR_LEN {
            return Err(ParseSelectorError::new(
                MAX_SELECTOR_LEN,
                format!(
                    "selector is {} bytes, over the {MAX_SELECTOR_LEN}-byte cap",
                    input.len()
                ),
            ));
        }
        let expr = parser::parse(input)?;
        Ok(Selector {
            expr,
            source: input.to_string(),
        })
    }

    /// Parses a trusted template containing `?` placeholders and binds
    /// one [`Param`] to each, in order.
    ///
    /// Substitution happens **after** tokenisation: each placeholder
    /// becomes a single string/number/boolean token, so quoting
    /// metacharacters inside a bound value can never change the
    /// expression's structure — `Selector::bind("name = ?", ...)` with
    /// the value `x' OR 'a' = 'a` compares `name` against that exact
    /// 16-character string:
    ///
    /// ```
    /// use std::collections::BTreeMap;
    /// use safeweb_selector::Selector;
    ///
    /// let hostile = "x' OR 'a' = 'a";
    /// let sel = Selector::bind("name = ?", &[hostile.into()])?;
    /// let mut attrs = BTreeMap::new();
    /// attrs.insert("name".to_string(), "anything".to_string());
    /// assert!(!sel.matches(&attrs));
    /// attrs.insert("name".to_string(), hostile.to_string());
    /// assert!(sel.matches(&attrs));
    /// # Ok::<(), safeweb_selector::SelectorError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SelectorError::Arity`] when placeholder and parameter counts
    /// differ, [`SelectorError::NullParam`] for `Param::Null`, and
    /// [`SelectorError::Parse`] when the substituted template is not
    /// valid selector syntax.
    pub fn bind(
        template: impl Into<TrustedLiteral>,
        params: &[Param],
    ) -> Result<Selector, SelectorError> {
        let template = template.into();
        let tokens = tokenize(template.as_str())?;
        let expected = tokens.iter().filter(|t| matches!(t, Token::Param)).count();
        if expected != params.len() {
            return Err(SelectorError::Arity {
                expected,
                got: params.len(),
            });
        }
        let mut next = params.iter();
        let mut bound = Vec::with_capacity(tokens.len());
        for token in tokens {
            bound.push(match token {
                Token::Param => match next.next().expect("arity checked above") {
                    Param::Null => return Err(SelectorError::NullParam),
                    Param::Bool(true) => Token::True,
                    Param::Bool(false) => Token::False,
                    Param::Int(n) => Token::Num(*n as f64),
                    Param::Real(n) => Token::Num(*n),
                    Param::Text(s) => Token::Str(s.clone()),
                },
                other => other,
            });
        }
        let expr = parser::parse_tokens(bound)?;
        // The canonical printed form (string tokens re-escaped) is the
        // bound selector's source text.
        let source = expr.to_string();
        Ok(Selector { expr, source })
    }

    /// Whether the attributes satisfy this selector (evaluates to definite
    /// `TRUE`; `UNKNOWN` — e.g. from missing attributes — does not match).
    pub fn matches<S: AttributeSource>(&self, source: &S) -> bool {
        self.evaluate(source) == Truth::True
    }

    /// Full three-valued evaluation result.
    pub fn evaluate<S: AttributeSource>(&self, source: &S) -> Truth {
        eval::eval_truth(&self.expr, source)
    }

    /// The parsed expression tree.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

impl FromStr for Selector {
    type Err = ParseSelectorError;

    fn from_str(s: &str) -> Result<Selector, ParseSelectorError> {
        Selector::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_caps_the_source_length() {
        let at_cap = format!("x = '{}'", "a".repeat(MAX_SELECTOR_LEN - 6));
        assert_eq!(at_cap.len(), MAX_SELECTOR_LEN);
        assert!(Selector::parse(&at_cap).is_ok());
        let over = format!("x = '{}'", "a".repeat(MAX_SELECTOR_LEN - 5));
        let err = Selector::parse(&over).unwrap_err();
        assert_eq!(err.position(), MAX_SELECTOR_LEN);
    }
}
