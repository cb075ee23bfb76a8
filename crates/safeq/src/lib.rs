//! # safeweb-safeq
//!
//! Secure-by-construction query literals, after google/safe-active-record:
//! the query surfaces of the relational store, the document store and the
//! selector language accept [`TrustedLiteral`] where they used to accept
//! `&str`, so the *structure* of a query (table names, column names,
//! selector templates) can only come from three places:
//!
//! 1. **Compile-time literals.** The only implicit conversion into
//!    [`TrustedLiteral`] is `From<&'static str>`, the Rust analogue of
//!    safe-active-record's "only Symbols and frozen literals" rule. A
//!    string built at runtime — in particular one concatenated from user
//!    input — does not have a `'static` lifetime, so passing it is a
//!    **compile error**:
//!
//!    ```compile_fail
//!    use safeweb_safeq::TrustedLiteral;
//!
//!    let attacker_controlled = String::from("name = 'x' OR '1' = '1'");
//!    // error[E0716]/E0597: a runtime String is not `&'static str`.
//!    let _: TrustedLiteral = attacker_controlled.as_str().into();
//!    ```
//!
//! 2. **Checked runtime strings.** [`TrustedLiteral::checked`] accepts a
//!    labelled string only if it is *not* user-tainted, returning a typed
//!    [`Rejected`] error otherwise — the paths where query text is
//!    assembled by trusted server code but flows through [`SStr`].
//!
//! 3. **Audited declassification.** [`TrustedLiteral::declassified`] is
//!    the escape hatch: it always succeeds, but demands a static
//!    justification and records every use in a process-wide audit log
//!    ([`declassify_events`]), so a grep of the codebase plus the log
//!    enumerates every place raw user input can shape a query.
//!
//! *Values* never need trust: [`Param`] carries them into parameter
//! binding, where quoting metacharacters cannot change query structure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use safeweb_sync::Mutex;
use safeweb_taint::SStr;

/// Where a [`TrustedLiteral`] got its trust.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// A `&'static str` compile-time literal.
    Literal,
    /// A runtime string that passed the [`TrustedLiteral::checked`]
    /// taint check.
    Checked,
    /// Explicitly declassified via [`TrustedLiteral::declassified`]
    /// (recorded in the audit log).
    Declassified,
}

/// A string trusted to form query *structure* (a table name, a column
/// name, a selector template). See the crate docs for the three ways to
/// obtain one; there is deliberately no `From<String>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrustedLiteral {
    text: Cow<'static, str>,
    provenance: Provenance,
}

impl TrustedLiteral {
    /// Admits a runtime string after checking it is not user-tainted.
    ///
    /// Confidentiality labels are allowed through — they track what the
    /// *response* may disclose (enforced at the release boundary), while
    /// this check guards query *integrity* against unsanitised user
    /// input.
    ///
    /// # Errors
    ///
    /// [`Rejected`] if `s` carries the user-taint bit.
    pub fn checked(s: &SStr) -> Result<TrustedLiteral, Rejected> {
        if s.is_user_tainted() {
            return Err(Rejected::new(s.as_str()));
        }
        Ok(TrustedLiteral {
            text: Cow::Owned(s.as_str().to_string()),
            provenance: Provenance::Checked,
        })
    }

    /// The escape hatch: trusts `s` unconditionally, recording the use —
    /// justification plus a truncated preview of the value — in the
    /// process-wide audit log ([`declassify_events`]).
    ///
    /// The log retains at most [`AUDIT_CAP`] events so a hot
    /// declassifying path cannot grow process memory without bound;
    /// once full, further events only bump [`declassify_dropped`]
    /// (and [`declassify_count`], which always counts every call).
    pub fn declassified(s: &SStr, justification: &'static str) -> TrustedLiteral {
        DECLASSIFY_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut log = AUDIT.lock();
        if log.len() < AUDIT_CAP {
            let mut preview = s.as_str().to_string();
            if preview.len() > PREVIEW_LIMIT {
                let mut end = PREVIEW_LIMIT;
                while !preview.is_char_boundary(end) {
                    end -= 1;
                }
                preview.truncate(end);
            }
            log.push(DeclassifyEvent {
                justification,
                preview,
            });
        } else {
            DECLASSIFY_DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        drop(log);
        TrustedLiteral {
            text: Cow::Owned(s.as_str().to_string()),
            provenance: Provenance::Declassified,
        }
    }

    /// The trusted text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// How this literal earned its trust.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }
}

impl From<&'static str> for TrustedLiteral {
    fn from(text: &'static str) -> TrustedLiteral {
        TrustedLiteral {
            text: Cow::Borrowed(text),
            provenance: Provenance::Literal,
        }
    }
}

impl fmt::Display for TrustedLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

const PREVIEW_LIMIT: usize = 64;

/// A tainted string was refused where query structure is formed.
///
/// The message names the fix — bind the value as a [`Param`] — without
/// echoing the tainted text (error pages must not reflect user input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    len: usize,
}

impl Rejected {
    fn new(text: &str) -> Rejected {
        Rejected { len: text.len() }
    }

    /// Byte length of the refused string (safe to report; its content is
    /// deliberately not carried).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the refused string was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rejected: user-tainted data ({} bytes) cannot form query structure; \
             bind it as a parameter or declassify explicitly",
            self.len
        )
    }
}

impl std::error::Error for Rejected {}

/// One recorded use of [`TrustedLiteral::declassified`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeclassifyEvent {
    /// The static justification the call site supplied.
    pub justification: &'static str,
    /// The declassified text, truncated to 64 bytes.
    pub preview: String,
}

/// Maximum events retained by the declassification audit log. The
/// first `AUDIT_CAP` uses keep their full record (the audit question
/// is "which call sites declassify what" — answered by the earliest
/// events); beyond that only the counters grow, so the log is a fixed
/// memory cost no matter how hot the declassifying path is.
pub const AUDIT_CAP: usize = 4096;

static DECLASSIFY_COUNT: AtomicU64 = AtomicU64::new(0);
static DECLASSIFY_DROPPED: AtomicU64 = AtomicU64::new(0);
static AUDIT: Mutex<Vec<DeclassifyEvent>> = Mutex::new(Vec::new());

/// Total [`TrustedLiteral::declassified`] calls in this process.
pub fn declassify_count() -> u64 {
    DECLASSIFY_COUNT.load(Ordering::Relaxed)
}

/// Events *not* recorded because the audit log was already at
/// [`AUDIT_CAP`]. Nonzero means [`declassify_events`] is a prefix of
/// the true history; [`declassify_count`] still counts every call.
pub fn declassify_dropped() -> u64 {
    DECLASSIFY_DROPPED.load(Ordering::Relaxed)
}

/// A snapshot of the declassification audit log (at most
/// [`AUDIT_CAP`] events; see [`declassify_dropped`]).
pub fn declassify_events() -> Vec<DeclassifyEvent> {
    AUDIT.lock().clone()
}

/// A query *value* for parameter binding. Any string — tainted or not —
/// may be a `Param`: bound values are substituted after tokenisation, so
/// quoting metacharacters cannot change query structure.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// SQL NULL.
    Null,
    /// A boolean value.
    Bool(bool),
    /// An integer value.
    Int(i64),
    /// A floating-point value.
    Real(f64),
    /// A text value.
    Text(String),
}

impl From<bool> for Param {
    fn from(b: bool) -> Param {
        Param::Bool(b)
    }
}

impl From<i64> for Param {
    fn from(n: i64) -> Param {
        Param::Int(n)
    }
}

impl From<f64> for Param {
    fn from(n: f64) -> Param {
        Param::Real(n)
    }
}

impl From<&str> for Param {
    fn from(s: &str) -> Param {
        Param::Text(s.to_string())
    }
}

impl From<String> for Param {
    fn from(s: String) -> Param {
        Param::Text(s)
    }
}

impl From<&SStr> for Param {
    fn from(s: &SStr) -> Param {
        Param::Text(s.as_str().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_literals_convert_implicitly() {
        let lit: TrustedLiteral = "patients".into();
        assert_eq!(lit.as_str(), "patients");
        assert_eq!(lit.provenance(), Provenance::Literal);
    }

    #[test]
    fn checked_admits_untainted_and_rejects_tainted() {
        let trusted = SStr::public("by_mid");
        let lit = TrustedLiteral::checked(&trusted).unwrap();
        assert_eq!(lit.as_str(), "by_mid");
        assert_eq!(lit.provenance(), Provenance::Checked);

        let tainted = SStr::from_user("x' OR '1'='1");
        let err = TrustedLiteral::checked(&tainted).unwrap_err();
        assert_eq!(err.len(), tainted.as_str().len());
        // The error must not reflect the attacker's bytes.
        assert!(!err.to_string().contains("OR"));
    }

    #[test]
    fn checked_allows_confidential_labels() {
        use safeweb_labels::Label;
        let labelled = SStr::labelled("by_mid", [Label::conf("e", "mdt/a")]);
        assert!(TrustedLiteral::checked(&labelled).is_ok());
    }

    #[test]
    fn declassify_always_succeeds_and_is_audited() {
        let before = declassify_count();
        let tainted = SStr::from_user("name");
        let lit = TrustedLiteral::declassified(&tainted, "test: admin console free-form query");
        assert_eq!(lit.as_str(), "name");
        assert_eq!(lit.provenance(), Provenance::Declassified);
        assert!(declassify_count() > before);
        let events = declassify_events();
        assert!(events
            .iter()
            .any(|e| e.justification.contains("admin console") && e.preview == "name"));
    }

    #[test]
    fn declassify_preview_truncates_on_char_boundary() {
        let long = SStr::from_user(format!("{}é", "x".repeat(PREVIEW_LIMIT - 1)));
        let _ = TrustedLiteral::declassified(&long, "test: truncation");
        let events = declassify_events();
        let ev = events.last().expect("event recorded");
        assert!(ev.preview.len() <= PREVIEW_LIMIT);
        assert!(ev.preview.starts_with("xxx"));
    }

    #[test]
    fn params_from_common_types() {
        assert_eq!(Param::from(true), Param::Bool(true));
        assert_eq!(Param::from(42i64), Param::Int(42));
        assert_eq!(Param::from(1.5f64), Param::Real(1.5));
        assert_eq!(Param::from("x"), Param::Text("x".into()));
        assert_eq!(
            Param::from(&SStr::from_user("x' --")),
            Param::Text("x' --".into())
        );
    }
}
