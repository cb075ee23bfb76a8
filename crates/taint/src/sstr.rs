//! Labelled strings: the workhorse of the frontend taint-tracking library.
//!
//! The paper redefines Ruby's `String` methods (aliasing `+` to a
//! label-propagating `nconcat`, §4.4) so that every operation carries
//! labels along. Rust cannot monkey-patch `str`, so the equivalent is a
//! wrapper type whose entire method surface propagates labels; the
//! framework hands application code [`SStr`] values, and the application's
//! "non-malicious" obligation (§3.2) is simply to keep computing with them.

use std::fmt;
use std::ops::Add;

use safeweb_labels::{Label, LabelSet, PrivilegeSet};
use safeweb_regex::Regex;

/// A string carrying confidentiality/integrity labels and the Ruby-style
/// *user taint* bit (set on data that arrived from a web user and not yet
/// sanitised — the XSS/SQLI mechanism of §4.4).
///
/// ```
/// use safeweb_taint::SStr;
/// use safeweb_labels::Label;
///
/// let name = SStr::labelled("A. Patient", [Label::conf("ecric.org.uk", "patient/1")]);
/// let greeting = SStr::public("Dear ") + &name;
/// assert!(greeting.labels().contains(&Label::conf("ecric.org.uk", "patient/1")));
/// ```
#[derive(Debug, Clone)]
pub struct SStr {
    value: String,
    // An interned handle: most derived strings carry exactly their parent's
    // labels, and with hash-consed sets that is a plain pointer copy;
    // unions short-circuit on identical ids, empty operands and subsets.
    // (The paper's implementation points out efficiency of label
    // propagation as a design goal, §1.)
    labels: LabelSet,
    user_tainted: bool,
    // The set most recently joined into `labels` (so a subset of it, as
    // labels only ever grow): a page built from a hundred rows of one
    // document set joins it once, not once per cell. Not part of equality.
    joined: LabelSet,
}

impl PartialEq for SStr {
    fn eq(&self, other: &SStr) -> bool {
        self.value == other.value
            && self.labels == other.labels
            && self.user_tainted == other.user_tainted
    }
}

impl Eq for SStr {}

impl SStr {
    fn new(value: String, labels: LabelSet, user_tainted: bool) -> SStr {
        SStr {
            value,
            labels,
            user_tainted,
            joined: labels,
        }
    }

    /// A public (unlabelled) string.
    pub fn public(value: impl Into<String>) -> SStr {
        SStr::new(value.into(), LabelSet::new(), false)
    }

    /// A string labelled with the given labels.
    pub fn labelled(value: impl Into<String>, labels: impl IntoIterator<Item = Label>) -> SStr {
        SStr::new(value.into(), labels.into_iter().collect(), false)
    }

    /// A string with an existing label set (an interned handle — attaching
    /// it costs one pointer copy).
    pub fn with_label_set(value: impl Into<String>, labels: LabelSet) -> SStr {
        SStr::new(value.into(), labels, false)
    }

    /// A string that arrived from a web user: marked user-tainted, like
    /// Ruby's `taint` (§4.4).
    pub fn from_user(value: impl Into<String>) -> SStr {
        SStr::new(value.into(), LabelSet::new(), true)
    }

    /// The raw value. This is **inspection**, not release: returning data
    /// to a client must go through [`SStr::check_release`].
    pub fn as_str(&self) -> &str {
        &self.value
    }

    /// The labels attached to this string.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Whether the string is user-tainted (unsanitised user input).
    pub fn is_user_tainted(&self) -> bool {
        self.user_tainted
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Attaches an additional label (always permitted — data may freely
    /// become more restricted).
    pub fn add_label(&mut self, label: Label) {
        self.labels.insert(label);
    }

    /// Builder-style [`SStr::add_label`].
    pub fn with_label(mut self, label: Label) -> SStr {
        self.add_label(label);
        self
    }

    fn derive(&self, value: String, others: &[&SStr]) -> SStr {
        let mut labels = self.labels;
        let mut tainted = self.user_tainted;
        for o in others {
            labels = labels.union(&o.labels);
            tainted |= o.user_tainted;
        }
        SStr::new(value, labels, tainted)
    }

    /// Concatenation, propagating both operands' labels (the paper's
    /// `nconcat`).
    pub fn concat(&self, other: &SStr) -> SStr {
        self.derive(format!("{}{}", self.value, other.value), &[other])
    }

    /// Appends another labelled string in place.
    pub fn push_sstr(&mut self, other: &SStr) {
        self.append_labelled(&other.labels).push_str(&other.value);
        self.user_tainted |= other.user_tainted;
    }

    /// Joins `labels` into this string's labels and hands out the raw
    /// buffer, for appending data that carries them without building a
    /// temporary [`SStr`] per piece. Whatever is appended is covered by
    /// the joined labels; appending less, or nothing, only over-labels.
    pub fn append_labelled(&mut self, labels: &LabelSet) -> &mut String {
        if *labels != self.joined {
            self.labels = self.labels.union(labels);
            self.joined = *labels;
        }
        &mut self.value
    }

    /// Appends `piece` HTML-escaped, as data carrying `labels` — the
    /// sanitiser ([`SStr::sanitize_html`]) writing straight into this
    /// buffer. The escaped bytes are safe whatever `piece` was, so no
    /// user-taint bit comes with them.
    pub fn push_html_escaped(&mut self, piece: &str, labels: &LabelSet) {
        escape_html(piece, self.append_labelled(labels));
    }

    /// Appends a public literal in place.
    pub fn push_str(&mut self, literal: &str) {
        self.value.push_str(literal);
    }

    /// Concatenates many labelled pieces.
    pub fn concat_all<'a, I: IntoIterator<Item = &'a SStr>>(pieces: I) -> SStr {
        SStr::join(pieces, "")
    }

    /// Joins pieces with a public separator.
    pub fn join<'a, I: IntoIterator<Item = &'a SStr>>(pieces: I, sep: &str) -> SStr {
        let mut out = SStr::public("");
        for (i, p) in pieces.into_iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_sstr(p);
        }
        out
    }

    /// Byte-range substring (panics on non-boundary indices, like `str`).
    pub fn slice(&self, start: usize, end: usize) -> SStr {
        self.derive(self.value[start..end].to_string(), &[])
    }

    /// Splits on a literal separator; every piece keeps the labels.
    pub fn split(&self, sep: &str) -> Vec<SStr> {
        self.value
            .split(sep)
            .map(|p| self.derive(p.to_string(), &[]))
            .collect()
    }

    /// Replaces all occurrences of `from` with a labelled replacement,
    /// combining labels of both.
    pub fn replace(&self, from: &str, to: &SStr) -> SStr {
        self.derive(self.value.replace(from, &to.value), &[to])
    }

    /// Uppercase copy, keeping labels.
    pub fn to_uppercase(&self) -> SStr {
        self.derive(self.value.to_uppercase(), &[])
    }

    /// Lowercase copy, keeping labels.
    pub fn to_lowercase(&self) -> SStr {
        self.derive(self.value.to_lowercase(), &[])
    }

    /// Whitespace-trimmed copy, keeping labels.
    pub fn trim(&self) -> SStr {
        self.derive(self.value.trim().to_string(), &[])
    }

    /// Whether the value contains a literal substring (inspection only;
    /// the boolean itself is not tracked — see §3.2 on accepting implicit-
    /// flow false negatives for non-malicious code).
    pub fn contains(&self, needle: &str) -> bool {
        self.value.contains(needle)
    }

    /// Whether the value starts with a literal prefix.
    pub fn starts_with(&self, prefix: &str) -> bool {
        self.value.starts_with(prefix)
    }

    /// Regex match with labelled captures: the SafeWeb equivalent of
    /// Rubinius's taint-tracked `$~`/`$1` (§4.4). Every capture carries the
    /// subject's labels.
    pub fn regex_captures(&self, regex: &Regex) -> Option<SCaptures> {
        let caps = regex.captures(&self.value)?;
        let groups = caps
            .iter()
            .map(|m| m.map(|m| self.derive(m.as_str().to_string(), &[])))
            .collect();
        Some(SCaptures { groups })
    }

    /// Whether the regex matches (inspection only).
    pub fn regex_is_match(&self, regex: &Regex) -> bool {
        regex.is_match(&self.value)
    }

    /// Regex replacement with label combination: the result carries the
    /// subject's labels plus the replacement's.
    pub fn regex_replace_all(&self, regex: &Regex, replacement: &SStr) -> SStr {
        self.derive(
            regex.replace_all(&self.value, &replacement.value),
            &[replacement],
        )
    }

    /// HTML-escapes the value and clears the user-taint bit: the sanitiser
    /// that makes user input safe for HTML responses.
    pub fn sanitize_html(&self) -> SStr {
        let mut out = String::with_capacity(self.value.len());
        escape_html(&self.value, &mut out);
        SStr::new(out, self.labels, false)
    }

    /// SQL-escapes the value (doubling single quotes) and clears the
    /// user-taint bit: the sanitiser for SQL-ish queries.
    pub fn sanitize_sql(&self) -> SStr {
        SStr::new(self.value.replace('\'', "''"), self.labels, false)
    }

    /// The boundary check (§4.4 step 4): releases the raw string only if
    /// `privileges` covers every confidentiality label.
    ///
    /// # Errors
    ///
    /// Returns [`ReleaseError`] naming the blocking labels; the caller
    /// (the web frontend) turns this into an aborted response.
    pub fn check_release(&self, privileges: &PrivilegeSet) -> Result<&str, ReleaseError> {
        check_labels(&self.labels, privileges)?;
        Ok(&self.value)
    }

    /// [`SStr::check_release`] by value: the same check, then the string
    /// itself moves out — what the frontend does with a finished page.
    ///
    /// # Errors
    ///
    /// Returns [`ReleaseError`] naming the blocking labels.
    pub fn release(self, privileges: &PrivilegeSet) -> Result<String, ReleaseError> {
        check_labels(&self.labels, privileges)?;
        Ok(self.value)
    }

    /// Parses the value as a labelled integer, keeping labels.
    pub fn parse_snum(&self) -> Option<crate::snum::SNum> {
        let n: i64 = self.value.trim().parse().ok()?;
        Some(crate::snum::SNum::with_label_set(n, self.labels))
    }
}

/// The label half of the boundary check, shared by every labelled type.
pub(crate) fn check_labels(
    labels: &LabelSet,
    privileges: &PrivilegeSet,
) -> Result<(), ReleaseError> {
    // Fast path: one memoised id-pair lookup, no allocation. The
    // blocking labels are only materialised to explain a denial.
    if labels.flows_to(privileges) {
        Ok(())
    } else {
        Err(ReleaseError {
            blocking: labels.blocking_labels(privileges),
        })
    }
}

/// Appends `s` to `out` with the five HTML metacharacters as entities.
fn escape_html(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
}

/// Labelled regex captures; see [`SStr::regex_captures`].
#[derive(Debug, Clone)]
pub struct SCaptures {
    groups: Vec<Option<SStr>>,
}

impl SCaptures {
    /// The `i`-th group (0 = whole match), labelled like the subject.
    pub fn get(&self, i: usize) -> Option<&SStr> {
        self.groups.get(i)?.as_ref()
    }

    /// Number of groups including group 0.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Captures always include group 0.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Error from [`SStr::check_release`]: the response carried labels the
/// requesting user lacks clearance for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReleaseError {
    blocking: Vec<Label>,
}

impl ReleaseError {
    /// The labels that blocked the release.
    pub fn blocking(&self) -> &[Label] {
        &self.blocking
    }
}

impl fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.blocking.iter().map(|l| l.to_string()).collect();
        write!(f, "release blocked by labels: {}", names.join(", "))
    }
}

impl std::error::Error for ReleaseError {}

impl Add<&SStr> for SStr {
    type Output = SStr;

    /// `a + &b` concatenates with label propagation — the paper's aliased
    /// `String#+`.
    fn add(self, rhs: &SStr) -> SStr {
        self.concat(rhs)
    }
}

impl Add<&str> for SStr {
    type Output = SStr;

    /// Concatenation with a public literal.
    fn add(mut self, rhs: &str) -> SStr {
        self.push_str(rhs);
        self
    }
}

impl From<&str> for SStr {
    fn from(s: &str) -> SStr {
        SStr::public(s)
    }
}

impl From<String> for SStr {
    fn from(s: String) -> SStr {
        SStr::public(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::Privilege;

    fn patient() -> Label {
        Label::conf("e", "patient/1")
    }

    fn mdt() -> Label {
        Label::conf("e", "mdt/a")
    }

    #[test]
    fn concat_unions_labels() {
        let a = SStr::labelled("a", [patient()]);
        let b = SStr::labelled("b", [mdt()]);
        let c = a.concat(&b);
        assert_eq!(c.as_str(), "ab");
        assert!(c.labels().contains(&patient()));
        assert!(c.labels().contains(&mdt()));
    }

    #[test]
    fn operator_add_propagates() {
        let c = SStr::labelled("a", [patient()]) + &SStr::public("b") + "lit";
        assert_eq!(c.as_str(), "ablit");
        assert!(c.labels().contains(&patient()));
    }

    #[test]
    fn derived_ops_keep_labels() {
        let s = SStr::labelled("  Secret Report  ", [patient()]);
        for derived in [
            s.trim(),
            s.to_uppercase(),
            s.to_lowercase(),
            s.slice(2, 8),
            s.replace("Secret", &SStr::public("X")),
        ] {
            assert!(derived.labels().contains(&patient()), "{derived:?}");
        }
        for piece in s.split(" ") {
            assert!(piece.labels().contains(&patient()));
        }
    }

    #[test]
    fn replace_adds_replacement_labels() {
        let s = SStr::labelled("hello NAME", [patient()]);
        let name = SStr::labelled("Bob", [mdt()]);
        let out = s.replace("NAME", &name);
        assert_eq!(out.as_str(), "hello Bob");
        assert!(out.labels().contains(&patient()));
        assert!(out.labels().contains(&mdt()));
    }

    #[test]
    fn regex_captures_are_labelled() {
        let s = SStr::labelled("id=12345", [patient()]);
        let re = Regex::new(r"id=(\d+)").unwrap();
        let caps = s.regex_captures(&re).unwrap();
        let id = caps.get(1).unwrap();
        assert_eq!(id.as_str(), "12345");
        assert!(id.labels().contains(&patient()));
    }

    #[test]
    fn release_check_enforces_clearance() {
        let s = SStr::labelled("secret", [patient()]);
        assert!(s.check_release(&PrivilegeSet::new()).is_err());
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(patient()));
        assert_eq!(s.check_release(&privs).unwrap(), "secret");
    }

    #[test]
    fn release_error_names_blocking_labels() {
        let s = SStr::labelled("x", [patient(), mdt()]);
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(patient()));
        let err = s.check_release(&privs).unwrap_err();
        assert_eq!(err.blocking(), &[mdt()]);
    }

    #[test]
    fn user_taint_propagates_and_sanitizers_clear_it() {
        let user = SStr::from_user("<script>alert(1)</script>");
        assert!(user.is_user_tainted());
        let combined = SStr::public("Hello ") + &user;
        assert!(combined.is_user_tainted());
        let safe = combined.sanitize_html();
        assert!(!safe.is_user_tainted());
        assert!(safe.as_str().contains("&lt;script&gt;"));
        // Labels survive sanitisation.
        let labelled_user = SStr::from_user("x'y").with_label(patient());
        let sql = labelled_user.sanitize_sql();
        assert!(!sql.is_user_tainted());
        assert_eq!(sql.as_str(), "x''y");
        assert!(sql.labels().contains(&patient()));
    }

    #[test]
    fn join_and_concat_all() {
        let parts = [
            SStr::labelled("a", [patient()]),
            SStr::labelled("b", [mdt()]),
        ];
        let joined = SStr::join(parts.iter(), ", ");
        assert_eq!(joined.as_str(), "a, b");
        assert!(joined.labels().contains(&patient()));
        assert!(joined.labels().contains(&mdt()));
        let cat = SStr::concat_all(parts.iter());
        assert_eq!(cat.as_str(), "ab");
    }

    #[test]
    fn parse_snum_keeps_labels() {
        let s = SStr::labelled(" 42 ", [patient()]);
        let n = s.parse_snum().unwrap();
        assert_eq!(n.value(), 42);
        assert!(n.labels().contains(&patient()));
        assert!(SStr::public("abc").parse_snum().is_none());
    }
}
