//! # safeweb-taint
//!
//! SafeWeb's variable-level taint-tracking library for the web frontend
//! (§4.4, Figure 3). In the paper this redefines Ruby's `String` and
//! `Numeric` classes so that every operation propagates security labels;
//! in Rust the same observable semantics come from wrapper types whose
//! whole method surface propagates labels:
//!
//! * [`SStr`] — labelled strings (concatenation, slicing, replacement,
//!   sanitisers, ...),
//! * [`SNum`] — labelled integers with label-combining arithmetic,
//! * [`SValue`] — labelled JSON documents fetched from the application
//!   database: a field or element read from one is borrowed and keeps the
//!   document's labels, and a document serialises into a labelled string
//!   or buffer, or is released whole after the boundary check.
//!
//! Two independent mechanisms ride on the same types, as in the paper:
//!
//! 1. **security labels** for end-to-end confidentiality — checked at the
//!    HTTP boundary with [`SStr::check_release`];
//! 2. the **user-taint bit** (Ruby's `taint`) marking unsanitised user
//!    input for XSS/SQLI defence — cleared by [`SStr::sanitize_html`] /
//!    [`SStr::sanitize_sql`].
//!
//! ```
//! use safeweb_labels::{Label, Privilege, PrivilegeSet};
//! use safeweb_taint::SStr;
//!
//! let record = SStr::labelled("histology: ...", [Label::conf("ecric.org.uk", "mdt/a")]);
//! let page = SStr::public("<td>") + &record + "</td>";
//!
//! // The treating MDT may see the page; others are blocked.
//! let mut mdt_a = PrivilegeSet::new();
//! mdt_a.grant(Privilege::clearance(Label::conf("ecric.org.uk", "mdt/a")));
//! assert!(page.check_release(&mdt_a).is_ok());
//! assert!(page.check_release(&PrivilegeSet::new()).is_err());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod snum;
mod sstr;
mod svalue;

pub use snum::SNum;
pub use sstr::{ReleaseError, SStr};
pub use svalue::SValue;
