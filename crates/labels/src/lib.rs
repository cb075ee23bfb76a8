//! # safeweb-labels
//!
//! The security-label model at the heart of SafeWeb (Hosek et al.,
//! Middleware 2011, §3–§4.1): URI-formatted confidentiality and integrity
//! labels, label sets with sticky/fragile composition, privileges
//! (clearance, declassification, endorsement) and the policy file that
//! assigns privileges to backend units and frontend users.
//!
//! ## Model
//!
//! * Data carries a [`LabelSet`]. An empty set means public data.
//! * **Confidentiality** labels are *sticky*: anything derived from labelled
//!   data keeps the label. Data may only flow to a principal whose
//!   [`PrivilegeSet`] holds **clearance** for every confidentiality label.
//!   Removing a label requires the **declassification** privilege.
//! * **Integrity** labels are *fragile*: derived data keeps an integrity
//!   label only if every input carried it. Attaching one requires the
//!   **endorsement** privilege.
//!
//! ## Example
//!
//! ```
//! use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
//!
//! // A unit labels a patient record as it enters the system.
//! let patient = Label::conf("ecric.org.uk", "patient/33812769");
//! let record_labels = LabelSet::singleton(patient.clone());
//!
//! // The treating MDT holds clearance; another MDT does not.
//! let mut treating = PrivilegeSet::new();
//! treating.grant(Privilege::clearance(patient.clone()));
//! assert!(record_labels.flows_to(&treating));
//! assert!(!record_labels.flows_to(&PrivilegeSet::new()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod intern;
mod label;
mod pattern;
mod policy;
mod privilege;
mod set;

pub use error::{ParseLabelError, ParsePolicyError};
pub use intern::{LabelSetId, PrivilegeSetId};
pub use label::{Label, LabelKind};
pub use pattern::LabelPattern;
pub use policy::{Policy, PrincipalKind, PrincipalPolicy};
pub use privilege::{Privilege, PrivilegeKind, PrivilegeSet};
pub use set::{DeclassifyError, EndorseError, LabelSet};
