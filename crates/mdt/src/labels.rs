//! The MDT application's label vocabulary (§3.1, §4.1).
//!
//! Three kinds of confidentiality labels implement policy **P1**:
//!
//! * per-MDT labels protect patient-level records ("details about patients
//!   can be consulted only by members of the MDT that treats them");
//! * per-region aggregate labels protect MDT-level aggregates ("MDT-level
//!   aggregates can be consulted by all MDTs in the same region");
//! * one regional-aggregates label protects region-level aggregates
//!   ("regional-level aggregates can be seen by all MDTs").

use safeweb_labels::{Label, Privilege, PrivilegeSet};

/// The label authority for the whole application.
pub const AUTHORITY: &str = "ecric.org.uk";

/// The confidentiality label protecting one MDT's patient-level data
/// (`label:conf:ecric.org.uk/mdt/<name>`). The paper's deployment labels
/// at MDT granularity: "we use only MDT-level labels as these are
/// sufficient to satisfy our security requirements" (§5.1).
pub fn mdt_label(mdt_name: &str) -> Label {
    Label::conf(AUTHORITY, &format!("mdt/{mdt_name}"))
}

/// The label protecting MDT-level aggregates of one region
/// (`label:conf:ecric.org.uk/region/<id>/mdt-aggregates`).
pub fn region_aggregate_label(region_id: i64) -> Label {
    Label::conf(AUTHORITY, &format!("region/{region_id}/mdt-aggregates"))
}

/// The label protecting regional-level aggregates, visible to every MDT
/// (`label:conf:ecric.org.uk/aggregates/regional`).
pub fn regional_label() -> Label {
    Label::conf(AUTHORITY, "aggregates/regional")
}

/// The privilege set policy P1 grants a member of `mdt_name` in
/// `region_id`: clearance on their MDT's data, on their region's MDT-level
/// aggregates, and on regional aggregates.
pub fn mdt_user_privileges(mdt_name: &str, region_id: i64) -> PrivilegeSet {
    let mut privs = PrivilegeSet::new();
    privs.grant(Privilege::clearance(mdt_label(mdt_name)));
    privs.grant(Privilege::clearance(region_aggregate_label(region_id)));
    privs.grant(Privilege::clearance(regional_label()));
    privs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_uris() {
        assert_eq!(
            mdt_label("addenbrookes").to_string(),
            "label:conf:ecric.org.uk/mdt/addenbrookes"
        );
        assert_eq!(
            region_aggregate_label(1).to_string(),
            "label:conf:ecric.org.uk/region/1/mdt-aggregates"
        );
        assert_eq!(
            regional_label().to_string(),
            "label:conf:ecric.org.uk/aggregates/regional"
        );
    }

    #[test]
    fn p1_privilege_matrix() {
        let a = mdt_user_privileges("mdt-a", 0);
        // Own MDT data: yes. Other MDT data: no.
        assert!(a.has_clearance(&mdt_label("mdt-a")));
        assert!(!a.has_clearance(&mdt_label("mdt-b")));
        // Same-region aggregates: yes. Other region: no.
        assert!(a.has_clearance(&region_aggregate_label(0)));
        assert!(!a.has_clearance(&region_aggregate_label(1)));
        // Regional aggregates: yes, for everyone.
        assert!(a.has_clearance(&regional_label()));
        // No declassification anywhere.
        assert!(!a.can_declassify(&mdt_label("mdt-a")));
    }
}
