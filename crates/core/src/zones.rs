//! The network-zone model of the ECRIC deployment (Figure 4).
//!
//! ECRIC's network is split into an Intranet, a DMZ and the NHS-wide N3
//! network, with a firewall that "permits only unidirectional connections"
//! from the Intranet to the DMZ. This module encodes that connectivity
//! matrix so deployments can assert requirement **S1** — external users
//! can never open a path back into the Intranet — in code and tests.

use std::fmt;

/// A network zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Zone {
    /// The restricted internal network holding the main registry database,
    /// the event broker and the processing engine.
    Intranet,
    /// The demilitarised zone holding the read-only application-database
    /// replica and the web frontend.
    Dmz,
    /// The outside world (the NHS N3 network in the paper): browsers of
    /// MDT members.
    External,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Zone::Intranet => write!(f, "intranet"),
            Zone::Dmz => write!(f, "DMZ"),
            Zone::External => write!(f, "external"),
        }
    }
}

/// Error for a connection the firewall topology forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneViolation {
    /// Originating zone.
    pub from: Zone,
    /// Target zone.
    pub to: Zone,
}

impl fmt::Display for ZoneViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "firewall forbids connections from {} to {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for ZoneViolation {}

/// The ECRIC firewall matrix: who may *initiate* a connection to whom.
///
/// ```
/// use safeweb_core::{Zone, ZoneTopology};
///
/// let fw = ZoneTopology::ecric();
/// assert!(fw.check(Zone::Intranet, Zone::Dmz).is_ok());   // replication push
/// assert!(fw.check(Zone::External, Zone::Dmz).is_ok());   // browser → portal
/// assert!(fw.check(Zone::Dmz, Zone::Intranet).is_err());  // S1: never back in
/// assert!(fw.check(Zone::External, Zone::Intranet).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ZoneTopology {
    allowed: Vec<(Zone, Zone)>,
}

impl ZoneTopology {
    /// The topology of Figure 4: Intranet→Intranet, Intranet→DMZ,
    /// DMZ→DMZ, External→DMZ.
    pub fn ecric() -> ZoneTopology {
        ZoneTopology {
            allowed: vec![
                (Zone::Intranet, Zone::Intranet),
                (Zone::Intranet, Zone::Dmz),
                (Zone::Dmz, Zone::Dmz),
                (Zone::External, Zone::Dmz),
            ],
        }
    }

    /// Whether `from` may initiate a connection to `to`.
    pub fn is_allowed(&self, from: Zone, to: Zone) -> bool {
        self.allowed.contains(&(from, to))
    }

    /// Checked connection attempt.
    ///
    /// # Errors
    ///
    /// Returns [`ZoneViolation`] when the firewall forbids the direction.
    pub fn check(&self, from: Zone, to: Zone) -> Result<(), ZoneViolation> {
        if self.is_allowed(from, to) {
            Ok(())
        } else {
            Err(ZoneViolation { from, to })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecric_topology_is_unidirectional() {
        let fw = ZoneTopology::ecric();
        // All allowed directions.
        assert!(fw.is_allowed(Zone::Intranet, Zone::Dmz));
        assert!(fw.is_allowed(Zone::Intranet, Zone::Intranet));
        assert!(fw.is_allowed(Zone::External, Zone::Dmz));
        assert!(fw.is_allowed(Zone::Dmz, Zone::Dmz));
        // S1: nothing reaches back into the Intranet, and external users
        // cannot bypass the DMZ.
        assert!(!fw.is_allowed(Zone::Dmz, Zone::Intranet));
        assert!(!fw.is_allowed(Zone::External, Zone::Intranet));
        assert!(!fw.is_allowed(Zone::Dmz, Zone::External));
        assert!(!fw.is_allowed(Zone::Intranet, Zone::External));
    }

    #[test]
    fn custom_topology() {
        let fw = ZoneTopology {
            allowed: vec![(Zone::External, Zone::Dmz)],
        };
        assert!(fw.check(Zone::External, Zone::Dmz).is_ok());
        assert!(fw.check(Zone::Intranet, Zone::Dmz).is_err());
        // A refused attempt names its direction.
        let err = fw.check(Zone::External, Zone::Intranet).unwrap_err();
        assert_eq!(err.from, Zone::External);
        assert_eq!(err.to, Zone::Intranet);
        assert!(err.to_string().contains("forbids"));
    }
}
