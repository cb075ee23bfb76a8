//! Engine and unit error types.

use std::fmt;

use safeweb_labels::{Label, RelabelError};

/// Error raised by engine infrastructure (wiring units to the broker,
/// starting threads, remote bus failures).
#[derive(Debug)]
pub enum EngineError {
    /// Failure talking to the event bus.
    Bus(String),
    /// A unit name was registered twice.
    DuplicateUnit(String),
    /// Durable storage could not be opened or recovered (deployment-level
    /// wiring: the engine itself holds no storage).
    Storage(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Bus(m) => write!(f, "event bus error: {m}"),
            EngineError::DuplicateUnit(n) => write!(f, "duplicate unit name {n:?}"),
            EngineError::Storage(m) => write!(f, "durable storage error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Error raised from inside a unit callback. Policy violations are the
/// interesting case: they are exactly the bugs SafeWeb exists to contain,
/// so the engine logs them and drops the offending operation rather than
/// letting data escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitError {
    /// The unit attempted to remove a confidentiality label it may not
    /// declassify.
    DeclassificationDenied(Label),
    /// The unit attempted to add an integrity label it may not endorse.
    EndorsementDenied(Label),
    /// The unit attempted an I/O operation without being privileged.
    IoDenied,
    /// The published event was malformed.
    BadEvent(String),
    /// Application-level failure inside the callback.
    Application(String),
    /// The callback panicked. Under the scheduler the panic is contained
    /// (the unit is poisoned, its worker and every other unit keep
    /// running); the payload is preserved here.
    Panicked(String),
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::DeclassificationDenied(l) => {
                write!(f, "declassification denied for {l}")
            }
            UnitError::EndorsementDenied(l) => write!(f, "endorsement denied for {l}"),
            UnitError::IoDenied => write!(f, "I/O denied: unit is not privileged"),
            UnitError::BadEvent(m) => write!(f, "bad event: {m}"),
            UnitError::Application(m) => write!(f, "unit application error: {m}"),
            UnitError::Panicked(m) => write!(f, "unit panicked: {m}"),
        }
    }
}

impl std::error::Error for UnitError {}

impl From<RelabelError> for UnitError {
    fn from(e: RelabelError) -> UnitError {
        match e {
            RelabelError::DeclassificationDenied(l) => UnitError::DeclassificationDenied(l),
            RelabelError::EndorsementDenied(l) => UnitError::EndorsementDenied(l),
        }
    }
}
