//! # safeweb-attack
//!
//! The adversarial campaign testbed: corpus-driven injection, XSS,
//! label-leak and session-forgery replay against a live Figure-4 SafeWeb
//! topology, with canary oracles and deterministic seeds.
//!
//! The testbed complements the §5.2 vulnerability study: where the study
//! injects four known bugs and shows SafeWeb contains each once, the
//! campaigns replay *hundreds* of seeded mutations per attack family
//! against the secure-by-construction query and template surfaces
//! ([`safeweb_safeq::TrustedLiteral`], `QuerySpec`, `Selector::bind`,
//! escaping interpolation) while legitimate traffic runs, and assert a
//! zero-canary outcome. Deliberately vulnerable `_raw` routes — string
//! concatenation and taint laundering — serve as negative controls
//! proving the oracles catch what the typed surfaces forbid.
//!
//! ```no_run
//! use safeweb_attack::{run_campaign, seed_from_env, AttackRig, Family, RigOptions};
//!
//! let rig = AttackRig::build(RigOptions::default());
//! let report = run_campaign(&rig, Family::Sqli, 150, seed_from_env());
//! report.assert_sealed(); // panics with SAFEWEB_ATTACK_SEED on a leak
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod corpus;
mod oracle;
pub mod rig;

pub use campaign::{run_campaign, seed_from_env, CampaignReport, Family, DEFAULT_SEED};
pub use oracle::CanarySet;
pub use rig::{AttackRig, BackgroundLoad, RigOptions};
