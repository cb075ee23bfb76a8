//! Minimal `crossbeam`-compatible shim (channel module only).
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements the `crossbeam_channel` subset SafeWeb uses on top of
//! `std::sync`: unbounded MPMC channels with blocking, timeout and
//! non-blocking receives.

#![forbid(unsafe_code)]

pub mod channel;
