//! # safeweb-json
//!
//! A small, dependency-free JSON implementation used throughout SafeWeb: the
//! CouchDB-like application database stores JSON documents, the MDT portal
//! returns JSON responses (`r.to_json` in the paper's Listing 2), and event
//! payloads may carry JSON bodies.
//!
//! Built in-tree because the reproduction's dependency allow-list does not
//! include `serde_json`, and because deterministic (sorted-key) encoding is
//! required for document revision hashing.
//!
//! ```
//! use safeweb_json::{jobject, Value};
//!
//! let doc = jobject! { "mdt" => "addenbrookes", "patients" => 42 };
//! let text = doc.to_json();
//! assert_eq!(Value::parse(&text)?, doc);
//! # Ok::<(), safeweb_json::ParseJsonError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod parse;
mod ser;
mod value;

pub use parse::ParseJsonError;
pub use ser::{build_exact, write_json_string, EscapeJson, SCRATCH_RETAIN};
pub use value::Value;
