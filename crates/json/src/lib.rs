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
//! An object is a [`Map`]: its members in one key-sorted
//! `Vec<(String, Value)>`, looked up by a linear scan up to 32 members and
//! by binary search above that. The parser builds each object in one
//! exact-size allocation, sorting only members that arrive out of order
//! (a repeated key keeps its last value), and each string without escapes
//! in another. The application store and its DMZ replica hold every
//! document body as such a tree, so the tree's size is the stores' size:
//! a `BTreeMap` per object cost a 12-member case record three B-tree
//! nodes, about 1.9 KB, where a `Map` costs one 672-byte vector.
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

mod map;
mod parse;
mod ser;
mod value;

pub use map::{Iter, Map};
pub use parse::ParseJsonError;
pub use ser::{build_exact, write_json_string, EscapeJson, SCRATCH_RETAIN};
pub use value::Value;
