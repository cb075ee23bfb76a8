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
//! An object is a [`Map`]: its members in one key-sorted, exact-size
//! `Box<[(Key, Value)]>`, looked up by a linear scan up to 32 members and
//! by binary search above that. The application store and its DMZ
//! replica hold every document body as such a tree, so the tree's size
//! is the stores' size, and every hop of an event — the units' parses,
//! the put, the replica's deep copy, snapshot replay — builds one.
//!
//! A parsed object is **one allocation**, its member slice (40 bytes a
//! member: a 16-byte key and a 24-byte value):
//!
//! * a key is a [`Key`]: interned in a bounded process-wide table (keys
//!   of at most [`INTERN_MAX_LEN`] = 32 bytes, at most
//!   [`INTERN_MAX_KEYS`] = 1 024 of them), so a parse or a clone copies a
//!   pointer. Past either cap a key is a boxed `String` of its own, which
//!   is always correct; [`interned_keys`] reports the table's fill;
//! * a string value is a [`Str`]: up to [`INLINE_MAX`] = 22 bytes inline,
//!   one exact-size box above. It is 24 bytes, and every other variant
//!   fits beside its tag (an array is a boxed slice, an object a 16-byte
//!   `Map`), so a [`Value`] is 24 bytes too.
//!
//! A `String` per key and per string value was the cost: the same dozen
//! words key every stored case record, and every string value in one is
//! at most 16 bytes, yet a 12-member record took 21 allocations to parse
//! and 21 more to clone. It now takes one each. (Before that, a
//! `BTreeMap` per object cost the record three B-tree nodes, about
//! 1.9 KB, where a `Map` costs one 480-byte slice.)
//!
//! Keys compare and sort by their text, interned or owned, so encoding,
//! ordering, equality and the document store's revision digests are as
//! they were with `String`s. The parser sorts members only when they
//! arrive out of order (a repeated key keeps its last value). The crate
//! forbids `unsafe`: reading an inline string re-checks its bytes as
//! UTF-8.
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

mod key;
mod map;
mod parse;
mod ser;
mod text;
mod value;

pub use key::{interned_keys, Key, INTERN_MAX_KEYS, INTERN_MAX_LEN};
pub use map::{IntoIter, Iter, Map};
pub use parse::ParseJsonError;
pub use ser::{build_exact, write_json_string, EscapeJson, SCRATCH_RETAIN};
pub use text::{Str, INLINE_MAX};
pub use value::Value;
