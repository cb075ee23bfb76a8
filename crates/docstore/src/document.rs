//! Documents: JSON bodies with id, MVCC revision and security labels.

use std::sync::Arc;

use safeweb_json::{Str, Value};
use safeweb_labels::LabelSet;

/// A revision identifier: `generation-hash`, CouchDB style. The generation
/// counts writes; the hash is a deterministic digest of the body so that
/// identical content produces identical revisions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Revision {
    generation: u64,
    digest: u64,
}

impl Revision {
    /// The first revision of a body whose [`Value::to_json`] encoding is
    /// `body_json`: the caller serialises once and reuses the bytes.
    pub(crate) fn first(body_json: &str) -> Revision {
        Revision {
            generation: 1,
            digest: fnv1a(body_json.as_bytes()),
        }
    }

    /// The revision after `self` for a body encoded as `body_json`.
    pub(crate) fn next(&self, body_json: &str) -> Revision {
        Revision {
            generation: self.generation + 1,
            digest: fnv1a(body_json.as_bytes()),
        }
    }

    /// The write generation (1 for a fresh document).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The body digest: the hexadecimal half of the `generation-hash` form.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Parses the `generation-hash` form.
    pub fn parse(s: &str) -> Option<Revision> {
        let (g, d) = s.split_once('-')?;
        Some(Revision {
            generation: g.parse().ok()?,
            digest: u64::from_str_radix(d, 16).ok()?,
        })
    }
}

impl std::fmt::Display for Revision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{:016x}", self.generation, self.digest)
    }
}

/// FNV-1a: a small, deterministic digest. Revisions need *collision
/// resistance against accidents*, not cryptographic strength (the paper's
/// CouchDB uses MD5 for the same purpose).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A stored document: body plus middleware metadata (labels live *next to*
/// the body, not inside it, so application code cannot silently strip
/// them).
///
/// A `Document` is an immutable, reference-counted handle: every write
/// creates a new one, so cloning — which is what [`crate::DocStore::get`],
/// the view and scan queries and snapshot captures do — is a
/// reference-count bump, never a copy of the JSON tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Document(Arc<Parts>);

#[derive(Debug, Clone, PartialEq)]
struct Parts {
    /// Inline up to 22 bytes, as every id this system writes is, so
    /// neither a put nor the replica's deep copy allocates for it.
    id: Str,
    rev: Revision,
    labels: LabelSet,
    body: Value,
}

impl Document {
    pub(crate) fn new(id: Str, rev: Revision, labels: LabelSet, body: Value) -> Document {
        Document(Arc::new(Parts {
            id,
            rev,
            labels,
            body,
        }))
    }

    /// The document id.
    pub fn id(&self) -> &str {
        &self.0.id
    }

    /// The document id as the store holds it.
    pub(crate) fn id_str(&self) -> &Str {
        &self.0.id
    }

    /// The current revision.
    pub fn rev(&self) -> &Revision {
        &self.0.rev
    }

    /// The security labels the storage unit attached.
    pub fn labels(&self) -> &LabelSet {
        &self.0.labels
    }

    /// The JSON body.
    pub fn body(&self) -> &Value {
        &self.0.body
    }

    /// A copy that shares no memory with `self`: what replication hands
    /// the target store (see the replication module docs for why).
    pub(crate) fn deep_copy(&self) -> Document {
        Document(Arc::new((*self.0).clone()))
    }

    /// Whether both handles point at one allocation.
    #[cfg(test)]
    pub(crate) fn shares_allocation_with(&self, other: &Document) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A document stands in for its body wherever a JSON tree is borrowed, so
/// a reader can wrap the shared handle instead of copying the tree out.
impl AsRef<Value> for Document {
    fn as_ref(&self) -> &Value {
        self.body()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_json::jobject;

    #[test]
    fn revision_is_deterministic_in_content() {
        let a = Revision::first(&jobject! {"x" => 1}.to_json());
        let b = Revision::first(&jobject! {"x" => 1}.to_json());
        let c = Revision::first(&jobject! {"x" => 2}.to_json());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn revision_generation_increments() {
        let r1 = Revision::first(&jobject! {"x" => 1}.to_json());
        let r2 = r1.next(&jobject! {"x" => 2}.to_json());
        assert_eq!(r1.generation(), 1);
        assert_eq!(r2.generation(), 2);
    }

    #[test]
    fn revision_string_roundtrip() {
        let r = Revision::first(&jobject! {"x" => 1}.to_json());
        assert_eq!(Revision::parse(&r.to_string()), Some(r));
        assert_eq!(Revision::parse("junk"), None);
    }
}
