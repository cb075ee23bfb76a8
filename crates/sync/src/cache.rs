//! [`BoundedCache`], the workspace's one bounded cache of recomputable
//! values.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::Mutex;

/// Shard count: `1 << SHARD_BITS`.
const SHARDS: usize = 16;
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// A map from `K` to `V` that holds at most `16 × shard_cap` entries: 16
/// shards, each a [`Mutex`] over a `HashMap`, and a shard that is full
/// when an insert arrives is cleared, not grown. An entry may therefore
/// vanish at any insert, so a value must be something its user can
/// always recompute. A lookup or an insert takes one shard's lock and
/// nothing else.
///
/// Its users pick the cap: the `flows_to` memo (`labels`, 8 192 verdicts
/// a shard) and the per-clearance render cache (`web`, 1 024 pages a
/// shard).
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    shards: [Mutex<HashMap<K, V>>; SHARDS],
    shard_cap: usize,
}

impl<K: Hash + Eq, V> BoundedCache<K, V> {
    /// An empty cache of at most `shard_cap` entries per shard.
    pub fn new(shard_cap: usize) -> BoundedCache<K, V> {
        BoundedCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            shard_cap,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut hasher = ShardHasher(0);
        key.hash(&mut hasher);
        // Bit i of a product depends on bits 0..=i of its operands, so
        // the top bits mix the whole key.
        &self.shards[(hasher.0 >> (u64::BITS - SHARD_BITS)) as usize]
    }

    /// `read` applied to `key`'s entry, if there is one, under its shard's
    /// lock: the caller decides from the borrowed entry what to copy out.
    pub fn get<R>(&self, key: &K, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        self.shard(key).lock().get(key).and_then(read)
    }

    /// Inserts `value` under `key`, first clearing the key's shard if it
    /// holds `shard_cap` entries.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(&key).lock();
        if shard.len() >= self.shard_cap {
            shard.clear();
        }
        shard.insert(key, value);
    }
}

/// Picks a key's shard with FxHash's rotate-xor-multiply step: a few
/// cycles, where a second keyed SipHash would double a memo hit's cost.
/// It only spreads keys over shards; each shard's map still hashes with
/// std's keyed SipHash, which is what resists keys crafted to collide.
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
