//! The sequence number and the changes feed that replication reads.
//!
//! Invariant: the feed is strictly seq-ascending; past the compaction
//! horizon it holds every write verbatim, and below it one latest entry
//! per live id. Bound: with auto-compaction on, at most
//! `2 × (live documents + retention)` entries, each compaction paid for
//! by at least `live + retention` writes.

use std::collections::{BTreeSet, HashSet};

use safeweb_json::Str;
use safeweb_obs::Counter;

use super::documents::Docs;
use super::{DocStore, Write};
use crate::document::Revision;

/// Default bound on the verbatim tail of the changes feed: once the feed
/// holds twice as many entries as live documents plus this many, it is
/// compacted down to the latest entry per id plus this many recent
/// entries. See [`DocStore::set_changes_retention`].
pub const DEFAULT_CHANGES_RETENTION: usize = 1024;

/// One entry in the changes feed.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The changed document id; it dereferences to `str`.
    pub id: Str,
    /// The revision after the change (`None` = deletion).
    pub rev: Option<Revision>,
}

/// The store's sequence number and its changes feed.
#[derive(Debug)]
pub(super) struct Feed {
    /// The sequence number of the last write.
    pub(super) seq: u64,
    /// Strictly seq-ascending, so lookups can binary-search.
    entries: Vec<Change>,
    /// Horizon of the last compaction: entries with `seq <=
    /// compacted_seq` have been reduced to one latest entry per live id,
    /// and delete tombstones below it are gone.
    pub(super) compacted_seq: u64,
    /// Auto-compaction threshold (0 = never compact automatically).
    retention: usize,
    /// Compactions run; surfaced by [`DocStore::attach_metrics`].
    pub(super) compactions: Counter,
}

impl Default for Feed {
    fn default() -> Feed {
        Feed {
            seq: 0,
            entries: Vec::new(),
            compacted_seq: 0,
            retention: DEFAULT_CHANGES_RETENTION,
            compactions: Counter::new(),
        }
    }
}

impl Feed {
    /// Appends the entry of the write that produced `seq`.
    pub(super) fn push(&mut self, seq: u64, id: Str, rev: Option<Revision>) {
        self.seq = seq;
        self.entries.push(Change { seq, id, rev });
    }

    /// Auto-compaction, on a geometric trigger: the feed is compacted
    /// once it holds `2 × (live docs + retention)` entries, down to at
    /// most `live + retention`. Each `O(feed)` compaction is therefore
    /// paid for by at least `live + retention` writes — `O(1)` per write
    /// — while the feed stays at `O(live docs + retention)` entries.
    pub(super) fn maybe_compact(&mut self, docs: &Docs) {
        let retention = self.retention;
        if retention == 0 || self.entries.len() < 2 * (docs.len() + retention) {
            return;
        }
        self.compact_recent(retention, docs);
    }

    /// Compacts all but the `retain_recent` newest entries (see
    /// [`Feed::compact_to`]).
    fn compact_recent(&mut self, retain_recent: usize, docs: &Docs) {
        if self.entries.len() > retain_recent {
            let horizon = self.entries[self.entries.len() - retain_recent - 1].seq;
            self.compact_to(horizon, docs);
        }
    }

    /// Compacts every entry with `seq <= horizon` down to the latest entry
    /// per still-live id. Tombstones and superseded revisions below the
    /// horizon are dropped; a replication checkpoint below `compacted_seq`
    /// can therefore no longer be served incrementally and must full-resync
    /// ([`crate::Replicator`] does this automatically).
    fn compact_to(&mut self, horizon: u64, docs: &Docs) {
        let cut = self.entries.partition_point(|c| c.seq <= horizon);
        self.compacted_seq = self.compacted_seq.max(horizon);
        if cut == 0 {
            return;
        }
        self.compactions.inc();
        // An id "seen" at a higher seq supersedes every earlier entry.
        let mut seen: HashSet<&str> = self.entries[cut..].iter().map(|c| c.id.as_str()).collect();
        let mut keep = vec![false; cut];
        for (slot, change) in keep.iter_mut().zip(&self.entries[..cut]).rev() {
            let newest = seen.insert(&change.id);
            *slot = newest && change.rev.is_some() && docs.contains_key(change.id.as_bytes());
        }
        let mut below_horizon = keep.into_iter();
        self.entries
            .retain(|_| below_horizon.next().unwrap_or(true));
    }

    /// The entries with `seq > since`.
    fn since(&self, since: u64) -> &[Change] {
        &self.entries[self.entries.partition_point(|c| c.seq <= since)..]
    }
}

impl DocStore {
    /// The current sequence number (grows with every write).
    pub fn seq(&self) -> u64 {
        self.inner.read().feed.seq
    }

    /// Changes with `seq > since`, for replication. A binary search into
    /// the seq-sorted feed plus a copy of the tail.
    ///
    /// When `since` predates [`DocStore::compacted_seq`], the result is
    /// *incomplete*: compaction has dropped tombstones and superseded
    /// entries below the horizon, so callers must fall back to a full
    /// resync instead (as [`crate::Replicator::run_once`] does with its
    /// own read of the feed).
    pub fn changes_since(&self, since: u64) -> Vec<Change> {
        self.inner.read().feed.since(since).to_vec()
    }

    /// The compaction horizon: change entries at or below this sequence
    /// number may have been compacted away (deletions silently so). A
    /// replication checkpoint below the horizon cannot be served
    /// incrementally.
    pub fn compacted_seq(&self) -> u64 {
        self.inner.read().feed.compacted_seq
    }

    /// Number of entries currently held by the changes feed (diagnostics:
    /// bounded at `O(live docs + retention)` when auto-compaction is on).
    /// Public for the `docstore` and `backend` benches, which report that
    /// bound.
    pub fn changes_len(&self) -> usize {
        self.inner.read().feed.entries.len()
    }

    /// Sets the auto-compaction retention (default
    /// [`DEFAULT_CHANGES_RETENTION`]): the feed keeps at least this many
    /// most-recent entries verbatim and compacts everything older once it
    /// holds `2 × (live docs + retention)` entries, which leaves at most
    /// `live docs + retention` — so the feed is bounded and a compaction
    /// is paid for by at least as many writes as it scans entries. `0`
    /// disables auto-compaction (the seed's unbounded behaviour). Public
    /// for the `docstore` bench's unbounded arm and the feed-bound tests.
    pub fn set_changes_retention(&self, retention: usize) {
        self.inner.write().feed.retention = retention;
    }

    /// Compacts the changes feed now, keeping the most recent
    /// `retain_recent` entries verbatim and one latest entry per live id
    /// below that horizon. Tombstones below the horizon are dropped —
    /// replication checkpoints older than the horizon then require a full
    /// resync. Public as a test seam: the replication and view properties
    /// compact at random points.
    pub fn compact_changes(&self, retain_recent: usize) {
        let mut inner = self.inner.write();
        let super::Inner { docs, feed, .. } = &mut *inner;
        feed.compact_recent(retain_recent, docs);
    }

    /// A replication run's read transaction: every id changed past
    /// `since`, once and in id order, as its current version or its
    /// deletion, with the sequence number that state is current as of —
    /// all under one read lock, so no write can fall between the feed and
    /// the documents. `None` when the feed cannot serve `since`: it was
    /// compacted past it (the tombstones below the horizon are gone), or
    /// `since` is ahead of this store (the store was lost and recreated).
    /// The caller must then resync.
    pub(crate) fn replication_batch(&self, since: u64) -> Option<(u64, Vec<Write>)> {
        let inner = self.inner.read();
        let feed = &inner.feed;
        if since > feed.seq || since < feed.compacted_seq {
            return None;
        }
        // Past the horizon the feed is verbatim, so every id changed there
        // is present now exactly when its newest change is a put.
        let ids: BTreeSet<&Str> = feed.since(since).iter().map(|c| &c.id).collect();
        let batch = ids
            .into_iter()
            .map(|id| match inner.docs.get(id.as_bytes()) {
                Some(doc) => Write::Put(doc.clone()),
                None => Write::Delete(id.clone()),
            })
            .collect();
        Some((feed.seq, batch))
    }
}
