//! The per-clearance rendered-view cache.
//!
//! Labels as cache keys instead of just checks: once privilege sets are
//! interned (one [`PrivilegeSetId`] per distinct clearance), "may this user
//! see this page" is a pure function of `(route, path, clearance id,
//! database version)` — so every user with an *equal* privilege set can
//! share one rendered, label-checked page. This is the payoff the
//! faceted-value systems (Jeeves/Jacqueline, LWeb) get from making policy
//! part of the data identity.
//!
//! ## Safety contract
//!
//! Only responses that already **passed** the boundary label check are
//! inserted, keyed by the *exact* privilege-set id of the user they were
//! checked for. A lookup for a different clearance — however similar — is a
//! different key, so the cache can never serve bytes across unequal
//! clearances; equal ids mean equal privilege sets by construction of the
//! hash-cons table. Staleness is handled by tagging entries with the
//! document store's change sequence and comparing it on every hit.
//!
//! Routes must opt in (see `SafeWebApp::get_cached`) and promise that their
//! output depends only on the request path/query, the user's privileges and
//! the document store — not on the username or other per-user state.

use std::collections::HashMap;
use std::sync::Mutex;

use safeweb_labels::PrivilegeSetId;

/// Cache key: one rendered page per (route, concrete path+query, clearance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PageKey {
    route: usize,
    path_query: String,
    clearance: u32,
}

/// A rendered page served from (or inserted into) the cache.
#[derive(Debug, Clone)]
pub(crate) struct RenderedPage {
    /// HTTP status (only 200s are cached).
    pub status: u16,
    /// Content type of the released body.
    pub content_type: &'static str,
    /// The released (label-checked) body bytes.
    pub body: String,
}

const SHARDS: usize = 16;
/// Per-shard entry bound; on overflow the shard is cleared. With 16 shards
/// this caps the cache at ~16k pages.
const SHARD_CAP: usize = 1024;

/// Sharded, bounded map from [`PageKey`] to a released page and the store
/// version it was rendered from.
#[derive(Debug, Default)]
pub(crate) struct RenderCache {
    shards: [Mutex<HashMap<PageKey, (u64, RenderedPage)>>; SHARDS],
}

impl RenderCache {
    pub(crate) fn new() -> RenderCache {
        RenderCache::default()
    }

    fn shard(&self, key: &PageKey) -> &Mutex<HashMap<PageKey, (u64, RenderedPage)>> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Looks up a page rendered for exactly this clearance at exactly this
    /// store version.
    pub(crate) fn get(
        &self,
        route: usize,
        path_query: &str,
        clearance: PrivilegeSetId,
        seq: u64,
    ) -> Option<RenderedPage> {
        let key = PageKey {
            route,
            path_query: path_query.to_string(),
            clearance: clearance.as_u32(),
        };
        let shard = self.shard(&key).lock().expect("render cache poisoned");
        match shard.get(&key) {
            Some((at, page)) if *at == seq => Some(page.clone()),
            _ => None,
        }
    }

    /// Inserts a released page for this clearance, tagged with the store
    /// version read *before* the handler ran (if the store advanced while
    /// rendering, the entry is immediately stale — the safe direction).
    pub(crate) fn put(
        &self,
        route: usize,
        path_query: &str,
        clearance: PrivilegeSetId,
        seq: u64,
        page: RenderedPage,
    ) {
        let key = PageKey {
            route,
            path_query: path_query.to_string(),
            clearance: clearance.as_u32(),
        };
        let mut shard = self.shard(&key).lock().expect("render cache poisoned");
        if shard.len() >= SHARD_CAP {
            shard.clear();
        }
        shard.insert(key, (seq, page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::{Label, Privilege, PrivilegeSet};

    fn clearance(path: &str) -> PrivilegeSetId {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(Label::conf("cache.test", path)));
        privs.id()
    }

    fn page(body: &str) -> RenderedPage {
        RenderedPage {
            status: 200,
            content_type: "text/html",
            body: body.to_string(),
        }
    }

    #[test]
    fn hit_requires_equal_clearance_and_seq() {
        let cache = RenderCache::new();
        let a = clearance("mdt/a");
        let b = clearance("mdt/b");
        cache.put(0, "/view", a, 7, page("secret-of-a"));

        let hit = cache.get(0, "/view", a, 7).expect("same clearance hits");
        assert_eq!(hit.body, "secret-of-a");

        assert!(
            cache.get(0, "/view", b, 7).is_none(),
            "unequal clearance must never see the cached page"
        );
        assert!(cache.get(0, "/view", a, 8).is_none(), "stale seq misses");
        assert!(cache.get(1, "/view", a, 7).is_none(), "other route misses");
        assert!(cache.get(0, "/other", a, 7).is_none(), "other path misses");
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        let cache = RenderCache::new();
        let c = clearance("mdt/x");
        for i in 0..(SHARD_CAP * SHARDS * 2) {
            cache.put(0, &format!("/p/{i}"), c, 1, page("x"));
        }
        let total: usize = cache.shards.iter().map(|s| s.lock().unwrap().len()).sum();
        assert!(total <= SHARD_CAP * SHARDS);
    }
}
