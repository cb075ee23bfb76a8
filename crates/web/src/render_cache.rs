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

use safeweb_http::{url_encode, Request, Response};
use safeweb_labels::PrivilegeSetId;
use safeweb_sync::BoundedCache;

/// Cache key: one rendered page per (route, concrete path+query, clearance).
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct PageKey {
    route: usize,
    path_query: String,
    clearance: u32,
}

impl PageKey {
    /// The key of `request` on the route at `route` for `clearance`: the
    /// raw path plus the *re-encoded* query pairs. A decoded `&` or `=`
    /// inside a name or value must not read as a separator, or two
    /// requests a handler tells apart would share an entry.
    pub(crate) fn new(route: usize, request: &Request, clearance: PrivilegeSetId) -> PageKey {
        let mut path_query = request.path().to_string();
        let mut sep = '?';
        for (name, value) in request.query_params() {
            path_query.push(sep);
            path_query.push_str(&url_encode(name));
            path_query.push('=');
            path_query.push_str(&url_encode(value));
            sep = '&';
        }
        PageKey {
            route,
            path_query,
            clearance: clearance.as_u32(),
        }
    }
}

/// A released page: what `SafeWebApp`'s release step hands on, and what
/// the cache stores and serves.
#[derive(Debug, Clone)]
pub(crate) struct RenderedPage {
    /// HTTP status (only 200s are cached).
    pub status: u16,
    /// Content type of the released body.
    pub content_type: &'static str,
    /// The released (label-checked) body bytes.
    pub body: String,
}

impl RenderedPage {
    /// The response carrying this page; the body moves, uncopied.
    pub(crate) fn into_response(self) -> Response {
        Response::new(self.status)
            .with_header("content-type", self.content_type)
            .with_body(self.body)
    }
}

/// Per-shard entry bound; on overflow the shard is cleared. With 16 shards
/// this caps the cache at ~16k pages.
const SHARD_CAP: usize = 1024;

/// Bounded map from [`PageKey`] to a released page and the store version
/// it was rendered from.
#[derive(Debug)]
pub(crate) struct RenderCache {
    pages: BoundedCache<PageKey, (u64, RenderedPage)>,
}

impl RenderCache {
    pub(crate) fn new() -> RenderCache {
        RenderCache {
            pages: BoundedCache::new(SHARD_CAP),
        }
    }

    /// Looks up a page rendered for exactly this key's clearance at exactly
    /// this store version; a stale entry is not copied.
    pub(crate) fn get(&self, key: &PageKey, seq: u64) -> Option<RenderedPage> {
        self.pages
            .get(key, |(at, page)| (*at == seq).then(|| page.clone()))
    }

    /// Inserts a released page under `key`, tagged with the store version
    /// read *before* the handler ran (if the store advanced while
    /// rendering, the entry is immediately stale — the safe direction).
    pub(crate) fn put(&self, key: PageKey, seq: u64, page: RenderedPage) {
        self.pages.insert(key, (seq, page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_http::Method;
    use safeweb_labels::{Label, Privilege, PrivilegeSet};

    /// `BoundedCache`'s shard count.
    const SHARDS: usize = 16;

    fn clearance(path: &str) -> PrivilegeSetId {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::clearance(Label::conf("cache.test", path)));
        privs.id()
    }

    fn key(route: usize, target: &str, clearance: PrivilegeSetId) -> PageKey {
        PageKey::new(route, &Request::new(Method::Get, target), clearance)
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
        cache.put(key(0, "/view", a), 7, page("secret-of-a"));

        let hit = cache
            .get(&key(0, "/view", a), 7)
            .expect("same clearance hits");
        assert_eq!(hit.body, "secret-of-a");

        assert!(
            cache.get(&key(0, "/view", b), 7).is_none(),
            "unequal clearance must never see the cached page"
        );
        assert!(
            cache.get(&key(0, "/view", a), 8).is_none(),
            "stale seq misses"
        );
        assert!(
            cache.get(&key(1, "/view", a), 7).is_none(),
            "other route misses"
        );
        assert!(
            cache.get(&key(0, "/other", a), 7).is_none(),
            "other path misses"
        );
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        let cache = RenderCache::new();
        let c = clearance("mdt/x");
        for i in 0..(SHARD_CAP * SHARDS * 2) {
            cache.put(key(0, &format!("/p/{i}"), c), 1, page("x"));
        }
        let total = (0..(SHARD_CAP * SHARDS * 2))
            .filter(|i| cache.get(&key(0, &format!("/p/{i}"), c), 1).is_some())
            .count();
        assert!(total <= SHARD_CAP * SHARDS);
    }
}
