//! The embedded IFC-aware broker core (§4.2).
//!
//! The broker matches published events against subscriptions by topic and
//! optional SQL-92 selector, **then filters by security label**: an event is
//! delivered to a subscriber only if the subscriber's clearance privileges
//! cover every confidentiality label on the event. This is the property the
//! paper relies on to keep jailed units from ever observing data they are
//! not cleared for.
//!
//! # Routing architecture
//!
//! All routing state sits in one table behind one reader-writer lock:
//!
//! * an **exact-topic hash index** (`topic → subscriber list`) for
//!   [`TopicPattern::Exact`] subscriptions — a publish probes one map
//!   entry instead of scanning every subscription;
//! * a **prefix trie** over `/`-separated topic segments for
//!   [`TopicPattern::Prefix`] subscriptions (`/reports/*`) — a publish
//!   walks at most `segments(topic)` nodes, however many prefixes a
//!   peer registered;
//! * the **directory** (`client → subscription id → entry`) the indexes
//!   are maintained from, so a disconnect drops one client's
//!   subscriptions in O(its subscriptions).
//!
//! A publish takes the read lock only to collect the subscriptions whose
//! pattern matches its topic: O(matching), not O(total subscriptions).
//! Publishers never exclude each other; subscribe, re-subscribe,
//! unsubscribe and [`Broker::unsubscribe_all`] are one write-lock section
//! each, so a publish sees a replaced subscription as old or new, never
//! both and never neither. The table is not sharded: no workload
//! saturates one read lock, and sharding comes back only with one that
//! does.
//!
//! # Delivery
//!
//! The selector, the clearance check and the sink all run **after** the
//! lock drops. `std`'s `RwLock` queues new readers behind a waiting
//! writer, so a slow `LIKE` selector or a blocking sink — the engine's,
//! exerting inbox backpressure — run under the lock would let one pending
//! subscribe stall every publisher. A matched event is delivered as a
//! [`Delivery`] carrying `Arc<LabelledEvent>`: one allocation per
//! published event, not one deep clone per matching subscriber.
//! [`Broker::publish_batch`] takes the lock once for the whole batch,
//! delivers in batch order and flushes the stats counters once.
//!
//! # Invariant
//!
//! **Label filtering is applied after routing, never skipped**: the
//! indexes only narrow the candidate set by topic; every candidate still
//! passes the selector and the clearance check
//! (`labels.flows_to(clearance)`) before its sink sees the event.
//! `tests/routing_equivalence.rs` states these semantics as a linear-scan
//! reference broker and holds the indexed path to it
//! property-by-property, over interleaved subscribe, unsubscribe and
//! publish sequences.

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use parking_lot::RwLock;

use safeweb_events::LabelledEvent;
use safeweb_labels::PrivilegeSet;
use safeweb_obs::{record_span, Counter, MetricsRegistry, TraceId};
use safeweb_selector::Selector;

/// A topic pattern: exact (`/patient_report`) or prefix (`/reports/*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicPattern {
    /// Matches exactly one topic.
    Exact(String),
    /// Matches the prefix itself and any topic below it.
    Prefix(String),
}

impl TopicPattern {
    /// Parses a destination string; a trailing `/*` makes it a prefix
    /// pattern (an extension over the paper's exact topics, used by the
    /// monitoring examples).
    pub fn parse(s: &str) -> TopicPattern {
        match s.strip_suffix("/*") {
            Some(prefix) => TopicPattern::Prefix(prefix.to_string()),
            None => TopicPattern::Exact(s.to_string()),
        }
    }

    /// Whether `topic` is matched.
    pub fn matches(&self, topic: &str) -> bool {
        match self {
            TopicPattern::Exact(t) => t == topic,
            TopicPattern::Prefix(p) => {
                topic == p
                    || topic
                        .strip_prefix(p.as_str())
                        .is_some_and(|r| r.starts_with('/'))
            }
        }
    }
}

impl fmt::Display for TopicPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicPattern::Exact(t) => write!(f, "{t}"),
            TopicPattern::Prefix(p) => write!(f, "{p}/*"),
        }
    }
}

/// Identifies a subscription: (client name, subscription id). Subscription
/// ids disambiguate multiple subscriptions from one unit (§4.2:
/// "subscriptions include unique identifiers").
pub type SubscriptionKey = (String, String);

/// Where a subscription's deliveries go: a callback invoked once per
/// matching delivery, returning whether the subscriber is still alive
/// (`false` counts the delivery as suppressed). The reactor STOMP
/// frontend's sinks serialise the frame into the connection's bounded
/// outbound queue; the engine's sinks **block** while the owning unit's
/// inbox is at capacity — the backpressure edge between bus and
/// scheduler; [`Broker::subscribe`]'s sink feeds a channel.
pub type DeliverySink = Box<dyn Fn(Delivery) -> bool + Send + Sync>;

/// One registered subscription, shared between the directory and the
/// index slot that routes to it.
struct SubEntry {
    sub_id: Arc<str>,
    topic: TopicPattern,
    selector: Option<Selector>,
    clearance: PrivilegeSet,
    sink: DeliverySink,
}

impl fmt::Debug for SubEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubEntry")
            .field("sub_id", &self.sub_id)
            .field("topic", &self.topic)
            .finish_non_exhaustive()
    }
}

/// An event as delivered to one subscriber: tagged with the subscription id
/// that matched. The event is shared (`Arc`), not cloned per subscriber.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Which subscription this delivery belongs to.
    pub subscription_id: Arc<str>,
    /// The labelled event (shared across all receiving subscribers).
    pub event: Arc<LabelledEvent>,
}

/// Broker counters: a thin view over [`safeweb_obs`] registry counters.
///
/// Standalone brokers get detached counters (`Default`); a broker built
/// with [`Broker::with_metrics`] registers them as `broker.published`,
/// `broker.delivered`, `broker.label_filtered` and
/// `broker.selector_filtered` in the deployment's shared registry, so
/// the same atomics back both these accessors and the
/// `deployment.metrics()` snapshot.
#[derive(Debug, Default)]
pub struct BrokerStats {
    published: Counter,
    delivered: Counter,
    label_filtered: Counter,
    selector_filtered: Counter,
}

impl BrokerStats {
    fn registered(registry: &MetricsRegistry) -> BrokerStats {
        BrokerStats {
            published: registry.counter("broker.published"),
            delivered: registry.counter("broker.delivered"),
            label_filtered: registry.counter("broker.label_filtered"),
            selector_filtered: registry.counter("broker.selector_filtered"),
        }
    }

    /// Events published.
    pub fn published(&self) -> u64 {
        self.published.get()
    }

    /// Deliveries made (one per matching subscription).
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Deliveries suppressed because the subscriber lacked clearance.
    pub fn label_filtered(&self) -> u64 {
        self.label_filtered.get()
    }

    /// Deliveries suppressed by a content selector.
    pub fn selector_filtered(&self) -> u64 {
        self.selector_filtered.get()
    }
}

/// Per-batch counter accumulator: one atomic RMW per counter per batch
/// instead of one per delivery.
#[derive(Default)]
struct LocalStats {
    delivered: u64,
    label_filtered: u64,
    selector_filtered: u64,
}

impl LocalStats {
    fn flush(self, stats: &BrokerStats, published: u64) {
        if published > 0 {
            stats.published.add(published);
        }
        if self.delivered > 0 {
            stats.delivered.add(self.delivered);
        }
        if self.label_filtered > 0 {
            stats.label_filtered.add(self.label_filtered);
        }
        if self.selector_filtered > 0 {
            stats.selector_filtered.add(self.selector_filtered);
        }
    }
}

/// Configuration for [`Broker`]. Immutable after construction — the hot
/// publish path reads it as a plain field, never through a lock.
#[derive(Debug, Clone)]
pub struct BrokerOptions {
    /// When `false`, label clearance filtering is skipped entirely. This
    /// exists **only** for the paper's baseline measurements (§5.3 measures
    /// throughput with and without label tracking); production deployments
    /// must leave it on.
    pub label_filtering: bool,
}

impl Default for BrokerOptions {
    fn default() -> BrokerOptions {
        BrokerOptions {
            label_filtering: true,
        }
    }
}

/// A node of the prefix trie, keyed by topic segment.
#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<String, TrieNode>,
    subs: Vec<Arc<SubEntry>>,
}

impl TrieNode {
    fn insert(&mut self, segments: &[&str], entry: &Arc<SubEntry>) {
        match segments.split_first() {
            None => self.subs.push(Arc::clone(entry)),
            Some((head, rest)) => self
                .children
                .entry((*head).to_string())
                .or_default()
                .insert(rest, entry),
        }
    }

    /// Removes `entry` along `segments`, pruning nodes left empty.
    fn remove(&mut self, segments: &[&str], entry: &Arc<SubEntry>) {
        match segments.split_first() {
            None => self.subs.retain(|e| !Arc::ptr_eq(e, entry)),
            Some((head, rest)) => {
                if let Some(child) = self.children.get_mut(*head) {
                    child.remove(rest, entry);
                    if child.subs.is_empty() && child.children.is_empty() {
                        self.children.remove(*head);
                    }
                }
            }
        }
    }
}

/// The routing table: both topic indexes and the directory they are
/// maintained from, behind the broker's one lock.
#[derive(Debug, Default)]
struct Routes {
    exact: HashMap<String, Vec<Arc<SubEntry>>>,
    prefix: TrieNode,
    /// `client → subscription id → entry`: a disconnect removes one
    /// client's subscriptions without scanning anyone else's.
    directory: HashMap<String, HashMap<String, Arc<SubEntry>>>,
    /// Subscriptions in `directory`.
    count: usize,
}

impl Routes {
    fn index(&mut self, entry: &Arc<SubEntry>) {
        match &entry.topic {
            TopicPattern::Exact(topic) => self
                .exact
                .entry(topic.clone())
                .or_default()
                .push(Arc::clone(entry)),
            TopicPattern::Prefix(prefix) => {
                let segments: Vec<&str> = prefix.split('/').collect();
                self.prefix.insert(&segments, entry);
            }
        }
    }

    fn unindex(&mut self, entry: &Arc<SubEntry>) {
        match &entry.topic {
            TopicPattern::Exact(topic) => {
                if let Some(list) = self.exact.get_mut(topic) {
                    list.retain(|e| !Arc::ptr_eq(e, entry));
                    if list.is_empty() {
                        self.exact.remove(topic);
                    }
                }
            }
            TopicPattern::Prefix(prefix) => {
                let segments: Vec<&str> = prefix.split('/').collect();
                self.prefix.remove(&segments, entry);
            }
        }
    }

    /// Pushes every subscription whose topic pattern matches `topic`
    /// onto `out`, tagged with `event`: the exact index's one list, then
    /// the trie nodes along the topic's segments.
    fn candidates(&self, topic: &str, event: usize, out: &mut Vec<(usize, Arc<SubEntry>)>) {
        let tag = |entry: &Arc<SubEntry>| (event, Arc::clone(entry));
        if let Some(list) = self.exact.get(topic) {
            out.extend(list.iter().map(tag));
        }
        let mut node = &self.prefix;
        for segment in topic.split('/') {
            match node.children.get(segment) {
                Some(child) => {
                    node = child;
                    out.extend(node.subs.iter().map(tag));
                }
                None => break,
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    routes: RwLock<Routes>,
    stats: BrokerStats,
    options: BrokerOptions,
}

/// The embedded broker. Cheap to clone (shared state behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

impl Default for Broker {
    fn default() -> Broker {
        Broker::new()
    }
}

impl Broker {
    /// Creates a broker with default options (label filtering on).
    pub fn new() -> Broker {
        Broker::with_options(BrokerOptions::default())
    }

    /// Creates a broker with explicit options.
    pub fn with_options(options: BrokerOptions) -> Broker {
        Broker::with_stats(options, BrokerStats::default())
    }

    /// Creates a broker whose counters live in `registry` (under
    /// `broker.*`), so a deployment-wide snapshot sees them, plus a
    /// derived `broker.subscriptions` gauge: the live subscription count.
    pub fn with_metrics(options: BrokerOptions, registry: &MetricsRegistry) -> Broker {
        let broker = Broker::with_stats(options, BrokerStats::registered(registry));
        // Weak: the registry must not keep the broker (and every sink's
        // captures) alive.
        let inner = Arc::downgrade(&broker.inner);
        registry.register_derived("broker.subscriptions", move || {
            inner
                .upgrade()
                .map_or(0.0, |inner| inner.routes.read().count as f64)
        });
        broker
    }

    fn with_stats(options: BrokerOptions, stats: BrokerStats) -> Broker {
        Broker {
            inner: Arc::new(Inner {
                routes: RwLock::default(),
                stats,
                options,
            }),
        }
    }

    /// Registers a subscription and returns the receiving end of its
    /// delivery channel: [`Broker::subscribe_sink`] with a sink that
    /// feeds an unbounded channel, for tests, examples and in-process
    /// consumers.
    ///
    /// `clearance` is the privilege set of the *subscribing principal* — in
    /// the deployed system this comes from the policy file, never from the
    /// subscriber itself. Re-subscribing with the same key replaces the
    /// previous subscription.
    pub fn subscribe(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<Selector>,
        clearance: PrivilegeSet,
    ) -> Receiver<Delivery> {
        let (tx, rx) = channel();
        self.subscribe_sink(
            client,
            subscription_id,
            topic,
            selector,
            clearance,
            Box::new(move |delivery| tx.send(delivery).is_ok()),
        );
        rx
    }

    /// Registers a subscription whose deliveries are pushed through
    /// `sink` **on the publisher's thread**. The sink returns whether
    /// the subscriber is still alive; `false` makes the delivery count as
    /// suppressed (the entry itself is removed by
    /// [`Broker::unsubscribe`]/[`Broker::unsubscribe_all`]).
    ///
    /// The reactor STOMP frontend's sink serialises the frame into the
    /// connection's bounded outbound queue, so ten thousand idle
    /// subscribers cost ten thousand parked *fds*, not ten thousand
    /// parked threads. A sink may block (the engine's does, at a full
    /// unit inbox): sinks run after the routing lock drops.
    ///
    /// `clearance` and re-subscription behave as for
    /// [`Broker::subscribe`].
    pub fn subscribe_sink(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<Selector>,
        clearance: PrivilegeSet,
        sink: DeliverySink,
    ) {
        let entry = Arc::new(SubEntry {
            sub_id: Arc::from(subscription_id),
            topic: TopicPattern::parse(topic),
            selector,
            clearance,
            sink,
        });
        // One write section: a publish sees the old subscription or the
        // new one, never both and never neither.
        let mut routes = self.inner.routes.write();
        routes.index(&entry);
        let replaced = routes
            .directory
            .entry(client.to_string())
            .or_default()
            .insert(subscription_id.to_string(), entry);
        match replaced {
            Some(old) => routes.unindex(&old),
            None => routes.count += 1,
        }
    }

    /// Removes a subscription. Returns whether it existed.
    pub fn unsubscribe(&self, client: &str, subscription_id: &str) -> bool {
        let mut routes = self.inner.routes.write();
        let Some(subs) = routes.directory.get_mut(client) else {
            return false;
        };
        let Some(entry) = subs.remove(subscription_id) else {
            return false;
        };
        if subs.is_empty() {
            routes.directory.remove(client);
        }
        routes.unindex(&entry);
        routes.count -= 1;
        true
    }

    /// Removes every subscription belonging to `client` (used when a
    /// connection drops). O(the client's subscriptions).
    pub fn unsubscribe_all(&self, client: &str) -> usize {
        let mut routes = self.inner.routes.write();
        let Some(subs) = routes.directory.remove(client) else {
            return 0;
        };
        for entry in subs.values() {
            routes.unindex(entry);
        }
        routes.count -= subs.len();
        subs.len()
    }

    /// Number of active subscriptions.
    ///
    /// Public as a signal: a test waits for it before publishing, because
    /// a client's `SUBSCRIBE` returns once the frame is written, not once
    /// the broker has processed it.
    pub fn subscription_count(&self) -> usize {
        self.inner.routes.read().count
    }

    /// Number of `client`'s subscriptions other than `subscription_id`:
    /// what the client would hold besides it after (re-)subscribing it.
    pub fn other_subscriptions(&self, client: &str, subscription_id: &str) -> usize {
        self.inner
            .routes
            .read()
            .directory
            .get(client)
            .map_or(0, |subs| {
                subs.len() - usize::from(subs.contains_key(subscription_id))
            })
    }

    /// Routes `events` in order: one read-lock section collects the
    /// subscriptions whose topic pattern matches each event, then —
    /// with the lock dropped — each candidate passes the selector and
    /// the clearance check before its sink sees the event. Nothing
    /// slow runs under the lock: a costly selector or a blocking sink
    /// (the engine's, at a full unit inbox) must not hold up a queued
    /// subscribe, and every publisher behind it.
    ///
    /// Returns the deliveries made (dead sinks count as suppressed).
    fn route(&self, events: &[Arc<LabelledEvent>]) -> usize {
        let mut candidates = Vec::new();
        {
            let routes = self.inner.routes.read();
            for (index, event) in events.iter().enumerate() {
                routes.candidates(event.topic(), index, &mut candidates);
            }
        }
        let mut local = LocalStats::default();
        for (index, entry) in candidates {
            let event = &events[index];
            debug_assert!(
                entry.topic.matches(event.topic()),
                "index routed a non-match"
            );
            if let Some(selector) = &entry.selector {
                if !selector.matches(event.event()) {
                    local.selector_filtered += 1;
                    continue;
                }
            }
            if self.inner.options.label_filtering && !event.labels().flows_to(&entry.clearance) {
                local.label_filtered += 1;
                continue;
            }
            let delivery = Delivery {
                subscription_id: Arc::clone(&entry.sub_id),
                event: Arc::clone(event),
            };
            if (entry.sink)(delivery) {
                local.delivered += 1;
            }
        }
        let delivered = local.delivered as usize;
        local.flush(&self.inner.stats, events.len() as u64);
        delivered
    }

    /// Publishes an event: fan-out to every subscription whose topic and
    /// selector match **and** whose clearance covers the event's
    /// confidentiality labels.
    ///
    /// Returns the number of deliveries made.
    pub fn publish(&self, event: &LabelledEvent) -> usize {
        self.publish_arc(Arc::new(event.clone()))
    }

    /// Like [`Broker::publish`] for an event already behind an [`Arc`]
    /// (avoids the defensive clone of the borrowed-event entry point).
    pub fn publish_arc(&self, mut event: Arc<LabelledEvent>) -> usize {
        // Engine-originated events reach their first publish untraced;
        // mint here so the rest of the pipeline (scheduler activation,
        // docstore write) stitches onto one id. A shared `Arc` cannot be
        // retraced in place, but every in-process path wraps immediately
        // before publishing, so uniqueness is the common case.
        if !event.trace_id().is_set() {
            if let Some(owned) = Arc::get_mut(&mut event) {
                owned.set_trace_id(TraceId::mint());
            }
        }
        let start = safeweb_obs::now_ns();
        let events = [event];
        let delivered = self.route(&events);
        Self::record_spans(&events, start);
        delivered
    }

    /// Publishes a batch in one broker pass: one read-lock section for
    /// the whole batch, deliveries in batch order, and stats counters
    /// flushed once.
    ///
    /// Returns the total number of deliveries made.
    pub fn publish_batch(&self, events: Vec<LabelledEvent>) -> usize {
        let start = safeweb_obs::now_ns();
        let events: Vec<Arc<LabelledEvent>> = events
            .into_iter()
            .map(|mut event| {
                // Same minting rule as `publish_arc`: every event leaves
                // the broker traced, even when its publisher never
                // opened a scope.
                if !event.trace_id().is_set() {
                    event.set_trace_id(TraceId::mint());
                }
                Arc::new(event)
            })
            .collect();
        let delivered = self.route(&events);
        Self::record_spans(&events, start);
        delivered
    }

    /// One `broker` span per published event; a batch's events share the
    /// batch window.
    fn record_spans(events: &[Arc<LabelledEvent>], start: u64) {
        for event in events {
            record_span(
                "broker",
                event.topic(),
                event.trace_id(),
                start,
                Some(event.labels().id().as_u32()),
            );
        }
    }

    /// Statistics counters.
    pub fn stats(&self) -> &BrokerStats {
        &self.inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_events::Event;
    use safeweb_labels::{Label, Privilege};

    fn labelled(topic: &str, labels: &[Label]) -> LabelledEvent {
        Event::new(topic)
            .unwrap()
            .with_labels(labels.iter().cloned())
    }

    fn clearance_for(labels: &[Label]) -> PrivilegeSet {
        labels.iter().cloned().map(Privilege::clearance).collect()
    }

    #[test]
    fn topic_matching() {
        let broker = Broker::new();
        let rx = broker.subscribe("u", "1", "/a", None, PrivilegeSet::new());
        assert_eq!(broker.publish(&labelled("/a", &[])), 1);
        assert_eq!(broker.publish(&labelled("/b", &[])), 0);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn prefix_topic_matching() {
        let broker = Broker::new();
        let _rx = broker.subscribe("u", "1", "/reports/*", None, PrivilegeSet::new());
        assert_eq!(broker.publish(&labelled("/reports/daily", &[])), 1);
        assert_eq!(broker.publish(&labelled("/reports", &[])), 1);
        assert_eq!(broker.publish(&labelled("/reportsX", &[])), 0);
    }

    #[test]
    fn label_filtering_blocks_uncleared_subscribers() {
        let broker = Broker::new();
        let patient = Label::conf("e", "patient/1");
        let cleared = broker.subscribe(
            "ok",
            "1",
            "/t",
            None,
            clearance_for(std::slice::from_ref(&patient)),
        );
        let uncleared = broker.subscribe("no", "1", "/t", None, PrivilegeSet::new());

        let n = broker.publish(&labelled("/t", std::slice::from_ref(&patient)));
        assert_eq!(n, 1);
        assert_eq!(cleared.try_iter().count(), 1);
        assert_eq!(uncleared.try_iter().count(), 0);
        assert_eq!(broker.stats().label_filtered(), 1);
    }

    #[test]
    fn integrity_labels_do_not_block_delivery() {
        let broker = Broker::new();
        let rx = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        assert_eq!(broker.publish(&labelled("/t", &[Label::int("e", "ok")])), 1);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn selector_filtering() {
        let broker = Broker::new();
        let sel = Selector::parse("type = 'cancer'").unwrap();
        let rx = broker.subscribe("u", "1", "/t", Some(sel), PrivilegeSet::new());
        let hit = Event::new("/t")
            .unwrap()
            .with_attr("type", "cancer")
            .with_labels([]);
        let miss = Event::new("/t")
            .unwrap()
            .with_attr("type", "benign")
            .with_labels([]);
        broker.publish(&hit);
        broker.publish(&miss);
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(broker.stats().selector_filtered(), 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let broker = Broker::new();
        let rx = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        assert!(broker.unsubscribe("u", "1"));
        assert!(!broker.unsubscribe("u", "1"));
        assert_eq!(broker.publish(&labelled("/t", &[])), 0);
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn unsubscribe_all_on_disconnect() {
        let broker = Broker::new();
        broker.subscribe("u", "1", "/a", None, PrivilegeSet::new());
        broker.subscribe("u", "2", "/b", None, PrivilegeSet::new());
        broker.subscribe("v", "1", "/c", None, PrivilegeSet::new());
        assert_eq!(broker.unsubscribe_all("u"), 2);
        assert_eq!(broker.subscription_count(), 1);
    }

    #[test]
    fn multiple_subscriptions_same_client() {
        let broker = Broker::new();
        let rx1 = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        let rx2 = broker.subscribe("u", "2", "/t", None, PrivilegeSet::new());
        assert_eq!(broker.publish(&labelled("/t", &[])), 2);
        assert_eq!(&*rx1.recv().unwrap().subscription_id, "1");
        assert_eq!(&*rx2.recv().unwrap().subscription_id, "2");
    }

    #[test]
    fn disabling_label_filtering_is_explicit_baseline_mode() {
        let broker = Broker::with_options(BrokerOptions {
            label_filtering: false,
        });
        let rx = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        broker.publish(&labelled("/t", &[Label::conf("e", "p/1")]));
        // Baseline mode delivers even without clearance.
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn resubscribing_replaces_previous_subscription() {
        let broker = Broker::new();
        let old_rx = broker.subscribe("u", "1", "/old", None, PrivilegeSet::new());
        let new_rx = broker.subscribe("u", "1", "/new", None, PrivilegeSet::new());
        assert_eq!(broker.subscription_count(), 1);
        assert_eq!(broker.publish(&labelled("/old", &[])), 0);
        assert_eq!(broker.publish(&labelled("/new", &[])), 1);
        assert_eq!(old_rx.try_iter().count(), 0);
        assert_eq!(new_rx.try_iter().count(), 1);
    }

    #[test]
    fn deliveries_share_one_event_allocation() {
        let broker = Broker::new();
        let rx1 = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        let rx2 = broker.subscribe("u", "2", "/t", None, PrivilegeSet::new());
        broker.publish(&labelled("/t", &[]));
        let a = rx1.recv().unwrap().event;
        let b = rx2.recv().unwrap().event;
        assert!(Arc::ptr_eq(&a, &b), "subscribers must share the Arc");
    }

    #[test]
    fn sink_subscriptions_deliver_inline_and_report_liveness() {
        let broker = Broker::new();
        let got: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
        let alive = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let sink_got = Arc::clone(&got);
        let sink_alive = Arc::clone(&alive);
        broker.subscribe_sink(
            "u",
            "1",
            "/t",
            None,
            PrivilegeSet::new(),
            Box::new(move |delivery| {
                sink_got.lock().push(delivery.event.topic().to_string());
                sink_alive.load(std::sync::atomic::Ordering::SeqCst)
            }),
        );
        assert_eq!(broker.publish(&labelled("/t", &[])), 1);
        assert_eq!(got.lock().as_slice(), ["/t".to_string()]);
        assert_eq!(broker.stats().delivered(), 1);

        // A dead sink no longer counts as a delivery (like a dropped
        // channel receiver), and label filtering still precedes it.
        alive.store(false, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(broker.publish(&labelled("/t", &[])), 0);
        assert_eq!(
            broker.publish(&labelled("/t", &[Label::conf("e", "p/1")])),
            0
        );
        assert_eq!(got.lock().len(), 2, "uncleared event must not reach sink");
        assert_eq!(broker.stats().label_filtered(), 1);
        assert!(broker.unsubscribe("u", "1"));
    }

    #[test]
    fn publish_batch_delivers_and_counts_once() {
        let broker = Broker::new();
        let rx = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        let other = broker.subscribe("u", "2", "/elsewhere", None, PrivilegeSet::new());
        let batch = vec![
            labelled("/t", &[]),
            labelled("/elsewhere", &[]),
            labelled("/t", &[]),
            labelled("/nomatch", &[]),
        ];
        assert_eq!(broker.publish_batch(batch), 3);
        assert_eq!(rx.try_iter().count(), 2);
        assert_eq!(other.try_iter().count(), 1);
        assert_eq!(broker.stats().published(), 4);
        assert_eq!(broker.stats().delivered(), 3);
    }

    #[test]
    fn publish_batch_preserves_per_topic_order() {
        let broker = Broker::new();
        let rx = broker.subscribe("u", "1", "/t", None, PrivilegeSet::new());
        let batch: Vec<LabelledEvent> = (0..5)
            .map(|i| {
                Event::new("/t")
                    .unwrap()
                    .with_attr("seq", &i.to_string())
                    .with_labels([])
            })
            .collect();
        broker.publish_batch(batch);
        for i in 0..5 {
            let got = rx.recv().unwrap();
            assert_eq!(got.event.attr("seq"), Some(i.to_string().as_str()));
        }
    }

    #[test]
    fn exact_subscriptions_on_other_topics_are_not_scanned() {
        // Behavioural proxy for the structural claim: a publish must not
        // route to (or count filter stats for) subscriptions on other
        // exact topics, even when those would fail the label filter.
        let broker = Broker::new();
        let secret = Label::conf("e", "p/1");
        for i in 0..50 {
            broker.subscribe(
                "u",
                &i.to_string(),
                &format!("/other/{i}"),
                None,
                PrivilegeSet::new(),
            );
        }
        let rx = broker.subscribe(
            "u",
            "hit",
            "/t",
            None,
            clearance_for(std::slice::from_ref(&secret)),
        );
        assert_eq!(broker.publish(&labelled("/t", &[secret])), 1);
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(broker.stats().label_filtered(), 0);
        assert_eq!(broker.stats().selector_filtered(), 0);
    }

    #[test]
    fn nested_prefix_subscriptions_all_match() {
        let broker = Broker::new();
        let top = broker.subscribe("u", "1", "/a/*", None, PrivilegeSet::new());
        let mid = broker.subscribe("u", "2", "/a/b/*", None, PrivilegeSet::new());
        let deep = broker.subscribe("u", "3", "/a/b/c/*", None, PrivilegeSet::new());
        assert_eq!(broker.publish(&labelled("/a/b/c", &[])), 3);
        assert_eq!(top.try_iter().count(), 1);
        assert_eq!(mid.try_iter().count(), 1);
        assert_eq!(deep.try_iter().count(), 1);
        assert_eq!(broker.publish(&labelled("/a/x", &[])), 1);
    }
}
