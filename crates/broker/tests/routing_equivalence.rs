//! Oracle equivalence: the exact-index/prefix-trie broker must be
//! observationally identical to a linear-scan reference ([`LinearBroker`]
//! below) — same delivery sequences per subscription, same return
//! values, same [`safeweb_broker::BrokerStats`] counters — across random
//! mixes of exact/prefix topics, selectors, labels, clearances,
//! replacements and unsubscribes, including sequences that interleave
//! them with publishes. Only the complexity may differ.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;
use safeweb_broker::{
    Broker, BrokerOptions, Delivery, DeliverySink, SubscriptionKey, TopicPattern,
};
use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{Label, Privilege, PrivilegeSet};
use safeweb_selector::Selector;

struct LinearSub {
    key: SubscriptionKey,
    topic: TopicPattern,
    selector: Option<Selector>,
    clearance: PrivilegeSet,
    sender: Sender<Delivery>,
}

/// A deliberately naive reference broker, the executable specification
/// of matching and filtering: every publish scans every subscription and
/// deep-clones the event per delivery — the seed's implementation. Its
/// counters count what the indexed broker's `BrokerStats` count.
struct LinearBroker {
    subs: Vec<LinearSub>,
    options: BrokerOptions,
    published: u64,
    delivered: u64,
    label_filtered: u64,
    selector_filtered: u64,
}

impl LinearBroker {
    fn with_options(options: BrokerOptions) -> LinearBroker {
        LinearBroker {
            subs: Vec::new(),
            options,
            published: 0,
            delivered: 0,
            label_filtered: 0,
            selector_filtered: 0,
        }
    }

    /// Registers a subscription, replacing any previous one under the
    /// same key.
    fn subscribe(
        &mut self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<Selector>,
        clearance: PrivilegeSet,
    ) -> Receiver<Delivery> {
        let key = (client.to_string(), subscription_id.to_string());
        self.subs.retain(|s| s.key != key);
        let (sender, rx) = channel();
        self.subs.push(LinearSub {
            key,
            topic: TopicPattern::parse(topic),
            selector,
            clearance,
            sender,
        });
        rx
    }

    /// Removes a subscription. Returns whether it existed.
    fn unsubscribe(&mut self, client: &str, subscription_id: &str) -> bool {
        let before = self.subs.len();
        self.subs
            .retain(|s| s.key.0 != client || s.key.1 != subscription_id);
        self.subs.len() < before
    }

    /// Removes every subscription of `client`. Returns how many there were.
    fn unsubscribe_all(&mut self, client: &str) -> usize {
        let before = self.subs.len();
        self.subs.retain(|s| s.key.0 != client);
        before - self.subs.len()
    }

    /// Publishes one event; returns the number of deliveries made.
    fn publish(&mut self, event: &LabelledEvent) -> usize {
        self.published += 1;
        let mut delivered = 0;
        for sub in &self.subs {
            if !sub.topic.matches(event.topic()) {
                continue;
            }
            if let Some(selector) = &sub.selector {
                if !selector.matches(event.event()) {
                    self.selector_filtered += 1;
                    continue;
                }
            }
            if self.options.label_filtering && !event.labels().flows_to(&sub.clearance) {
                self.label_filtered += 1;
                continue;
            }
            let delivery = Delivery {
                subscription_id: Arc::from(sub.key.1.as_str()),
                event: Arc::new(event.clone()),
            };
            if sub.sender.send(delivery).is_ok() {
                delivered += 1;
            }
        }
        self.delivered += delivered as u64;
        delivered
    }
}

/// Topic paths over a tiny segment alphabet so exact topics, prefixes
/// and near-miss siblings (`/a` vs `/ab`) all collide interestingly.
fn arb_topic() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("/a".to_string()),
        Just("/ab".to_string()),
        Just("/a/b".to_string()),
        Just("/a/b/c".to_string()),
        Just("/a/c".to_string()),
        Just("/b".to_string()),
        Just("/b/c".to_string()),
        Just("/c/a/b".to_string()),
    ]
}

/// A destination string: an exact topic or a prefix pattern over one.
fn arb_destination() -> impl Strategy<Value = String> {
    prop_oneof![arb_topic(), arb_topic().prop_map(|t| format!("{t}/*")),]
}

fn arb_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        Just(Label::conf("e", "p/1")),
        Just(Label::conf("e", "p/2")),
        Just(Label::conf("e", "mdt/a")),
        Just(Label::int("e", "ok")),
    ]
}

fn arb_labels() -> impl Strategy<Value = Vec<Label>> {
    proptest::collection::vec(arb_label(), 0..3)
}

/// Selector sources over the attributes events carry.
fn arb_selector() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("type = 'cancer'".to_string())),
        Just(Some("n > 5".to_string())),
        Just(Some("type = 'benign' AND n <= 3".to_string())),
        Just(Some("missing IS NULL".to_string())),
    ]
}

#[derive(Debug, Clone)]
struct SubSpec {
    client: &'static str,
    id: u8,
    destination: String,
    selector: Option<String>,
    clearance: Vec<Label>,
}

fn arb_sub() -> impl Strategy<Value = SubSpec> {
    (
        arb_client(),
        0u8..5,
        arb_destination(),
        arb_selector(),
        arb_labels(),
    )
        .prop_map(|(client, id, destination, selector, clearance)| SubSpec {
            client,
            id,
            destination,
            selector,
            clearance,
        })
}

/// An event before its `seq`: topic, `n`, `type` and labels.
type EventSpec = (String, i64, &'static str, Vec<Label>);

fn arb_event() -> impl Strategy<Value = EventSpec> {
    (
        arb_topic(),
        0i64..10,
        prop_oneof![Just("cancer"), Just("benign")],
        arb_labels(),
    )
}

/// Builds an event with the unique `seq` attribute that lets delivery
/// sequences be compared exactly across both brokers.
fn event(seq: usize, (topic, n, kind, labels): EventSpec) -> LabelledEvent {
    Event::new(&topic)
        .unwrap()
        .with_attr("seq", &seq.to_string())
        .with_attr("n", &n.to_string())
        .with_attr("type", kind)
        .with_labels(labels)
}

fn arb_events() -> impl Strategy<Value = Vec<LabelledEvent>> {
    proptest::collection::vec(arb_event(), 0..25).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(seq, spec)| event(seq, spec))
            .collect()
    })
}

/// One step of an interleaved operation sequence.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(SubSpec),
    /// Re-subscribes the live key at this index (modulo the live count)
    /// with the spec's destination, selector and clearance.
    Resubscribe(usize, SubSpec),
    Unsubscribe(&'static str, u8),
    UnsubscribeAll(&'static str),
    Publish(EventSpec),
    PublishBatch(Vec<EventSpec>),
}

fn arb_client() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("u"), Just("v")]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_sub().prop_map(Op::Subscribe),
        (0usize..16, arb_sub()).prop_map(|(n, spec)| Op::Resubscribe(n, spec)),
        (arb_client(), 0u8..5).prop_map(|(client, id)| Op::Unsubscribe(client, id)),
        arb_client().prop_map(Op::UnsubscribeAll),
        arb_event().prop_map(Op::Publish),
        proptest::collection::vec(arb_event(), 0..6).prop_map(Op::PublishBatch),
    ]
}

fn clearance_set(labels: &[Label]) -> PrivilegeSet {
    labels.iter().cloned().map(Privilege::clearance).collect()
}

/// Drains a receiver into the sequence of `seq` attributes delivered.
fn drain(rx: &Receiver<Delivery>) -> Vec<String> {
    let mut seqs = Vec::new();
    while let Ok(d) = rx.try_recv() {
        seqs.push(d.event.attr("seq").unwrap_or("?").to_string());
    }
    seqs
}

/// Subscribes `client`/`id` with `spec`'s destination, selector and
/// clearance on both brokers; returns (indexed, oracle) receivers.
fn subscribe_both(
    indexed: &Broker,
    linear: &mut LinearBroker,
    client: &str,
    id: &str,
    spec: &SubSpec,
) -> (Receiver<Delivery>, Receiver<Delivery>) {
    let selector = spec
        .selector
        .as_deref()
        .map(|src| Selector::parse(src).expect("pool selectors parse"));
    let clearance = clearance_set(&spec.clearance);
    let srx = indexed.subscribe(client, id, &spec.destination, selector.clone(), clearance);
    let lrx = linear.subscribe(client, id, &spec.destination, selector, clearance);
    (srx, lrx)
}

/// Builds both brokers from the same spec and returns per-key receivers.
#[allow(clippy::type_complexity)]
fn build(
    subs: &[SubSpec],
    unsub_mask: u32,
    options: &BrokerOptions,
) -> (
    Broker,
    LinearBroker,
    BTreeMap<SubscriptionKey, (Receiver<Delivery>, Receiver<Delivery>)>,
) {
    let indexed = Broker::with_options(options.clone());
    let mut linear = LinearBroker::with_options(options.clone());
    let mut receivers = BTreeMap::new();
    for spec in subs {
        let id = spec.id.to_string();
        let pair = subscribe_both(&indexed, &mut linear, spec.client, &id, spec);
        receivers.insert((spec.client.to_string(), id), pair);
    }
    // Unsubscribe the same pseudo-random subset from both sides.
    let keys: Vec<SubscriptionKey> = receivers.keys().cloned().collect();
    for (i, (client, id)) in keys.iter().enumerate() {
        if unsub_mask & (1 << (i % 32)) != 0 {
            assert_eq!(
                indexed.unsubscribe(client, id),
                linear.unsubscribe(client, id),
                "unsubscribe({client}, {id}) existence must agree"
            );
            receivers.remove(&(client.clone(), id.clone()));
        }
    }
    (indexed, linear, receivers)
}

fn assert_stats_equal(indexed: &Broker, linear: &LinearBroker) -> Result<(), TestCaseError> {
    let stats = indexed.stats();
    prop_assert_eq!(stats.published(), linear.published);
    prop_assert_eq!(stats.delivered(), linear.delivered);
    prop_assert_eq!(stats.label_filtered(), linear.label_filtered);
    prop_assert_eq!(stats.selector_filtered(), linear.selector_filtered);
    Ok(())
}

proptest! {
    /// Event-by-event publishing: identical per-subscription delivery
    /// sequences, publish return values, and stats counters.
    #[test]
    fn single_publish_matches_oracle(
        subs in proptest::collection::vec(arb_sub(), 0..12),
        events in arb_events(),
        unsub_mask in any::<u32>(),
    ) {
        let (indexed, mut linear, receivers) = build(&subs, unsub_mask, &BrokerOptions::default());
        for event in &events {
            prop_assert_eq!(indexed.publish(event), linear.publish(event));
        }
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&indexed, &linear)?;
    }

    /// Batch publishing delivers in batch order: the same sequence per
    /// subscription as the oracle's event-by-event scan, with the same
    /// counters.
    #[test]
    fn batch_publish_matches_oracle(
        subs in proptest::collection::vec(arb_sub(), 0..12),
        events in arb_events(),
        unsub_mask in any::<u32>(),
    ) {
        let (indexed, mut linear, receivers) = build(&subs, unsub_mask, &BrokerOptions::default());
        let mut linear_total = 0;
        for event in &events {
            linear_total += linear.publish(event);
        }
        prop_assert_eq!(indexed.publish_batch(events), linear_total);
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&indexed, &linear)?;
    }

    /// Index maintenance under interleaving: subscribes, re-subscribes
    /// of live keys, unsubscribes, disconnects and publishes in random
    /// order. Every receiver ever handed out — replaced ones included —
    /// sees the oracle's sequence, and every return value, the live
    /// count and the counters agree after each step.
    #[test]
    fn interleaved_operations_match_oracle(
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let indexed = Broker::new();
        let mut linear = LinearBroker::with_options(BrokerOptions::default());
        let mut receivers = Vec::new();
        let mut seq = 0;
        for op in ops {
            match op {
                Op::Subscribe(spec) => {
                    let (client, id) = (spec.client, spec.id.to_string());
                    let pair = subscribe_both(&indexed, &mut linear, client, &id, &spec);
                    receivers.push(((client.to_string(), id), pair));
                }
                Op::Resubscribe(n, spec) => {
                    if linear.subs.is_empty() {
                        continue;
                    }
                    let (client, id) = linear.subs[n % linear.subs.len()].key.clone();
                    let pair = subscribe_both(&indexed, &mut linear, &client, &id, &spec);
                    receivers.push(((client, id), pair));
                }
                Op::Unsubscribe(client, id) => {
                    let id = id.to_string();
                    prop_assert_eq!(indexed.unsubscribe(client, &id), linear.unsubscribe(client, &id));
                }
                Op::UnsubscribeAll(client) => {
                    prop_assert_eq!(indexed.unsubscribe_all(client), linear.unsubscribe_all(client));
                }
                Op::Publish(spec) => {
                    seq += 1;
                    let event = event(seq, spec);
                    prop_assert_eq!(indexed.publish(&event), linear.publish(&event));
                }
                Op::PublishBatch(specs) => {
                    let mut batch = Vec::new();
                    let mut linear_total = 0;
                    for spec in specs {
                        seq += 1;
                        let event = event(seq, spec);
                        linear_total += linear.publish(&event);
                        batch.push(event);
                    }
                    prop_assert_eq!(indexed.publish_batch(batch), linear_total);
                }
            }
            prop_assert_eq!(indexed.subscription_count(), linear.subs.len());
        }
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&indexed, &linear)?;
    }

    /// The §5.3 baseline mode (label filtering off) stays equivalent too:
    /// routing and selector behaviour are unchanged, only the clearance
    /// check is skipped — on both sides.
    #[test]
    fn baseline_mode_matches_oracle(
        subs in proptest::collection::vec(arb_sub(), 0..8),
        events in arb_events(),
    ) {
        let options = BrokerOptions { label_filtering: false };
        let (indexed, mut linear, receivers) = build(&subs, 0, &options);
        for event in &events {
            prop_assert_eq!(indexed.publish(event), linear.publish(event));
        }
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&indexed, &linear)?;
    }
}

fn counting_sink(count: &Arc<AtomicUsize>) -> DeliverySink {
    let count = Arc::clone(count);
    Box::new(move |_| {
        count.fetch_add(1, Ordering::SeqCst);
        true
    })
}

/// A re-subscription is atomic to a concurrent publisher: while one
/// thread flips a key between sinks A and B, each event published on
/// another thread reaches exactly one of them — never both, never
/// neither. The publisher keeps going until the flipper has made
/// `FLIPS` flips, so the two overlap however the threads are scheduled.
#[test]
fn a_concurrent_resubscription_delivers_each_event_exactly_once() {
    const EVENTS: usize = 10_000;
    const FLIPS: usize = 1_000;
    let broker = Broker::new();
    let sinks = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
    let subscribe = |sink: &Arc<AtomicUsize>| {
        broker.subscribe_sink(
            "k",
            "1",
            "/t",
            None,
            PrivilegeSet::new(),
            counting_sink(sink),
        );
    };
    subscribe(&sinks[0]);
    let flips = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let event = Event::new("/t").unwrap().with_labels([]);
    let (mut published, mut delivered) = (0, 0);
    thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            while !stop.load(Ordering::SeqCst) {
                let n = flips.fetch_add(1, Ordering::SeqCst) + 1;
                subscribe(&sinks[n % 2]);
            }
        });
        start.wait();
        while published < EVENTS || flips.load(Ordering::SeqCst) < FLIPS {
            delivered += broker.publish(&event);
            published += 1;
        }
        stop.store(true, Ordering::SeqCst);
    });
    assert_eq!(delivered, published);
    let total = sinks[0].load(Ordering::SeqCst) + sinks[1].load(Ordering::SeqCst);
    assert_eq!(total, published);
    assert_eq!(broker.subscription_count(), 1);
}
