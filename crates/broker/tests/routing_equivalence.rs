//! Oracle equivalence: the sharded exact-index/prefix-trie broker must be
//! observationally identical to a linear-scan reference ([`LinearBroker`]
//! below) — same delivery sets per subscription, same publish return
//! values, same [`safeweb_broker::BrokerStats`] counters — across random
//! mixes of exact/prefix topics, selectors, labels, clearances,
//! replacements and unsubscribes. Only the complexity may differ.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use proptest::prelude::*;
use safeweb_broker::{Broker, BrokerOptions, Delivery, SubscriptionKey, TopicPattern};
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
/// deep-clones the event per delivery — the pre-sharding implementation.
/// Its counters count what the sharded broker's `BrokerStats` count.
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
        prop_oneof![Just("u"), Just("v")],
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

/// Events get a unique `seq` attribute so delivery sequences can be
/// compared exactly across both brokers.
fn arb_events() -> impl Strategy<Value = Vec<LabelledEvent>> {
    proptest::collection::vec(
        (
            arb_topic(),
            0i64..10,
            prop_oneof![Just("cancer"), Just("benign")],
            arb_labels(),
        ),
        0..25,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(seq, (topic, n, kind, labels))| {
                Event::new(&topic)
                    .unwrap()
                    .with_attr("seq", &seq.to_string())
                    .with_attr("n", &n.to_string())
                    .with_attr("type", kind)
                    .with_labels(labels)
            })
            .collect()
    })
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
    let sharded = Broker::with_options(options.clone());
    let mut linear = LinearBroker::with_options(options.clone());
    let mut receivers = BTreeMap::new();
    for spec in subs {
        let id = spec.id.to_string();
        let selector = spec
            .selector
            .as_deref()
            .map(|src| Selector::parse(src).expect("pool selectors parse"));
        let srx = sharded.subscribe(
            spec.client,
            &id,
            &spec.destination,
            selector.clone(),
            clearance_set(&spec.clearance),
        );
        let lrx = linear.subscribe(
            spec.client,
            &id,
            &spec.destination,
            selector,
            clearance_set(&spec.clearance),
        );
        receivers.insert((spec.client.to_string(), id), (srx, lrx));
    }
    // Unsubscribe the same pseudo-random subset from both sides.
    let keys: Vec<SubscriptionKey> = receivers.keys().cloned().collect();
    for (i, (client, id)) in keys.iter().enumerate() {
        if unsub_mask & (1 << (i % 32)) != 0 {
            assert_eq!(
                sharded.unsubscribe(client, id),
                linear.unsubscribe(client, id),
                "unsubscribe({client}, {id}) existence must agree"
            );
            receivers.remove(&(client.clone(), id.clone()));
        }
    }
    (sharded, linear, receivers)
}

fn assert_stats_equal(sharded: &Broker, linear: &LinearBroker) -> Result<(), TestCaseError> {
    let stats = sharded.stats();
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
        let (sharded, mut linear, receivers) = build(&subs, unsub_mask, &BrokerOptions::default());
        for event in &events {
            prop_assert_eq!(sharded.publish(event), linear.publish(event));
        }
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&sharded, &linear)?;
    }

    /// Batch publishing delivers the same multiset per subscription as
    /// the oracle's event-by-event scan (order is only guaranteed within
    /// one topic, so sequences are compared sorted) with the same
    /// counters.
    #[test]
    fn batch_publish_matches_oracle(
        subs in proptest::collection::vec(arb_sub(), 0..12),
        events in arb_events(),
        unsub_mask in any::<u32>(),
    ) {
        let (sharded, mut linear, receivers) = build(&subs, unsub_mask, &BrokerOptions::default());
        let mut linear_total = 0;
        for event in &events {
            linear_total += linear.publish(event);
        }
        prop_assert_eq!(sharded.publish_batch(events), linear_total);
        for ((client, id), (srx, lrx)) in &receivers {
            let mut got = drain(srx);
            let mut want = drain(lrx);
            got.sort();
            want.sort();
            prop_assert_eq!(got, want, "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&sharded, &linear)?;
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
        let (sharded, mut linear, receivers) = build(&subs, 0, &options);
        for event in &events {
            prop_assert_eq!(sharded.publish(event), linear.publish(event));
        }
        for ((client, id), (srx, lrx)) in &receivers {
            prop_assert_eq!(drain(srx), drain(lrx), "deliveries for ({}, {})", client, id);
        }
        assert_stats_equal(&sharded, &linear)?;
    }
}
