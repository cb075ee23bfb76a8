//! Abstraction over how the engine reaches the event broker: in-process
//! (embedded [`Broker`]) or over the network (STOMP client).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

pub use safeweb_broker::DeliverySink;
use safeweb_broker::{Broker, Delivery, EventClient};
use safeweb_events::LabelledEvent;
use safeweb_labels::PrivilegeSet;

use crate::error::EngineError;

/// The engine's view of the broker.
pub trait EventBus: Send + Sync {
    /// Registers a subscription whose deliveries are pushed through
    /// `sink`: a delivery lands directly in the unit's bounded inbox and
    /// makes its task ready, with no per-unit thread parked on a
    /// channel. The embedded broker invokes `sink` on the publisher's
    /// thread, [`RemoteBus`] on its one reader thread.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on transport failure.
    fn subscribe(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError>;

    /// Publishes a labelled event.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on transport failure.
    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError>;

    /// Publishes a batch of labelled events in one bus pass where the
    /// backend supports it. The default forwards events one by one
    /// (correct for transports with no batch framing, like STOMP); the
    /// embedded broker overrides it to amortize routing locks and stats
    /// across the batch.
    ///
    /// # Errors
    ///
    /// Every event is attempted even when an earlier one fails (matching
    /// the pre-batching per-event sink); the first failure is returned.
    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError> {
        let mut first_error = None;
        for event in events {
            if let Err(e) = self.publish(&event) {
                first_error.get_or_insert(e);
            }
        }
        match first_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

impl EventBus for Broker {
    fn subscribe(
        &self,
        client: &str,
        subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError> {
        let selector = match selector {
            Some(src) => Some(
                safeweb_selector::Selector::parse(src)
                    .map_err(|e| EngineError::Bus(format!("bad selector: {e}")))?,
            ),
            None => None,
        };
        Broker::subscribe_sink(
            self,
            client,
            subscription_id,
            topic,
            selector,
            clearance,
            sink,
        );
        Ok(())
    }

    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError> {
        Broker::publish(self, event);
        Ok(())
    }

    fn publish_batch(&self, events: Vec<LabelledEvent>) -> Result<(), EngineError> {
        Broker::publish_batch(self, events);
        Ok(())
    }
}

/// A subscription's sink, shared so the reader thread can call it
/// outside the `routes` lock.
type Route = Arc<dyn Fn(Delivery) -> bool + Send + Sync>;

struct RemoteBusInner {
    publisher: Mutex<EventClient>,
    subscriber: Mutex<EventClient>,
    routes: Mutex<HashMap<String, Route>>,
    reader_started: Mutex<bool>,
}

/// [`EventBus`] over a networked broker: one STOMP connection for
/// publishing and one for subscriptions, with one reader thread that
/// hands each `MESSAGE` frame to its subscription's sink by
/// subscription id.
///
/// The reader calls the sink directly, so a unit whose inbox is full
/// stalls the reader and, through it, the subscription socket: the
/// backlog then sits in the broker server's per-connection outbound
/// queue, bounded by `safeweb_broker::OUTBOX_CAP` (a subscriber further
/// behind than that is disconnected).
///
/// With a remote bus, clearance is assigned **server-side** from the
/// broker's policy file based on the login; the `clearance` argument to
/// [`EventBus::subscribe`] is ignored.
#[derive(Clone)]
pub struct RemoteBus {
    inner: Arc<RemoteBusInner>,
}

impl RemoteBus {
    /// Connects both legs to `addr`, logging in as `login`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Bus`] on connection failure.
    pub fn connect(addr: &str, login: &str) -> Result<RemoteBus, EngineError> {
        let publisher =
            EventClient::connect(addr, login).map_err(|e| EngineError::Bus(e.to_string()))?;
        let subscriber =
            EventClient::connect(addr, login).map_err(|e| EngineError::Bus(e.to_string()))?;
        Ok(RemoteBus {
            inner: Arc::new(RemoteBusInner {
                publisher: Mutex::new(publisher),
                subscriber: Mutex::new(subscriber),
                routes: Mutex::new(HashMap::new()),
                reader_started: Mutex::new(false),
            }),
        })
    }

    fn ensure_reader(&self) {
        let mut started = self.inner.reader_started.lock();
        if *started {
            return;
        }
        *started = true;
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name("safeweb-remote-bus-reader".to_string())
            .spawn(move || loop {
                // Lock only for one bounded receive so `subscribe` can
                // interleave SUBSCRIBE frames on the same connection.
                let next = {
                    let mut client = inner.subscriber.lock();
                    client.next_delivery_timeout(Duration::from_millis(50))
                };
                match next {
                    Ok(Some(d)) => {
                        let route = inner.routes.lock().get(&d.subscription_id).cloned();
                        if let Some(sink) = route {
                            sink(Delivery {
                                subscription_id: d.subscription_id.into(),
                                event: Arc::new(d.event),
                            });
                        }
                    }
                    Ok(None) => {
                        // Timeout with no data: yield so writers can run.
                        std::thread::yield_now();
                    }
                    Err(_) => break,
                }
            })
            .expect("spawn remote bus reader");
    }
}

impl EventBus for RemoteBus {
    fn subscribe(
        &self,
        _client: &str,
        _subscription_id: &str,
        topic: &str,
        selector: Option<&str>,
        _clearance: PrivilegeSet,
        sink: DeliverySink,
    ) -> Result<(), EngineError> {
        {
            let mut client = self.inner.subscriber.lock();
            let id = client
                .subscribe(topic, selector)
                .map_err(|e| EngineError::Bus(e.to_string()))?;
            // Route before the subscriber lock drops: the reader needs
            // that lock to read a MESSAGE, so no delivery for `id` can
            // arrive before its route exists. Lock order is subscriber →
            // routes; the reader takes them one after the other.
            self.inner.routes.lock().insert(id, Arc::from(sink));
        }
        self.ensure_reader();
        Ok(())
    }

    fn publish(&self, event: &LabelledEvent) -> Result<(), EngineError> {
        self.inner
            .publisher
            .lock()
            .publish(event)
            .map_err(|e| EngineError::Bus(e.to_string()))
    }
}
