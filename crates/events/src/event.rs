//! Events and labelled events.

use std::cmp::Ordering;
use std::fmt;

use safeweb_labels::{Label, LabelSet};
use safeweb_obs::TraceId;
use safeweb_selector::AttributeSource;

/// Attribute names reserved for the middleware; application events may not
/// use them because they are carried as protocol headers on the wire.
pub const RESERVED_ATTRIBUTES: &[&str] = &[
    "destination",
    "selector",
    "subscription",
    "content-length",
    "x-safeweb-labels",
    "x-safeweb-id",
    "receipt",
];

/// Error constructing an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// The topic is empty or contains whitespace/control characters.
    InvalidTopic(String),
    /// The attribute name is reserved for the middleware or malformed.
    InvalidAttribute(String),
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::InvalidTopic(t) => write!(f, "invalid event topic {t:?}"),
            EventError::InvalidAttribute(a) => write!(f, "invalid or reserved attribute {a:?}"),
        }
    }
}

impl std::error::Error for EventError {}

/// The attribute rule: reserved or malformed names (empty, or containing
/// `:`, whitespace or control characters) and values with a line break are
/// rejected.
fn check_attr(name: &str, value: &str) -> Result<(), EventError> {
    if name.is_empty()
        || RESERVED_ATTRIBUTES.contains(&name)
        || name
            .chars()
            .any(|c| c == ':' || c.is_control() || c.is_whitespace())
        || value.chars().any(|c| c == '\n' || c == '\r')
    {
        return Err(EventError::InvalidAttribute(name.to_string()));
    }
    Ok(())
}

/// An application event: topic, string attributes and an optional payload
/// (§4.1 — "the keys, values and the body are untyped strings").
///
/// The attributes live in one `String`, each name followed by its value,
/// in name order; `spans` records where each name and each value ends (a
/// name starts where the previous value ended). Equal attribute maps are
/// therefore equal bytes, and an event is at most four heap blocks (topic,
/// attribute text, spans, payload) whatever its attribute count.
#[derive(Clone, PartialEq, Eq)]
pub struct Event {
    topic: String,
    text: String,
    spans: Vec<(usize, usize)>,
    payload: Option<String>,
}

impl Event {
    /// Creates an event on `topic` with no attributes and no payload.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidTopic`] if the topic is empty or
    /// contains whitespace or control characters.
    pub fn new(topic: &str) -> Result<Event, EventError> {
        if topic.is_empty() || topic.chars().any(|c| c.is_whitespace() || c.is_control()) {
            return Err(EventError::InvalidTopic(topic.to_string()));
        }
        Ok(Event {
            topic: topic.to_string(),
            text: String::new(),
            spans: Vec::new(),
            payload: None,
        })
    }

    /// The topic the event is published on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The attributes as `(name, value)`, in name order (byte-wise, as a
    /// `BTreeMap<String, String>` would iterate them).
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &str)> + Clone + '_ {
        let mut start = 0;
        self.spans.iter().map(move |&(name_end, value_end)| {
            let attr = (&self.text[start..name_end], &self.text[name_end..value_end]);
            start = value_end;
            attr
        })
    }

    /// Where attribute `i` starts in `text`.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.spans[prev].1)
    }

    /// Binary search for `name`: its index, or where it would go.
    fn search(&self, name: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.spans.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.text[self.start(mid)..self.spans[mid].0].cmp(name) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Looks up one attribute.
    pub fn attr(&self, name: &str) -> Option<&str> {
        let (name_end, value_end) = self.spans[self.search(name).ok()?];
        Some(&self.text[name_end..value_end])
    }

    /// Sets an attribute in place, replacing any value it had. A new name
    /// moves the attributes after it, so set many at once with
    /// [`Event::set_attrs`].
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidAttribute`] for reserved or malformed
    /// names (empty, or containing `:`, newline or control characters —
    /// these would corrupt the STOMP header encoding).
    pub fn set_attr(&mut self, name: &str, value: &str) -> Result<(), EventError> {
        check_attr(name, value)?;
        // Later spans move by what the text grows (or shrinks) by.
        let (i, old_end, new_end) = match self.search(name) {
            Ok(i) => {
                let (name_end, value_end) = self.spans[i];
                self.text.replace_range(name_end..value_end, value);
                self.spans[i].1 = name_end + value.len();
                (i + 1, value_end, name_end + value.len())
            }
            Err(i) => {
                let at = self.start(i);
                self.text.insert_str(at, value);
                self.text.insert_str(at, name);
                self.spans
                    .insert(i, (at + name.len(), at + name.len() + value.len()));
                (i + 1, at, at + name.len() + value.len())
            }
        };
        for span in &mut self.spans[i..] {
            span.0 = span.0 - old_end + new_end;
            span.1 = span.1 - old_end + new_end;
        }
        Ok(())
    }

    /// Sets several attributes as [`Event::set_attr`] would one by one
    /// (a later equal name wins), in O(n log n) whatever their order: they
    /// are sorted by name and merged with the present attributes into
    /// new text in one pass. A peer's frame decides the order, so it must
    /// not decide the cost.
    ///
    /// # Errors
    ///
    /// As [`Event::set_attr`]; the attributes before the invalid one stay
    /// set.
    pub fn set_attrs<'a, I>(&mut self, attrs: I) -> Result<(), EventError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
        I::IntoIter: Clone,
    {
        let attrs = attrs.into_iter();
        let (count, bytes) = attrs
            .clone()
            .fold((0, 0), |(n, b), (k, v)| (n + 1, b + k.len() + v.len()));
        // A frame's worth of attributes sorts on the stack, so the common
        // batch costs no buffer beyond the event's own two.
        let mut small = [("", ""); 16];
        let mut large = Vec::new();
        let new: &mut [(&str, &str)] = if count <= small.len() {
            &mut small[..count]
        } else {
            large.resize(count, ("", ""));
            &mut large
        };
        let mut valid = 0;
        let mut result = Ok(());
        for (slot, (name, value)) in new.iter_mut().zip(attrs) {
            if let Err(e) = check_attr(name, value) {
                result = Err(e);
                break;
            }
            *slot = (name, value);
            valid += 1;
        }
        let new = &mut new[..valid];
        // Stable, so of equal names the last one set stays last.
        new.sort_by(|a, b| a.0.cmp(b.0));
        let last_of_each = new
            .iter()
            .enumerate()
            .filter(|&(i, attr)| new.get(i + 1).is_none_or(|next| next.0 != attr.0))
            .map(|(_, &attr)| attr);

        let mut text = String::with_capacity(self.text.len() + bytes);
        let mut spans = Vec::with_capacity(self.spans.len() + valid);
        let mut push = |(name, value): (&str, &str)| {
            text.push_str(name);
            let name_end = text.len();
            text.push_str(value);
            spans.push((name_end, text.len()));
        };
        let mut old = self.attributes().peekable();
        for (name, value) in last_of_each {
            while let Some(present) = old.next_if(|present| present.0 <= name) {
                if present.0 < name {
                    push(present);
                }
            }
            push((name, value));
        }
        old.for_each(&mut push);
        self.text = text;
        self.spans = spans;
        result
    }

    /// Builder-style attribute setter.
    ///
    /// # Panics
    ///
    /// Panics on reserved or malformed attribute names; use
    /// [`Event::set_attr`] for fallible setting.
    pub fn with_attr(mut self, name: &str, value: &str) -> Event {
        self.set_attr(name, value)
            .unwrap_or_else(|e| panic!("with_attr: {e}"));
        self
    }

    /// The payload body, if any.
    pub fn payload(&self) -> Option<&str> {
        self.payload.as_deref()
    }

    /// Sets the payload body.
    pub fn set_payload(&mut self, payload: impl Into<String>) {
        self.payload = Some(payload.into());
    }

    /// Builder-style payload setter.
    pub fn with_payload(mut self, payload: impl Into<String>) -> Event {
        self.set_payload(payload);
        self
    }

    /// Wraps this event with labels, producing a [`LabelledEvent`].
    pub fn with_labels<I: IntoIterator<Item = Label>>(self, labels: I) -> LabelledEvent {
        LabelledEvent::new(self, labels.into_iter().collect())
    }

    /// Wraps this event with an existing label set.
    pub fn with_label_set(self, labels: LabelSet) -> LabelledEvent {
        LabelledEvent::new(self, labels)
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Attributes<'a>(&'a Event);
        impl fmt::Debug for Attributes<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.attributes()).finish()
            }
        }
        f.debug_struct("Event")
            .field("topic", &self.topic)
            .field("attributes", &Attributes(self))
            .field("payload", &self.payload)
            .finish()
    }
}

impl AttributeSource for Event {
    fn attribute(&self, name: &str) -> Option<&str> {
        self.attr(name)
    }
}

/// An event together with the security labels SafeWeb tracks for it.
///
/// The labels are *not* part of the application-visible attribute map; they
/// travel as a protected header (`x-safeweb-labels`) that only the
/// middleware may write.
#[derive(Debug, Clone)]
pub struct LabelledEvent {
    event: Event,
    // An interned handle: one pointer, `Copy`, equality by id. The broker
    // clones every event once per matching subscriber and this costs
    // nothing per clone (the CoW `Arc<LabelSet>` this replaced is obsolete
    // now that label sets are hash-consed).
    labels: LabelSet,
    // The causal chain this event belongs to. Inherited from the
    // thread's ambient trace scope at construction (a frontend request,
    // a unit activation), or minted by the broker at first publish.
    trace: TraceId,
}

/// Trace ids are telemetry routing, not event identity: two events that
/// agree on content and labels are equal even if observed under
/// different traces.
impl PartialEq for LabelledEvent {
    fn eq(&self, other: &LabelledEvent) -> bool {
        self.event == other.event && self.labels == other.labels
    }
}

impl Eq for LabelledEvent {}

impl LabelledEvent {
    /// Creates a labelled event, inheriting the ambient
    /// [`trace scope`](safeweb_obs::trace_scope) of the calling thread
    /// (unset outside any scope).
    pub fn new(event: Event, labels: LabelSet) -> LabelledEvent {
        LabelledEvent {
            event,
            labels,
            trace: safeweb_obs::current_trace(),
        }
    }

    /// The trace this event belongs to ([`TraceId::UNSET`] if it has
    /// not been traced yet).
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Attaches a trace id (used by the broker to mint one at first
    /// publish for engine-originated events, and by transports to
    /// restore the id after the wire).
    pub fn set_trace_id(&mut self, trace: TraceId) {
        self.trace = trace;
    }

    /// The underlying event.
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// The labels currently attached.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Replaces the label set, returning the rewritten event — the builder
    /// path the enforcement layers use instead of mutating labels in place.
    pub fn with_label_set(mut self, labels: LabelSet) -> LabelledEvent {
        self.labels = labels;
        self
    }

    /// Convenience: topic of the inner event.
    pub fn topic(&self) -> &str {
        self.event.topic()
    }

    /// Convenience: attribute of the inner event.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.event.attr(name)
    }

    /// Derives a new labelled event from this one, combining labels per
    /// §4.1 (confidentiality union, integrity intersection) with the labels
    /// of `other_inputs`.
    pub fn derive(&self, event: Event, other_inputs: &[&LabelledEvent]) -> LabelledEvent {
        let mut labels = self.labels;
        for other in other_inputs {
            labels = labels.combine(&other.labels);
        }
        // Causality follows the primary input: the derived event stays
        // on this event's trace (falling back to the ambient scope).
        let trace = if self.trace.is_set() {
            self.trace
        } else {
            safeweb_obs::current_trace()
        };
        LabelledEvent {
            event,
            labels,
            trace,
        }
    }
}

impl AttributeSource for LabelledEvent {
    fn attribute(&self, name: &str) -> Option<&str> {
        self.event.attr(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_selector::Selector;

    #[test]
    fn builds_event_with_attributes_and_payload() {
        let e = Event::new("/patient_report")
            .unwrap()
            .with_attr("type", "cancer")
            .with_payload("body");
        assert_eq!(e.topic(), "/patient_report");
        assert_eq!(e.attr("type"), Some("cancer"));
        assert_eq!(e.payload(), Some("body"));
    }

    #[test]
    fn rejects_bad_topics() {
        assert!(Event::new("").is_err());
        assert!(Event::new("has space").is_err());
        assert!(Event::new("ok/topic").is_ok());
    }

    #[test]
    fn rejects_reserved_attributes() {
        let mut e = Event::new("/t").unwrap();
        for name in RESERVED_ATTRIBUTES {
            assert!(e.set_attr(name, "v").is_err(), "{name}");
        }
        assert!(e.set_attr("with:colon", "v").is_err());
        assert!(e.set_attr("", "v").is_err());
        assert!(e.set_attr("ok", "line\nbreak").is_err());
    }

    #[test]
    fn selector_matches_event_attributes() {
        let e = Event::new("/t")
            .unwrap()
            .with_attr("type", "cancer")
            .with_attr("age", "61");
        let sel = Selector::parse("type = 'cancer' AND age > 50").unwrap();
        assert!(sel.matches(&e));
    }

    #[test]
    fn derive_combines_labels() {
        use safeweb_labels::Label;
        let a = Event::new("/a")
            .unwrap()
            .with_labels([Label::conf("e", "p/1"), Label::int("e", "ok")]);
        let b = Event::new("/b")
            .unwrap()
            .with_labels([Label::conf("e", "p/2"), Label::int("e", "ok")]);
        let c = Event::new("/c").unwrap();
        let derived = a.derive(c, &[&b]);
        assert!(derived.labels().contains(&Label::conf("e", "p/1")));
        assert!(derived.labels().contains(&Label::conf("e", "p/2")));
        assert!(derived.labels().contains(&Label::int("e", "ok")));

        let d = Event::new("/d")
            .unwrap()
            .with_labels([Label::conf("e", "p/3")]);
        let derived2 = a.derive(Event::new("/c2").unwrap(), &[&d]);
        // d lacks the integrity label, so it must not survive.
        assert!(!derived2.labels().contains(&Label::int("e", "ok")));
    }
}
