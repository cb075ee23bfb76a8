//! The IFC jail (§4.3, Figure 2).
//!
//! In the paper, unit callbacks run in a thread with Ruby `$SAFE=4`: no
//! I/O, no access to shared state except the engine-mediated channels. In
//! Rust the equivalent is *capability discipline*: a callback receives only
//! a [`Jail`] handle, and every effect it can perform — publishing events,
//! reading/writing the unit's key-value store, I/O for privileged units —
//! goes through that handle, where label bookkeeping is enforced:
//!
//! * The jail maintains the ambient label set `$LABELS`, initialised to the
//!   labels of the event being processed.
//! * Reading a key from the store folds the key's labels into `$LABELS`.
//! * Publishing attaches `$LABELS` to the outgoing event; removing labels
//!   requires the declassification privilege, adding integrity labels the
//!   endorsement privilege. Adding confidentiality labels is always free.
//! * Writing to the store labels the key with `$LABELS` (± the same
//!   checked adjustments).

use std::cell::RefCell;
use std::collections::BTreeMap;

use safeweb_events::{Event, LabelledEvent};
use safeweb_labels::{LabelSet, LabelSetId, PrivilegeSet, Relabel};

use crate::error::UnitError;

/// The per-unit labelled key-value store (§4.3: "the engine provides a
/// unit-specific key-value store with labels associated with keys").
#[derive(Debug, Default)]
pub struct LabelledStore {
    entries: BTreeMap<String, (String, LabelSet)>,
}

impl LabelledStore {
    /// Creates an empty store.
    pub fn new() -> LabelledStore {
        LabelledStore::default()
    }

    /// Raw read without label bookkeeping — only the engine uses this.
    pub(crate) fn get_raw(&self, key: &str) -> Option<&(String, LabelSet)> {
        self.entries.get(key)
    }

    /// Writes `key`, overwriting an existing value in place: the key and
    /// the value's buffer are copied only when the key is new.
    pub(crate) fn set_raw(&mut self, key: &str, value: &str, labels: LabelSet) {
        match self.entries.get_mut(key) {
            Some((old, old_labels)) => {
                old.clear();
                // Grown to the exact size, as a fresh copy would be.
                old.reserve_exact(value.len());
                old.push_str(value);
                *old_labels = labels;
            }
            None => {
                self.entries.insert(key.into(), (value.into(), labels));
            }
        }
    }
}

/// Most relabel outcomes one activation remembers; later distinct ones
/// are computed each time.
const RELABEL_MEMO_CAP: usize = 32;

/// The outcomes of one activation's relabels, keyed by the input
/// `$LABELS` and the [`Relabel`]. Sound because an outcome depends on
/// nothing else but the unit's privileges, which are fixed.
pub(crate) type RelabelMemo = RefCell<Vec<(LabelSetId, Relabel, Result<LabelSet, UnitError>)>>;

/// Makes the event of a [`Jail::publish_latest`]. A buffering sink runs
/// it at flush, and only if no later publish superseded it.
pub type EventBuilder = Box<dyn FnOnce() -> Result<Event, UnitError>>;

/// Destination for events a jail publishes; implemented by the engine to
/// forward to the broker, and by tests to capture output.
pub trait PublishSink {
    /// Delivers a fully labelled event.
    fn deliver(&self, event: LabelledEvent);

    /// Delivers the event `build` makes on `topic` under `labels`, which
    /// supersedes the last one delivered under `key`. A buffering sink may
    /// drop that earlier one, unbuilt, when it has the same topic and
    /// label set ([`Jail::publish_latest`]); the default builds at once
    /// and keeps both.
    ///
    /// # Errors
    ///
    /// The default returns what `build` returns.
    fn deliver_latest(
        &self,
        _key: &str,
        _topic: &'static str,
        labels: LabelSet,
        build: EventBuilder,
    ) -> Result<(), UnitError> {
        self.deliver(LabelledEvent::new(build()?, labels));
        Ok(())
    }
}

impl<F: Fn(LabelledEvent)> PublishSink for F {
    fn deliver(&self, event: LabelledEvent) {
        self(event)
    }
}

/// Capability for raw I/O, handed only to privileged units (§4.3: "the
/// engine allows privileged units to execute without isolation ... and,
/// thus, access I/O facilities").
///
/// Holding an `IoCapability` is the *only* sanctioned way for a unit body
/// to reach the outside world; its presence in a unit's code is the audit
/// marker that the unit belongs to the trusted codebase (§5.2 counts these
/// units' lines as audited code).
#[derive(Debug, Clone, Copy)]
pub struct IoCapability {
    _private: (),
}

impl IoCapability {
    pub(crate) fn new() -> IoCapability {
        IoCapability { _private: () }
    }
}

/// The jail handle passed to unit callbacks.
pub struct Jail<'a> {
    labels: LabelSet,
    privileges: &'a PrivilegeSet,
    privileged: bool,
    store: &'a mut LabelledStore,
    sink: &'a dyn PublishSink,
    /// Shared by the jails of one activation.
    relabels: &'a RelabelMemo,
    /// When false (baseline benchmarking only), label bookkeeping is
    /// skipped entirely.
    tracking: bool,
}

impl<'a> Jail<'a> {
    /// Creates a jail for one callback execution. `initial_labels` is the
    /// label set of the event being processed (empty for timer callbacks).
    pub(crate) fn new(
        initial_labels: LabelSet,
        privileges: &'a PrivilegeSet,
        privileged: bool,
        store: &'a mut LabelledStore,
        sink: &'a dyn PublishSink,
        relabels: &'a RelabelMemo,
        tracking: bool,
    ) -> Jail<'a> {
        Jail {
            labels: initial_labels,
            privileges,
            privileged,
            store,
            sink,
            relabels,
            tracking,
        }
    }

    /// The ambient label set `$LABELS`.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// The I/O capability, available only to privileged units.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::IoDenied`] for jailed units.
    pub fn io(&self) -> Result<IoCapability, UnitError> {
        if self.privileged {
            Ok(IoCapability::new())
        } else {
            Err(UnitError::IoDenied)
        }
    }

    /// Reads a value from the unit's key-value store, folding the key's
    /// labels into `$LABELS` (§4.3: "when a value is read from the store,
    /// `$LABELS` is updated to reflect its confidentiality").
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.get_ref(key).map(str::to_string)
    }

    /// [`Jail::get`] without copying the value: `$LABELS` is tainted the
    /// same way.
    pub fn get_ref(&mut self, key: &str) -> Option<&str> {
        let (value, labels) = self.store.get_raw(key)?;
        if self.tracking {
            // Interned union: a no-op pointer compare when the key's labels
            // are already covered by `$LABELS`, the common steady state.
            self.labels = self.labels.union(labels);
        }
        Some(value)
    }

    /// Writes a value to the store labelled with `$LABELS` adjusted by
    /// `relabel` (checked like a publish). A key's existing value is
    /// overwritten in place.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if a removal lacks declassification or an
    /// integrity add lacks endorsement.
    pub fn set(
        &mut self,
        key: &str,
        value: impl AsRef<str>,
        relabel: Relabel,
    ) -> Result<(), UnitError> {
        let labels = self.output_labels(relabel)?;
        self.store.set_raw(key, value.as_ref(), labels);
        Ok(())
    }

    /// Publishes an event. The outgoing event carries `$LABELS` adjusted by
    /// `relabel`; removals require declassification privileges, integrity
    /// additions require endorsement.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] when a label adjustment is not permitted — in
    /// which case **nothing is published**.
    pub fn publish(&mut self, event: Event, relabel: Relabel) -> Result<(), UnitError> {
        let labels = self.output_labels(relabel)?;
        self.sink.deliver(LabelledEvent::new(event, labels));
        Ok(())
    }

    /// Publishes the latest value of `key`: the event `build` makes, which
    /// must be on `topic` (one built elsewhere fails as
    /// [`UnitError::BadEvent`]). The relabel is checked exactly like
    /// [`Jail::publish`], and the labels and trace are fixed, now. Within
    /// one activation the engine then keeps only the last of a run of
    /// publishes under `key` that share a topic and a label set, and runs
    /// only the survivor's `build`, at flush; the survivor flushes in its
    /// own place, after everything published before it. Publishes under
    /// other keys, and unkeyed ones, are never dropped. A `build` that
    /// fails or panics at flush is recorded as one violation and
    /// publishes nothing.
    ///
    /// # Errors
    ///
    /// As [`Jail::publish`]; a refused publish runs no `build` and
    /// supersedes nothing.
    pub fn publish_latest(
        &mut self,
        key: impl AsRef<str>,
        topic: &'static str,
        relabel: Relabel,
        build: impl FnOnce() -> Result<Event, UnitError> + 'static,
    ) -> Result<(), UnitError> {
        let labels = self.output_labels(relabel)?;
        let build = move || {
            let event = build()?;
            if event.topic() != topic {
                let stray = format!("built on {} for {topic}", event.topic());
                return Err(UnitError::BadEvent(stray));
            }
            Ok(event)
        };
        self.sink
            .deliver_latest(key.as_ref(), topic, labels, Box::new(build))
    }

    /// Computes output labels = (`$LABELS` − removals) ∪ additions under
    /// the relabel rule, each distinct one once per activation.
    fn output_labels(&self, relabel: Relabel) -> Result<LabelSet, UnitError> {
        if !self.tracking {
            return Ok(LabelSet::new());
        }
        if relabel == Relabel::keep() {
            return Ok(self.labels);
        }
        let input = self.labels.id();
        let mut memo = self.relabels.borrow_mut();
        if let Some((.., outcome)) = memo.iter().find(|(i, r, _)| *i == input && *r == relabel) {
            return outcome.clone();
        }
        let outcome = relabel
            .apply(self.labels, self.privileges, self.privileged)
            .map_err(UnitError::from);
        if memo.len() < RELABEL_MEMO_CAP {
            memo.push((input, relabel, outcome.clone()));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::{Label, Privilege};
    use safeweb_sync::Mutex;

    struct Capture(Mutex<Vec<LabelledEvent>>);

    impl PublishSink for Capture {
        fn deliver(&self, event: LabelledEvent) {
            self.0.lock().push(event);
        }
    }

    fn conf(p: &str) -> Label {
        Label::conf("e", p)
    }

    fn run_jail<R>(
        initial: &[Label],
        privileges: PrivilegeSet,
        privileged: bool,
        f: impl FnOnce(&mut Jail<'_>) -> R,
    ) -> (R, Vec<LabelledEvent>) {
        let mut store = LabelledStore::new();
        let capture = Capture(Mutex::new(Vec::new()));
        let memo = RelabelMemo::default();
        let r = {
            let mut jail = Jail::new(
                initial.iter().cloned().collect(),
                &privileges,
                privileged,
                &mut store,
                &capture,
                &memo,
                true,
            );
            f(&mut jail)
        };
        (r, capture.0.into_inner())
    }

    #[test]
    fn publish_attaches_ambient_labels() {
        let (_, events) = run_jail(&[conf("p/1")], PrivilegeSet::new(), false, |jail| {
            jail.publish(Event::new("/out").unwrap(), Relabel::keep())
                .unwrap();
        });
        assert_eq!(events.len(), 1);
        assert!(events[0].labels().contains(&conf("p/1")));
    }

    #[test]
    fn adding_conf_labels_is_free() {
        let (_, events) = run_jail(&[], PrivilegeSet::new(), false, |jail| {
            jail.publish(
                Event::new("/out").unwrap(),
                Relabel::keep().add(conf("more")),
            )
            .unwrap();
        });
        assert!(events[0].labels().contains(&conf("more")));
    }

    #[test]
    fn removal_requires_declassification() {
        let (res, events) = run_jail(&[conf("p/1")], PrivilegeSet::new(), false, |jail| {
            jail.publish(Event::new("/out").unwrap(), Relabel::keep().remove_all())
        });
        assert_eq!(res, Err(UnitError::DeclassificationDenied(conf("p/1"))));
        assert!(events.is_empty(), "denied publish must not emit anything");
    }

    #[test]
    fn removal_with_privilege_succeeds() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("p/1")));
        let (res, events) = run_jail(&[conf("p/1")], privs, false, |jail| {
            jail.publish(
                Event::new("/out").unwrap(),
                Relabel::keep().remove_all().add(conf("list")),
            )
        });
        assert!(res.is_ok());
        assert!(!events[0].labels().contains(&conf("p/1")));
        assert!(events[0].labels().contains(&conf("list")));
    }

    #[test]
    fn selective_removal() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("p/1")));
        let (res, events) = run_jail(&[conf("p/1"), conf("p/2")], privs, false, |jail| {
            jail.publish(
                Event::new("/out").unwrap(),
                Relabel::keep().remove(conf("p/1")),
            )
        });
        assert!(res.is_ok());
        assert!(!events[0].labels().contains(&conf("p/1")));
        assert!(events[0].labels().contains(&conf("p/2")));
    }

    #[test]
    fn privileged_unit_may_declassify_anything() {
        let (res, events) = run_jail(&[conf("p/1")], PrivilegeSet::new(), true, |jail| {
            jail.publish(Event::new("/out").unwrap(), Relabel::keep().remove_all())
        });
        assert!(res.is_ok());
        assert!(events[0].labels().is_empty());
    }

    #[test]
    fn io_capability_gated_on_privilege() {
        let (res, _) = run_jail(&[], PrivilegeSet::new(), false, |jail| jail.io());
        assert_eq!(res.unwrap_err(), UnitError::IoDenied);
        let (res, _) = run_jail(&[], PrivilegeSet::new(), true, |jail| jail.io());
        assert!(res.is_ok());
    }

    #[test]
    fn store_propagates_labels_through_state() {
        // Callback 1 stores under labels {p/1}; callback 2 reads it with
        // empty ambient labels and publishes — output must carry p/1.
        let mut store = LabelledStore::new();
        let capture = Capture(Mutex::new(Vec::new()));
        let memo = RelabelMemo::default();
        let privs = PrivilegeSet::new();
        {
            let mut jail = Jail::new(
                LabelSet::singleton(conf("p/1")),
                &privs,
                false,
                &mut store,
                &capture,
                &memo,
                true,
            );
            jail.set("list", "patient-1", Relabel::keep()).unwrap();
        }
        {
            let mut jail = Jail::new(
                LabelSet::new(),
                &privs,
                false,
                &mut store,
                &capture,
                &memo,
                true,
            );
            let v = jail.get("list").unwrap();
            assert_eq!(v, "patient-1");
            assert!(
                jail.labels().contains(&conf("p/1")),
                "read must taint $LABELS"
            );
            jail.publish(Event::new("/out").unwrap(), Relabel::keep())
                .unwrap();
        }
        let events = capture.0.into_inner();
        assert!(events[0].labels().contains(&conf("p/1")));
    }

    #[test]
    fn integrity_add_requires_endorsement() {
        let int = Label::int("e", "mdt");
        let (res, _) = run_jail(&[], PrivilegeSet::new(), false, |jail| {
            jail.publish(
                Event::new("/out").unwrap(),
                Relabel::keep().add(int.clone()),
            )
        });
        assert_eq!(res, Err(UnitError::EndorsementDenied(int.clone())));

        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::endorse(int.clone()));
        let (res, events) = run_jail(&[], privs, false, |jail| {
            jail.publish(
                Event::new("/out").unwrap(),
                Relabel::keep().add(int.clone()),
            )
        });
        assert!(res.is_ok());
        assert!(events[0].labels().contains(&int));
    }

    /// One activation's jails share a memo; a relabel's outcome is decided
    /// per input `$LABELS`, so a refusal is not hidden behind an earlier
    /// admission of the same relabel on other labels, nor the reverse.
    #[test]
    fn relabel_memo_is_keyed_by_the_input_labels() {
        let mut privs = PrivilegeSet::new();
        privs.grant(Privilege::declassify(conf("p/1")));
        let mut store = LabelledStore::new();
        let capture = Capture(Mutex::new(Vec::new()));
        let memo = RelabelMemo::default();
        let mut publish = |initial: &[Label]| {
            let mut jail = Jail::new(
                initial.iter().cloned().collect(),
                &privs,
                false,
                &mut store,
                &capture,
                &memo,
                true,
            );
            let relabel = Relabel::keep().remove_all().add(conf("list"));
            jail.publish(Event::new("/out").unwrap(), relabel)
        };
        for _ in 0..2 {
            assert_eq!(publish(&[conf("p/1")]), Ok(()));
            assert_eq!(
                publish(&[conf("p/2")]),
                Err(UnitError::DeclassificationDenied(conf("p/2")))
            );
            assert_eq!(publish(&[]), Ok(()));
        }
        let events = capture.0.into_inner();
        assert_eq!(events.len(), 4);
        assert!(events
            .iter()
            .all(|e| e.labels() == &LabelSet::singleton(conf("list"))));
    }

    #[test]
    fn set_overwrites_in_place_and_get_ref_taints() {
        let (labels, _) = run_jail(&[conf("p/1")], PrivilegeSet::new(), false, |jail| {
            jail.set("k", "a longer first value", Relabel::keep())
                .unwrap();
            jail.set("k", String::from("short"), Relabel::keep().add(conf("p/2")))
                .unwrap();
            assert_eq!(jail.get_ref("k"), Some("short"));
            *jail.labels()
        });
        assert!(labels.contains(&conf("p/2")), "get_ref taints $LABELS");
    }

    #[test]
    fn missing_key_reads_none() {
        let (res, _) = run_jail(&[], PrivilegeSet::new(), false, |jail| jail.get("nope"));
        assert!(res.is_none());
    }
}
