//! The intern-flood attack family: STOMP publishers that name a label set
//! the process has never seen in every `SEND`. The label intern table
//! never evicts (an interned set is the identity of every event carrying
//! it), so before the wire edge capped it each such frame leaked one
//! table entry for the life of the broker. Now one connection may intern
//! at most [`CONN_INTERN_BUDGET`](safeweb_core::broker::CONN_INTERN_BUDGET)
//! novel sets, past which its novel sets get an `ERROR` frame, and every
//! connection's novel sets are refused once the table nears
//! [`WIRE_INTERN_CAP`]; known sets — every honest publisher's — still
//! resolve.
//!
//! The flood mixes one- to three-label sets of confidentiality and
//! integrity labels, so a refused set may be one whose two kind
//! projections would also have been novel, and spreads its frames over
//! a given number of connections. Between flood frames an honest
//! publisher sends the victim MDT's (already interned) label set, and an
//! in-process subscriber with clearance for it must receive every one.
//! After the flood a fresh connection names one more novel set, which
//! is admitted and delivered unless the table is full.

use std::time::Duration;

use safeweb_core::broker::wire::{LABELS_HEADER, WIRE_INTERN_CAP};
use safeweb_core::broker::BrokerServer;
use safeweb_core::labels::{LabelSet, Privilege, PrivilegeKind, PrivilegeSet};
use safeweb_mdt::labels::mdt_label;
use safeweb_stomp::{Command, Frame, TcpTransport};

use crate::rig::AttackRig;

/// Topic the flood publishes to; nobody subscribes to it.
const FLOOD_TOPIC: &str = "/flood/spray";
/// Topic of the honest publisher.
const HONEST_TOPIC: &str = "/flood/honest";
/// Topic of the fresh connection's novel set after the flood.
const FRESH_TOPIC: &str = "/flood/fresh";
/// One honest publish per this many flood frames.
const HONEST_EVERY: usize = 64;

/// What one flood observed.
#[derive(Debug, Clone)]
pub struct FloodReport {
    /// The seed the label sequence derived from.
    pub seed: u64,
    /// Flood frames sent.
    pub attempts: usize,
    /// Connections the flood frames were spread over.
    pub connections: usize,
    /// Flood frames the broker accepted (answered with a `RECEIPT`).
    pub admitted: usize,
    /// Flood frames refused with an intern-table-full `ERROR`.
    pub refused: usize,
    /// Flood frames refused because their connection had spent its
    /// budget of novel sets.
    pub budget_refused: usize,
    /// Whether a fresh connection's novel set, sent after the flood, was
    /// admitted and delivered.
    pub fresh_delivered: bool,
    /// Label sets interned in the process after the flood.
    pub interned_after: usize,
    /// Honest publishes sent.
    pub honest_sent: usize,
    /// Honest publishes the broker accepted and the subscriber received.
    pub honest_delivered: usize,
    /// Frames answered with anything other than a receipt or the
    /// intern-table refusal, up to three.
    pub unexpected: Vec<String>,
}

impl FloodReport {
    fn note_unexpected(&mut self, what: String) {
        if self.unexpected.len() < 3 {
            self.unexpected.push(what);
        }
    }

    /// Panics unless the flood was refused at the cap and the honest
    /// publisher was unaffected, printing the reproduction seed.
    ///
    /// # Panics
    ///
    /// When the table outgrew the cap, nothing was refused, a frame got an
    /// unexpected answer, or an honest publish was lost.
    pub fn assert_bounded(&self) {
        let seed = self.seed;
        assert!(
            self.interned_after <= WIRE_INTERN_CAP,
            "the flood grew the intern table to {} sets, past the cap of {WIRE_INTERN_CAP} — \
             reproduce with SAFEWEB_ATTACK_SEED={seed}",
            self.interned_after
        );
        assert!(
            self.refused + self.budget_refused > 0,
            "no flood frame was refused — reproduce with SAFEWEB_ATTACK_SEED={seed}"
        );
        assert!(
            self.unexpected.is_empty(),
            "unexpected answers {:?} — reproduce with SAFEWEB_ATTACK_SEED={seed}",
            self.unexpected
        );
        assert_eq!(
            self.honest_delivered, self.honest_sent,
            "honest publishes lost during the flood — reproduce with SAFEWEB_ATTACK_SEED={seed}"
        );
    }
}

/// SplitMix64, so a flood is named by its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `i`-th flood label set on the wire: one to three labels, each of
/// either kind, every one named uniquely by `(seed, i, position)`.
fn flood_labels(rng: &mut Rng, seed: u64, i: usize) -> String {
    let count = 1 + rng.next() % 3;
    (0..count)
        .map(|k| {
            let kind = if rng.next().is_multiple_of(4) {
                "int"
            } else {
                "conf"
            };
            format!("label:{kind}:flood.example/{seed:x}/{i}/{k}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Sends `frame` with a receipt request: `Ok` when the receipt comes
/// back, the `ERROR` frame's message (or what went wrong) otherwise.
fn send_receipted(raw: &mut TcpTransport, frame: Frame) -> Result<(), String> {
    raw.send_frame(&frame.with_header("receipt", "r"))
        .map_err(|e| format!("send failed: {e}"))?;
    match raw.recv_frame() {
        Ok(Some(answer)) if answer.command() == Command::Receipt => Ok(()),
        Ok(Some(answer)) => Err(answer.header("message").unwrap_or("").to_string()),
        Ok(None) => Err("connection closed".to_string()),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// A STOMP connection to `server` logged in as `login`.
fn connect(server: &BrokerServer, login: &str) -> TcpTransport {
    let mut raw = TcpTransport::connect(&server.addr().to_string()).expect("connect to broker");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    raw.send_frame(&Frame::new(Command::Connect).with_header("login", login))
        .expect("send CONNECT");
    let connected = raw.recv_frame().expect("read CONNECTED");
    assert_eq!(connected.map(|f| f.command()), Some(Command::Connected));
    raw
}

/// Floods the rig's broker over STOMP with `attempts` frames, each naming
/// a novel label set, spread in even runs over `connections` attacker
/// connections and interleaved with honest publishes of a known set;
/// then probes with one fresh connection's novel set.
pub fn run_intern_flood(
    rig: &AttackRig,
    attempts: usize,
    connections: usize,
    seed: u64,
) -> FloodReport {
    let deployment = rig.portal().deployment();
    let mut server = BrokerServer::bind(
        "127.0.0.1:0",
        deployment.broker().clone(),
        deployment.policy().clone(),
    )
    .expect("bind the STOMP broker on loopback");
    let honest_label = mdt_label(rig.victim());
    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::clearance(honest_label.clone()));
    let observed =
        deployment
            .broker()
            .subscribe("flood-observer", "1", HONEST_TOPIC, None, clearance);
    let honest_wire = LabelSet::singleton(honest_label).to_wire();

    let per_connection = attempts.div_ceil(connections.max(1));
    let mut attacker = connect(&server, "flood_attacker");
    let mut honest = connect(&server, "flood_honest");
    let mut rng = Rng(seed);
    let mut report = FloodReport {
        seed,
        attempts,
        connections,
        admitted: 0,
        refused: 0,
        budget_refused: 0,
        fresh_delivered: false,
        interned_after: 0,
        honest_sent: 0,
        honest_delivered: 0,
        unexpected: Vec::new(),
    };
    for i in 0..attempts {
        if i > 0 && i.is_multiple_of(per_connection) {
            attacker = connect(&server, "flood_attacker");
        }
        let labels = flood_labels(&mut rng, seed, i);
        let frame = Frame::new(Command::Send)
            .with_header("destination", FLOOD_TOPIC)
            .with_header(LABELS_HEADER, labels);
        match send_receipted(&mut attacker, frame) {
            Ok(()) => report.admitted += 1,
            Err(message) if message.contains("intern table full") => report.refused += 1,
            Err(message) if message.contains("connection budget spent") => {
                report.budget_refused += 1;
            }
            Err(message) => report.note_unexpected(format!("flood {i}: {message}")),
        }
        if i.is_multiple_of(HONEST_EVERY) || i + 1 == attempts {
            report.honest_sent += 1;
            let frame = Frame::new(Command::Send)
                .with_header("destination", HONEST_TOPIC)
                .with_header(LABELS_HEADER, &honest_wire);
            let sent = send_receipted(&mut honest, frame);
            let seen = observed.recv_timeout(Duration::from_secs(10)).is_ok();
            match sent {
                Ok(()) if seen => report.honest_delivered += 1,
                Ok(()) => report.note_unexpected(format!("honest {i}: not delivered")),
                Err(message) => report.note_unexpected(format!("honest {i}: {message}")),
            }
        }
    }
    report.interned_after = LabelSet::interned_count();
    probe_fresh_connection(&server, seed, &mut report);
    server.shutdown();
    report
}

/// Sends one novel confidentiality set from a fresh connection to a
/// subscriber cleared for every flood label, recording whether it was
/// admitted and delivered.
fn probe_fresh_connection(server: &BrokerServer, seed: u64, report: &mut FloodReport) {
    let mut clearance = PrivilegeSet::new();
    clearance.grant(Privilege::new(
        PrivilegeKind::Clearance,
        "label:conf:flood.example/*"
            .parse()
            .expect("a valid label pattern"),
    ));
    let observed =
        server
            .broker()
            .subscribe("flood-fresh-observer", "1", FRESH_TOPIC, None, clearance);
    let frame = Frame::new(Command::Send)
        .with_header("destination", FRESH_TOPIC)
        .with_header(
            LABELS_HEADER,
            format!("label:conf:flood.example/{seed:x}/fresh"),
        );
    match send_receipted(&mut connect(server, "flood_fresh"), frame) {
        Ok(()) => {
            report.fresh_delivered = observed.recv_timeout(Duration::from_secs(10)).is_ok();
            if !report.fresh_delivered {
                report.note_unexpected("fresh: not delivered".to_string());
            }
        }
        Err(message) if message.contains("intern table full") => {}
        Err(message) => report.note_unexpected(format!("fresh: {message}")),
    }
    server.broker().unsubscribe_all("flood-fresh-observer");
}
