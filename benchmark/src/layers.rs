//! Layer probes for the traced run: after the slices, the workload's own
//! operations are replayed one at a time through each layer's public
//! functions, timed from outside. A workload with no HTTP operations
//! records nothing for the HTTP layers, and the same for STOMP.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use safeweb_broker::wire::frame_to_event;
use safeweb_docstore::{DocStore, Replicator, WalSync};
use safeweb_http::{HttpServer, Request, RequestParser, Response};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet, Privilege};
use safeweb_mdt::labels::{mdt_label, mdt_user_privileges};
use safeweb_obs::MetricsRegistry;
use safeweb_stomp::codec::{encode, Decoder};

use crate::gen::{mdt_name, ReadMix, Reads, Route, Updates, MDTS};
use crate::rig::{Rig, ScratchDir};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use crate::wire::HttpConn;
use crate::workloads::{phases_of, Tail, Workload};

/// Operations replayed per probe.
const PROBE_OPS: usize = 240;

/// What the probes measured; every field is 0 where the workload has no
/// operation of that kind.
#[derive(Debug, Default)]
pub struct Probes {
    pub http_parse_us: f64,
    pub http_wire_us: f64,
    pub web_handle_us: f64,
    /// `web.handle` self time: what `handle` spends outside its phases.
    pub web_handle_self_us: f64,
    pub view_query_us: f64,
    pub view_docs: f64,
    pub flows_to_cold_us: f64,
    pub flows_to_memo_us: f64,
    pub stomp_encode_us: f64,
    pub stomp_decode_us: f64,
    pub json_parse_us: f64,
    pub json_serialize_us: f64,
    pub publish_us_p50: f64,
    pub publish_us_p99: f64,
    pub wal_bytes_per_case: f64,
    pub replicate_us_per_doc: f64,
    pub wal_fsync_us: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs every probe that applies to `workload`.
pub fn probe(rig: &Rig, workload: Workload, seed: u64, rec: &mut Recorder) -> Probes {
    let mut probes = Probes::default();
    // A different stream from the slices', so the probes do not replay
    // the very requests whose rendered pages are still cached.
    let probe_seed = seed ^ 0x7072_6f62;
    if let Some(mix) = workload.reads() {
        // `mixed` is probed on its headline operation, the front page.
        let mix = if workload == Workload::Mixed {
            ReadMix::Pages
        } else {
            mix
        };
        http_probes(rig, Reads::new(probe_seed, mix), rec, &mut probes);
    }
    label_probes(&mut probes);
    if workload.writes() {
        stomp_probes(rig, Updates::new(probe_seed), &mut probes);
        store_probes(&mut probes);
    }
    probes
}

/// HTTP operations through `RequestParser`, `SafeWebApp::handle` called
/// directly, a same-size canned response over loopback (the wire and
/// reactor cost with no application behind it), and the view query a
/// front page makes.
fn http_probes(rig: &Rig, mut reads: Reads, rec: &mut Recorder, probes: &mut Probes) {
    let app = rig.direct_frontend();
    let stats = app.stats();
    let canned_len = Arc::new(AtomicUsize::new(0));
    let canned_type = Arc::new(AtomicUsize::new(0));
    let (len, kind) = (Arc::clone(&canned_len), Arc::clone(&canned_type));
    let mut canned = HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(move |_request: Request| {
            let body = "x".repeat(len.load(Ordering::Relaxed));
            if kind.load(Ordering::Relaxed) == 0 {
                Response::html(body)
            } else {
                Response::json(body)
            }
        }),
    )
    .expect("bind the canned-response server");
    let mut real = HttpConn::open(&rig.http_addr()).expect("connect to the frontend");
    let mut wire = HttpConn::open(&canned.addr().to_string()).expect("connect to canned server");

    let (mut parse, mut handle, mut wire_us) = (vec![], vec![], vec![]);
    let (mut query, mut docs) = (vec![], vec![]);
    for i in 0..PROBE_OPS {
        let op = u64::MAX - i as u64;
        let read = reads.next();

        let t0 = Instant::now();
        let mut parser = RequestParser::new();
        parser.feed(read.bytes);
        let request = parser
            .next_request()
            .ok()
            .flatten()
            .expect("generated requests parse");
        let t1 = Instant::now();
        parse.push(us(t1 - t0));
        rec.push(op, "http.parse", "", t0, t1);

        let t0 = Instant::now();
        let (response, phases) = phases_of(&stats, || app.handle(&request));
        let t1 = Instant::now();
        assert_eq!(
            response.status(),
            200,
            "direct handle of a generated request"
        );
        handle.push(us(t1 - t0));
        rec.push(op, "web.handle", "", t0, t1);
        rec.push_phases(op, "web.handle", rec.ns(t0), &phases);

        // The size the served frontend really returns for this request.
        let body_len = real.request(read.bytes).map_or(0, |r| r.body.len());
        canned_len.store(body_len, Ordering::Relaxed);
        canned_type.store(usize::from(read.route == Route::Metrics), Ordering::Relaxed);
        let t0 = Instant::now();
        let echoed = wire.request(read.bytes).map_or(0, |r| r.body.len());
        let t1 = Instant::now();
        assert_eq!(echoed, body_len, "canned response has the real size");
        wire_us.push(us(t1 - t0));
        rec.push(op, "http.wire", "", t0, t1);

        if read.route == Route::Page {
            let key = Value::from(mdt_name(read.mdt));
            let t0 = Instant::now();
            let found = rig.dmz().query_view("by_mid", &key).unwrap_or_default();
            let t1 = Instant::now();
            query.push(us(t1 - t0));
            docs.push(found.len() as f64);
            rec.push(op, "docstore.view_query", "", t0, t1);
        }
    }
    canned.shutdown();
    probes.http_parse_us = percentile(&mut parse, 0.5);
    probes.web_handle_us = percentile(&mut handle, 0.5);
    probes.web_handle_self_us = percentile(&mut rec.self_times_us("web.handle"), 0.5);
    probes.http_wire_us = percentile(&mut wire_us, 0.5);
    probes.view_query_us = percentile(&mut query, 0.5);
    probes.view_docs = median(&docs);
}

/// `LabelSet::flows_to` on a pair the memo has never seen (a clearance
/// set extended by a fresh dummy privilege interns to a new id) and on
/// the same pair again.
fn label_probes(probes: &mut Probes) {
    let (mut cold, mut memo) = (vec![], vec![]);
    for i in 0..PROBE_OPS {
        let name = mdt_name(i % MDTS);
        let labels = LabelSet::singleton(mdt_label(&name));
        let mut clearance = mdt_user_privileges(&name, 0);
        clearance.grant(Privilege::clearance(Label::conf(
            "bench.invalid",
            &format!("probe/{}/{i}", std::process::id()),
        )));
        let t0 = Instant::now();
        let first = labels.flows_to(&clearance);
        let t1 = Instant::now();
        let again = labels.flows_to(&clearance);
        let t2 = Instant::now();
        assert!(first && again, "an MDT's label flows to its own clearance");
        cold.push(us(t1 - t0));
        memo.push(us(t2 - t1));
    }
    probes.flows_to_cold_us = percentile(&mut cold, 0.5);
    probes.flows_to_memo_us = percentile(&mut memo, 0.5);
}

/// STOMP operations through the codec and the JSON layer, then published
/// one at a time straight into the deployment's broker.
fn stomp_probes(rig: &Rig, mut updates: Updates, probes: &mut Probes) {
    let (mut enc, mut dec, mut parse, mut ser, mut publish) =
        (vec![], vec![], vec![], vec![], vec![]);
    let broker = rig.portal.deployment().broker();
    let mut tail = Tail::at_head(rig.dmz());
    let mut wal_bytes = vec![];
    // Markers far above any the slices used, so the tail cannot confuse
    // a probe's update with a slice's.
    for i in 0..PROBE_OPS {
        let mut update = updates.next();
        let marker = (1u64 << 40) + i as u64;
        let body = format!("{{\"stage\":\"II\",\"diagnosed\":2005,\"marker\":{marker}}}");
        update.frame.set_body(body.clone());

        let t0 = Instant::now();
        let bytes = encode(&update.frame);
        let t1 = Instant::now();
        let mut decoder = Decoder::new();
        decoder.feed(&bytes);
        let frame = decoder
            .next_frame()
            .ok()
            .flatten()
            .expect("generated frames decode");
        let t2 = Instant::now();
        enc.push(us(t1 - t0));
        dec.push(us(t2 - t1));

        // What the aggregator does with a case: parse the stored record,
        // fold the payload in, serialise it again.
        let stored = rig
            .dmz()
            .get(&update.doc_id())
            .map_or_else(|| "{}".to_string(), |d| d.body().to_json());
        let t0 = Instant::now();
        let record = Value::parse(&stored).expect("stored records are JSON");
        let t1 = Instant::now();
        let text = record.to_json();
        let t2 = Instant::now();
        std::hint::black_box(text);
        parse.push(us(t1 - t0));
        ser.push(us(t2 - t1));

        let event = frame_to_event(&frame).expect("generated frames are events");
        let wal0 = rig.app_db().wal_len().unwrap_or(0);
        let t0 = Instant::now();
        broker.publish(&event);
        publish.push(us(t0.elapsed()));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut visible = false;
        while !visible && Instant::now() < deadline {
            tail.poll(|m| visible |= m == marker);
            if !visible {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        // One case update is three puts (record, MDT metrics, regional
        // metrics); a snapshot in between rotates the log and shrinks it.
        if let Some(grown) = rig.app_db().wal_len().unwrap_or(0).checked_sub(wal0) {
            wal_bytes.push(grown as f64);
        }
    }
    probes.stomp_encode_us = percentile(&mut enc, 0.5);
    probes.stomp_decode_us = percentile(&mut dec, 0.5);
    probes.json_parse_us = percentile(&mut parse, 0.5);
    probes.json_serialize_us = percentile(&mut ser, 0.5);
    probes.publish_us_p50 = percentile(&mut publish, 0.5);
    probes.publish_us_p99 = percentile(&mut publish, 0.99);
    probes.wal_bytes_per_case = median(&wal_bytes);
}

/// `Replicator::run_once` on a private durable pair like the
/// deployment's, and the fsync a `WalSync::Always` put pays on a private
/// durable store (this sandbox's disk, reported for the record only).
fn store_probes(probes: &mut Probes) {
    let doc =
        |i: usize| jobject! {"case_id" => i.to_string(), "mdt_id" => "mdt-0-0-0", "stage" => "II"};
    let labels = LabelSet::singleton(mdt_label("mdt-0-0-0"));
    let dir = ScratchDir::new("probe");
    let open = |name: &str| DocStore::open(dir.0.join(name)).expect("open private durable store");

    let (source, target) = (open("source"), open("replica"));
    let mut replicator = Replicator::new(source.clone(), target);
    let mut per_doc = vec![];
    for round in 0..8 {
        for i in 0..PROBE_OPS {
            let id = format!("record-{i}");
            let rev = source.get(&id).map(|d| d.rev().clone());
            source
                .put(&id, doc(i + round), labels, rev.as_ref())
                .expect("private store accepts puts");
        }
        let t0 = Instant::now();
        let report = replicator.run_once();
        per_doc.push(us(t0.elapsed()) / report.docs_written.max(1) as f64);
    }
    probes.replicate_us_per_doc = median(&per_doc);

    let registry = MetricsRegistry::new();
    let store = open("always");
    store.attach_metrics(&registry, "probe");
    store.set_wal_sync(WalSync::Always);
    for i in 0..32 {
        store
            .put(&format!("record-{i}"), doc(i), labels, None)
            .expect("durable put");
    }
    let fsync = registry.histogram("probe.wal_fsync_ns");
    probes.wal_fsync_us = fsync.sum() as f64 / 1e3 / fsync.count().max(1) as f64;
}
