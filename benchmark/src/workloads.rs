//! The four workloads, as slices of a fixed number of operations. One
//! `Driver` holds the generator's sockets and streams for one rig; each
//! call to [`Driver::slice`] runs one slice and returns what it measured.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use safeweb_docstore::DocStore;
use safeweb_json::Value;
use safeweb_web::FrontendStats;

use crate::gen::{Read, ReadMix, Reads, Route, Update, Updates, CASES};
use crate::pacer::{wait_until, Pacer};
use crate::rig::Rig;
use crate::span::{Recorder, OP};
use crate::stats::percentile;
use crate::sys;
use crate::wire::{HttpConn, HttpReply, StompConn};

/// Measured slices per run; every timing metric is computed per slice
/// and the run reports the median of the slice values.
pub const SLICES: usize = 9;
/// Case updates the `ingest` generator keeps in flight: enough that the
/// pipeline, not the 10 ms replication tick, is what the closed loop
/// waits for (with 16, a window was through the pipeline in 3 ms and the
/// process sat idle until the tick).
pub const INGEST_WINDOW: usize = 64;
/// `mixed` offered load, fixed once (≈ 40 % of the 2-core reference
/// box), never calibrated per run.
pub const MIXED_READS_PER_S: f64 = 300.0;
pub const MIXED_WRITES_PER_S: f64 = 400.0;
/// How long the generator sleeps when a poll of the replica's changes
/// feed found nothing new.
const POLL_SLEEP: Duration = Duration::from_micros(500);
/// An update not visible after this long is a failed operation.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PageRender,
    SmallCached,
    Ingest,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PageRender,
        Workload::SmallCached,
        Workload::Ingest,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageRender => "page-render",
            Workload::SmallCached => "small-cached",
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn reads(self) -> Option<ReadMix> {
        match self {
            Workload::PageRender => Some(ReadMix::Pages),
            Workload::SmallCached => Some(ReadMix::Metrics),
            Workload::Mixed => Some(ReadMix::OnePageInFour),
            Workload::Ingest => None,
        }
    }

    pub fn writes(self) -> bool {
        matches!(self, Workload::Ingest | Workload::Mixed)
    }

    /// Operations per second of `--seconds`: the constant that turns the
    /// driver's run length into a fixed amount of work. Closed loops are
    /// sized so that a slice takes about `seconds / SLICES` on the
    /// reference box; `mixed` is its offered rate.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Workload::PageRender => 650.0,
            Workload::SmallCached => 1200.0,
            Workload::Ingest => 4000.0,
            Workload::Mixed => MIXED_READS_PER_S + MIXED_WRITES_PER_S,
        }
    }
}

/// The fixed work of one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSize {
    pub reads: usize,
    pub writes: usize,
}

impl SliceSize {
    /// The work of one of `slices` equal slices of a `seconds`-long run.
    pub fn of(workload: Workload, seconds: f64, slices: usize) -> SliceSize {
        let n = |rate: f64| ((rate * seconds / slices as f64).round() as usize).max(1);
        match workload {
            Workload::PageRender | Workload::SmallCached => SliceSize {
                reads: n(workload.ops_per_second()),
                writes: 0,
            },
            Workload::Ingest => SliceSize {
                reads: 0,
                writes: n(workload.ops_per_second()),
            },
            Workload::Mixed => SliceSize {
                reads: n(MIXED_READS_PER_S),
                writes: n(MIXED_WRITES_PER_S),
            },
        }
    }
}

/// What one slice measured.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// CPU seconds the hypervisor took from this machine during the slice.
    pub steal_s: f64,
    /// The workload's headline latency population, ms. `mixed`: page
    /// reads only, from their scheduled send time.
    pub latency_ms: Vec<f64>,
    /// `mixed`: scheduled send → update readable from the DMZ replica.
    pub visible_ms: Vec<f64>,
    /// `mixed`: how late the generator sent each operation.
    pub late_ms: Vec<f64>,
    /// `mixed`: updates sent but not yet visible when the schedule ended.
    pub backlog_end: u64,
    /// Traced slices: highest frontend outbox depth and scheduler queue
    /// depth sampled while operations were in flight.
    pub outbox_bytes_max: u64,
    pub sched_queued_max: u64,
}

impl Slice {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn throughput_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall_s
    }

    pub fn latency_p50_ms(&self) -> f64 {
        percentile(&mut self.latency_ms.clone(), 0.50)
    }

    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.completed().max(1) as f64
    }

    /// Cores' worth of time the hypervisor kept from the machine.
    pub fn steal_cores(&self) -> f64 {
        self.steal_s / self.wall_s
    }

    fn merge(&mut self, other: Slice) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.visible_ms.extend(other.visible_ms);
        self.late_ms.extend(other.late_ms);
        self.backlog_end += other.backlog_end;
        self.outbox_bytes_max = self.outbox_bytes_max.max(other.outbox_bytes_max);
        self.sched_queued_max = self.sched_queued_max.max(other.sched_queued_max);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Follows a store's changes feed and reports the `marker` of every
/// record document that changed.
pub struct Tail {
    store: DocStore,
    cursor: u64,
}

impl Tail {
    pub fn at_head(store: &DocStore) -> Tail {
        Tail {
            store: store.clone(),
            cursor: store.seq(),
        }
    }

    /// Calls `seen(marker)` for every record changed since the last
    /// poll; returns whether the feed moved at all.
    pub fn poll(&mut self, mut seen: impl FnMut(u64)) -> bool {
        let changes = self.store.changes_since(self.cursor);
        let Some(last) = changes.last() else {
            return false;
        };
        self.cursor = last.seq;
        for change in changes.iter().filter(|c| c.id.starts_with("record-")) {
            let marker = self
                .store
                .get(&change.id)
                .and_then(|doc| doc.body().get("marker").and_then(Value::as_i64));
            if let Some(marker) = marker {
                seen(marker as u64);
            }
        }
        true
    }
}

/// Whether a reply is what its route must return (the full row-by-row
/// oracle runs once per account after the measured slices).
pub fn reply_ok(route: Route, reply: &HttpReply<'_>) -> bool {
    reply.status == 200
        && match route {
            Route::Page => reply.body.len() > 4096 && reply.body.ends_with(b"</html>\n"),
            Route::Metrics => crate::wire::find(reply.body, b"\"mdt_metrics\"").is_some(),
        }
}

/// Cumulative phase counters of the served frontend; with one request in
/// flight, the difference across a request is that request's phases.
#[derive(Debug, Clone, Copy)]
struct Phases {
    fetch: u64,
    auth: u64,
    handler: u64,
    check: u64,
}

impl Phases {
    fn read(stats: &FrontendStats) -> Phases {
        Phases {
            fetch: stats.privilege_fetch_ns(),
            auth: stats.auth_ns(),
            handler: stats.handler_ns(),
            check: stats.label_check_ns(),
        }
    }

    /// The phases between `self` and `after`, in pipeline order.
    pub fn until(&self, after: &Phases) -> [(&'static str, u64); 4] {
        [
            ("web.privilege_fetch", after.fetch - self.fetch),
            ("web.auth", after.auth - self.auth),
            ("web.handler", after.handler - self.handler),
            ("web.label_check", after.check - self.check),
        ]
    }
}

/// Phases of one directly handled request (`layers` probes use this on
/// their own unserved frontend).
pub fn phases_of<T>(stats: &FrontendStats, f: impl FnOnce() -> T) -> (T, [(&'static str, u64); 4]) {
    let before = Phases::read(stats);
    let out = f();
    (out, before.until(&Phases::read(stats)))
}

struct PendingUpdate {
    case: usize,
    /// When latency starts: the send (closed loop) or the scheduled
    /// send (open loop).
    from: Instant,
    sent: Instant,
    in_app_db: Option<Instant>,
}

/// The generator side of one rig.
pub struct Driver<'r> {
    rig: &'r Rig,
    workload: Workload,
    http: Option<HttpConn>,
    stomp: Option<StompConn>,
    reads: Option<Reads>,
    updates: Updates,
    dmz_tail: Tail,
    app_tail: Tail,
    /// Last update acknowledged (seen in the DMZ replica) per case.
    pub acked: HashMap<usize, u64>,
    next_op: u64,
}

impl<'r> Driver<'r> {
    pub fn new(rig: &'r Rig, workload: Workload, seed: u64) -> Driver<'r> {
        let reads = workload.reads().map(|mix| Reads::new(seed, mix));
        let http = reads
            .as_ref()
            .map(|_| HttpConn::open(&rig.http_addr()).expect("connect to the frontend"));
        let stomp = workload.writes().then(|| {
            StompConn::connect(&rig.broker_addr(), "data_producer").expect("log in to the broker")
        });
        Driver {
            rig,
            workload,
            http,
            stomp,
            reads,
            updates: Updates::new(seed),
            dmz_tail: Tail::at_head(rig.dmz()),
            app_tail: Tail::at_head(rig.app_db()),
            acked: HashMap::new(),
            next_op: 0,
        }
    }

    fn make_updates(&mut self, n: usize) -> Vec<(Update, Vec<u8>)> {
        (0..n)
            .map(|_| {
                let u = self.updates.next();
                let bytes = u.bytes();
                (u, bytes)
            })
            .collect()
    }

    /// Part of the warm-up of `mixed`: updates every case once. A freshly
    /// built store holds each MDT's records side by side; updates replace
    /// them one by one, and a front page slows by a quarter until every
    /// record has moved. `mixed` reads its pages from the aged store, the
    /// one a deployment lives with; measured from a fresh store, its
    /// latency would climb through the run. (`ingest` reads no pages, and
    /// its first slice already rewrites every case.)
    pub fn age_store(&mut self) {
        if self.workload == Workload::Mixed {
            let round = self.make_updates(CASES);
            self.windowed_writes(&round, None);
        }
    }

    /// Runs one slice of fixed work. With a recorder, every operation
    /// also leaves its spans (a traced slice).
    pub fn slice(&mut self, size: SliceSize, mut trace: Option<&mut Recorder>) -> Slice {
        // Inputs are made before the clock starts.
        let updates = self.make_updates(size.writes);
        self.app_tail = Tail::at_head(self.rig.app_db());
        let (cpu0, steal0) = (sys::cpu_seconds(), sys::host_steal_seconds());
        let start = Instant::now();
        let mut slice = match self.workload {
            Workload::PageRender | Workload::SmallCached => {
                self.closed_reads(size.reads, trace.as_deref_mut())
            }
            Workload::Ingest => self.windowed_writes(&updates, trace.as_deref_mut()),
            Workload::Mixed => self.open_mixed(size, &updates, start, trace),
        };
        slice.wall_s = start.elapsed().as_secs_f64();
        slice.cpu_s = sys::cpu_seconds() - cpu0;
        slice.steal_s = sys::host_steal_seconds() - steal0;
        slice
    }

    fn closed_reads(&mut self, ops: usize, mut trace: Option<&mut Recorder>) -> Slice {
        let mut slice = Slice::default();
        let conn = self
            .http
            .as_mut()
            .expect("read workloads hold a connection");
        let reads = self.reads.as_mut().expect("read workloads hold a stream");
        for _ in 0..ops {
            let read = reads.next();
            self.next_op += 1;
            let now = Instant::now();
            one_read(
                self.rig,
                conn,
                &read,
                true,
                self.next_op,
                now,
                now,
                &mut slice,
                trace.as_deref_mut(),
            );
        }
        slice
    }

    fn windowed_writes(
        &mut self,
        updates: &[(Update, Vec<u8>)],
        mut trace: Option<&mut Recorder>,
    ) -> Slice {
        let mut slice = Slice::default();
        let stomp = self
            .stomp
            .as_mut()
            .expect("write workloads hold a connection");
        let mut pending: HashMap<u64, PendingUpdate> = HashMap::new();
        let mut sampler = QueueSampler::new();
        let mut next = 0;
        while next < updates.len() || !pending.is_empty() {
            while pending.len() < INGEST_WINDOW && next < updates.len() {
                let (update, bytes) = &updates[next];
                next += 1;
                slice.attempted += 1;
                let sent = Instant::now();
                if stomp.send(bytes).is_err() {
                    slice.failed += 1;
                    continue;
                }
                pending.insert(
                    update.marker,
                    PendingUpdate {
                        case: update.case,
                        from: sent,
                        sent,
                        in_app_db: None,
                    },
                );
            }
            let progressed = settle(
                &mut pending,
                &mut self.dmz_tail,
                trace.is_some().then_some(&mut self.app_tail),
                &mut self.acked,
                &mut self.next_op,
                &mut slice.latency_ms,
                trace.as_deref_mut(),
            );
            if trace.is_some() {
                sampler.sample(self.rig, &mut slice.sched_queued_max);
            }
            if !progressed {
                slice.failed += expire(&mut pending);
                std::thread::sleep(POLL_SLEEP);
            }
        }
        slice
    }

    fn open_mixed(
        &mut self,
        size: SliceSize,
        updates: &[(Update, Vec<u8>)],
        start: Instant,
        trace: Option<&mut Recorder>,
    ) -> Slice {
        let rig = self.rig;
        let conn = self
            .http
            .as_mut()
            .expect("mixed holds a frontend connection");
        let reads = self.reads.as_mut().expect("mixed holds a read stream");
        let stomp = self
            .stomp
            .as_mut()
            .expect("mixed holds a broker connection");
        let (dmz_tail, app_tail) = (&mut self.dmz_tail, &mut self.app_tail);
        let acked = &mut self.acked;
        // Operation ids are handed out per thread from disjoint ranges.
        let read_op0 = self.next_op;
        let mut write_op = read_op0 + size.reads as u64;
        self.next_op = write_op + size.writes as u64;
        let mut read_trace = trace.as_ref().map(|r| r.fork());
        let mut write_trace = trace.as_ref().map(|r| r.fork());

        let (read_side, write_side) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut slice = Slice::default();
                let pacer = Pacer::new(start, MIXED_READS_PER_S);
                for i in 0..size.reads {
                    let read = reads.next();
                    let due = pacer.due(i as u64);
                    let woke = wait_until(due, None);
                    slice.late_ms.push(ms(woke - due));
                    let headline = read.route == Route::Page;
                    one_read(
                        rig,
                        conn,
                        &read,
                        headline,
                        read_op0 + i as u64 + 1,
                        due,
                        woke,
                        &mut slice,
                        read_trace.as_mut(),
                    );
                }
                slice
            });
            let writer = s.spawn(|| {
                let mut slice = Slice::default();
                let pacer = Pacer::new(start, MIXED_WRITES_PER_S);
                let mut pending: HashMap<u64, PendingUpdate> = HashMap::new();
                let mut sampler = QueueSampler::new();
                let mut next = 0;
                while next < updates.len() || !pending.is_empty() {
                    if next < updates.len() {
                        let due = pacer.due(next as u64);
                        let woke = wait_until(due, Some(POLL_SLEEP));
                        if woke >= due {
                            let (update, bytes) = &updates[next];
                            next += 1;
                            slice.attempted += 1;
                            slice.late_ms.push(ms(woke - due));
                            if stomp.send(bytes).is_ok() {
                                pending.insert(
                                    update.marker,
                                    PendingUpdate {
                                        case: update.case,
                                        from: due,
                                        sent: woke,
                                        in_app_db: None,
                                    },
                                );
                            } else {
                                slice.failed += 1;
                            }
                            if next == updates.len() {
                                slice.backlog_end = pending.len() as u64;
                            }
                        }
                    } else {
                        std::thread::sleep(POLL_SLEEP);
                    }
                    let progressed = settle(
                        &mut pending,
                        dmz_tail,
                        write_trace.is_some().then_some(&mut *app_tail),
                        acked,
                        &mut write_op,
                        &mut slice.visible_ms,
                        write_trace.as_mut(),
                    );
                    if write_trace.is_some() {
                        sampler.sample(rig, &mut slice.sched_queued_max);
                    }
                    if !progressed {
                        slice.failed += expire(&mut pending);
                    }
                }
                slice
            });
            (
                reader.join().expect("reader thread"),
                writer.join().expect("writer thread"),
            )
        });
        if let Some(rec) = trace {
            rec.append(read_trace.expect("forked above"));
            rec.append(write_trace.expect("forked above"));
        }
        let mut slice = read_side;
        slice.merge(write_side);
        slice
    }
}

/// One HTTP operation: send, wait for the whole reply, check it. Latency
/// runs from `from` (the scheduled time in an open loop) and enters
/// `latency_ms` when the read is part of the workload's `headline`.
#[allow(clippy::too_many_arguments)]
fn one_read(
    rig: &Rig,
    conn: &mut HttpConn,
    read: &Read<'_>,
    headline: bool,
    op: u64,
    from: Instant,
    sent: Instant,
    slice: &mut Slice,
    trace: Option<&mut Recorder>,
) {
    slice.attempted += 1;
    let before = trace.as_ref().map(|_| Phases::read(&rig.stats));
    let ok = conn.send(read.bytes).is_ok() && {
        if trace.is_some() {
            slice.outbox_bytes_max = slice.outbox_bytes_max.max(rig.http.queued_bytes() as u64);
        }
        conn.recv().is_ok_and(|reply| reply_ok(read.route, &reply))
    };
    let done = Instant::now();
    if !ok {
        slice.failed += 1;
        return;
    }
    if headline {
        slice.latency_ms.push(ms(done - from));
    }
    if let (Some(rec), Some(before)) = (trace, before) {
        let root = match read.route {
            Route::Page => OP_PAGE,
            Route::Metrics => OP_METRICS,
        };
        rec.push(op, root, "", from, done);
        rec.push_phases(
            op,
            root,
            rec.ns(sent),
            &before.until(&Phases::read(&rig.stats)),
        );
    }
}

/// Root span names: every operation is an [`OP`]; reads are told apart
/// by route so that a mixed stream's pages can be summed on their own.
pub const OP_PAGE: &str = "op.page";
pub const OP_METRICS: &str = "op.metrics";
pub const OP_CASE: &str = OP;

/// Samples the scheduler's queue depth from the deployment's registry,
/// at most every few milliseconds (a snapshot walks every metric).
struct QueueSampler {
    last: Instant,
}

impl QueueSampler {
    const EVERY: Duration = Duration::from_millis(5);

    fn new() -> QueueSampler {
        QueueSampler {
            last: Instant::now(),
        }
    }

    fn sample(&mut self, rig: &Rig, max: &mut u64) {
        if self.last.elapsed() < QueueSampler::EVERY {
            return;
        }
        self.last = Instant::now();
        let queued = rig
            .portal
            .deployment()
            .metrics()
            .snapshot()
            .get("sched.queued_messages")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        *max = (*max).max(queued as u64);
    }
}

/// Polls the replica (and, traced, the Intranet store) and completes
/// every pending update whose marker became readable.
fn settle(
    pending: &mut HashMap<u64, PendingUpdate>,
    dmz_tail: &mut Tail,
    app_tail: Option<&mut Tail>,
    acked: &mut HashMap<usize, u64>,
    next_op: &mut u64,
    latency_ms: &mut Vec<f64>,
    mut trace: Option<&mut Recorder>,
) -> bool {
    if let Some(app_tail) = app_tail {
        let mut seen = Vec::new();
        app_tail.poll(|marker| seen.push(marker));
        let now = Instant::now();
        for marker in seen {
            if let Some(p) = pending.get_mut(&marker) {
                p.in_app_db.get_or_insert(now);
            }
        }
    }
    let mut visible = Vec::new();
    let moved = dmz_tail.poll(|marker| visible.push(marker));
    let now = Instant::now();
    for marker in visible {
        let Some(p) = pending.remove(&marker) else {
            continue;
        };
        latency_ms.push(ms(now - p.from));
        acked.insert(p.case, marker);
        *next_op += 1;
        if let Some(rec) = trace.as_deref_mut() {
            let in_app_db = p.in_app_db.unwrap_or(now);
            rec.push(*next_op, OP_CASE, "", p.from, now);
            rec.push(*next_op, "engine.pipeline", OP_CASE, p.sent, in_app_db);
            rec.push(*next_op, "docstore.replica_lag", OP_CASE, in_app_db, now);
        }
    }
    moved
}

/// Drops updates that have been pending longer than [`OP_TIMEOUT`];
/// returns how many (each is a failed operation).
fn expire(pending: &mut HashMap<u64, PendingUpdate>) -> u64 {
    let before = pending.len();
    pending.retain(|_, p| p.sent.elapsed() < OP_TIMEOUT);
    (before - pending.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_sizes_are_fixed_by_seconds_alone() {
        let s = SliceSize::of(Workload::PageRender, 18.0, SLICES);
        assert_eq!(s, SliceSize::of(Workload::PageRender, 18.0, SLICES));
        assert_eq!((s.reads, s.writes), (1300, 0));
        let m = SliceSize::of(Workload::Mixed, 18.0, SLICES);
        assert_eq!((m.reads, m.writes), (600, 800));
        assert_eq!(SliceSize::of(Workload::Ingest, 0.001, SLICES).writes, 1);
    }

    #[test]
    fn slice_metrics_are_per_completed_operation() {
        let slice = Slice {
            attempted: 10,
            failed: 2,
            wall_s: 4.0,
            cpu_s: 0.4,
            steal_s: 0.2,
            latency_ms: vec![5.0, 1.0, 3.0],
            ..Slice::default()
        };
        assert_eq!(slice.completed(), 8);
        assert_eq!(slice.throughput_per_s(), 2.0);
        assert_eq!(slice.cpu_ms_per_op(), 50.0);
        assert_eq!(slice.latency_p50_ms(), 3.0);
        assert_eq!(slice.steal_cores(), 0.05);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
