//! **E9 — backend document-store scaling** (beyond the paper).
//!
//! The ROADMAP drives the portal benches into the application database:
//! this bench isolates the three docstore mechanisms that keep the
//! backend flat as the synthetic registry grows 10×.
//!
//! * **View queries**: the incrementally indexed `query_view` versus the
//!   seed's linear scan over every document — per-MDT record listings
//!   must cost the same at 2 000 and at 20 000 documents.
//! * **Prefix listings**: `scan_prefix` range queries versus a
//!   `starts_with` scan for a fixed id family.
//! * **Changes feed**: sustained writes with auto-compaction keep the
//!   feed (and therefore replication scans and memory) bounded; the
//!   deduplicated replicator writes each document once per batch however
//!   many superseded revisions the feed holds.
//! * **Durable mode**: the WAL tax on the put path (append + frame +
//!   checksum per write) — into an empty store with snapshots off, and
//!   into a store already holding 10 000 documents with the automatic
//!   snapshot and feed compaction running — the cost of a `get`, and the
//!   snapshot-then-replay recovery cost of [`DocStore::open`].
//!
//! `SAFEWEB_BENCH_SMOKE=1` (CI) shrinks the fixed workloads ~10× on top
//! of the criterion shim's sample caps; `SAFEWEB_BENCH_JSON` records the
//! medians that `bench_gate` compares against
//! `crates/bench/baselines/docstore.json`.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use safeweb_docstore::{DocStore, Document, Replicator};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet};

/// Records per MDT — the page size the portal renders; constant across
/// scales, as in the paper's front page.
const RECORDS_PER_MDT: usize = 100;
/// Base number of MDTs (the 10× configuration holds ten times as many).
const BASE_MDTS: usize = 20;

/// Builds a store shaped like the portal's application database:
/// `record-*` documents labelled and bucketed by `mdt_id`, a `metrics-*`
/// document per MDT, and a small fixed `regional-*` family.
fn portal_shaped_store(mdts: usize) -> DocStore {
    let store = DocStore::new("bench-app");
    store.create_view("by_mid", "mdt_id");
    for m in 0..mdts {
        let mdt = format!("mdt-{m}");
        for r in 0..RECORDS_PER_MDT {
            let id = format!("record-{m:04}-{r:04}");
            store
                .put(
                    &id,
                    jobject! {"mdt_id" => mdt.as_str(), "case_id" => r as i64},
                    LabelSet::singleton(Label::conf("e", &format!("mdt/{mdt}"))),
                    None,
                )
                .unwrap();
        }
        store
            .put(
                &format!("metrics-{mdt}"),
                jobject! {"mdt_id" => mdt.as_str(), "cases" => RECORDS_PER_MDT as i64},
                LabelSet::new(),
                None,
            )
            .unwrap();
    }
    for region in 0..5 {
        store
            .put(
                &format!("regional-{region}"),
                jobject! {"region" => region as i64},
                LabelSet::new(),
                None,
            )
            .unwrap();
    }
    store
}

/// The seed's `query_view`: filter every document on body-field equality.
fn linear_view_scan(store: &DocStore, field: &str, key: &Value) -> Vec<Document> {
    store.scan(|d| d.body().get(field) == Some(key))
}

fn time_per_call(mut f: impl FnMut() -> usize, calls: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn bench_docstore(c: &mut Criterion) {
    let mut group = c.benchmark_group("docstore_view_query");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));

    let mut summary: Vec<(usize, f64, f64, f64)> = Vec::new();
    for scale in [1usize, 10] {
        let mdts = BASE_MDTS * scale;
        let store = portal_shaped_store(mdts);
        // Query a bucket in the middle of the keyspace.
        let key = Value::from(format!("mdt-{}", mdts / 2));

        group.bench_function(format!("indexed/{}x", scale), |b| {
            b.iter(|| store.query_view("by_mid", &key).unwrap().len());
        });
        group.bench_function(format!("scan/{}x", scale), |b| {
            b.iter(|| linear_view_scan(&store, "mdt_id", &key).len());
        });

        let indexed_us = time_per_call(|| store.query_view("by_mid", &key).unwrap().len(), 200);
        let scan_us = time_per_call(|| linear_view_scan(&store, "mdt_id", &key).len(), 50);
        let prefix_us = time_per_call(|| store.scan_prefix("regional-").len(), 200);
        summary.push((scale, indexed_us, scan_us, prefix_us));
    }
    group.finish();

    eprintln!("\n=== E9: document-store scaling (registry grown 10x) ===");
    for (scale, indexed_us, scan_us, prefix_us) in &summary {
        eprintln!(
            "  {:>2}x docs ({} records): indexed view {:>8.1} us | linear scan {:>8.1} us | regional- prefix {:>6.1} us",
            scale,
            BASE_MDTS * scale * RECORDS_PER_MDT,
            indexed_us,
            scan_us,
            prefix_us,
        );
    }
    if let [(_, i1, s1, p1), (_, i10, s10, p10)] = summary.as_slice() {
        eprintln!(
            "  growth 1x -> 10x: indexed view {:.1}x | linear scan {:.1}x | prefix {:.1}x  (flat ~= 1.0)",
            i10 / i1,
            s10 / s1,
            p10 / p1
        );
    }

    // --- Changes feed: bounded under sustained writes ------------------
    let updates_per_doc: i64 = if criterion::smoke_run() { 200 } else { 2_000 };
    let bounded = DocStore::new("bounded");
    let unbounded = DocStore::new("unbounded");
    unbounded.set_changes_retention(0); // the seed's behaviour
    for store in [&bounded, &unbounded] {
        for m in 0..BASE_MDTS {
            let id = format!("metrics-{m}");
            let mut rev = None;
            for v in 0..updates_per_doc {
                rev = Some(
                    store
                        .put(&id, jobject! {"v" => v}, LabelSet::new(), rev.as_ref())
                        .unwrap(),
                );
            }
        }
    }
    eprintln!(
        "\n  sustained writes ({} updates over {} docs):",
        updates_per_doc as usize * BASE_MDTS,
        BASE_MDTS
    );
    eprintln!(
        "    changes-feed entries: compacting {:>6} | unbounded (seed) {:>6}",
        bounded.changes_len(),
        unbounded.changes_len()
    );

    // --- Replication: deduplicated batches -----------------------------
    let dst = DocStore::new("dmz");
    let mut rep = Replicator::new(unbounded.clone(), dst.clone());
    let report = rep.run_once();
    eprintln!(
        "    replicating {} feed entries: {} docs written, target seq {} (seed wrote one per entry)",
        updates_per_doc as usize * BASE_MDTS,
        report.docs_written,
        dst.seq()
    );
    assert_eq!(report.docs_written as usize, BASE_MDTS);
    assert_eq!(dst.seq() as usize, BASE_MDTS);

    // --- Durable mode: the WAL tax and recovery cost -------------------
    let dir = std::env::temp_dir().join(format!("safeweb-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DocStore::open(&dir).expect("open durable bench store");
    durable.set_snapshot_every(0); // measure pure appends, then recovery replay
    let memory = DocStore::new("memory");
    let mut group = c.benchmark_group("docstore_persistence");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let mut n = 0u64;
    group.bench_function("put/memory", |b| {
        b.iter(|| {
            n += 1;
            memory
                .put(
                    &format!("doc-{n}"),
                    jobject! {"n" => n as i64, "payload" => "0123456789abcdef"},
                    LabelSet::new(),
                    None,
                )
                .unwrap()
        });
    });
    let mut m = 0u64;
    group.bench_function("put/durable-os-buffered", |b| {
        b.iter(|| {
            m += 1;
            durable
                .put(
                    &format!("doc-{m}"),
                    jobject! {"n" => m as i64, "payload" => "0123456789abcdef"},
                    LabelSet::new(),
                    None,
                )
                .unwrap()
        });
    });

    // A store the size of the portal's application database, snapshot
    // cadence at its default: the cost a put must *not* have is anything
    // proportional to the 10 000 documents already there (the automatic
    // snapshot's capture, the changes-feed compaction). Each sample is a
    // fixed run of updates long enough to cross several snapshot and
    // compaction triggers, so their amortised cost is in the per-put
    // figure instead of hiding in one sample out of twenty.
    let big_dir = dir.with_extension("10k");
    let _ = std::fs::remove_dir_all(&big_dir);
    let big = DocStore::open(&big_dir).expect("open 10k-document bench store");
    big.create_view("by_mid", "mdt_id");
    const BIG_DOCS: u64 = 10_000;
    let big_id = |n: u64| format!("record-{:05}", n % BIG_DOCS);
    let big_body = |n: u64| {
        jobject! {
            "mdt_id" => format!("mdt-{}", n % 100),
            "n" => n as i64,
            "payload" => "0123456789abcdef0123456789abcdef0123456789abcdef",
        }
    };
    let mut revs = Vec::with_capacity(BIG_DOCS as usize);
    for n in 0..BIG_DOCS {
        revs.push(
            big.put(&big_id(n), big_body(n), LabelSet::new(), None)
                .unwrap(),
        );
    }
    let updates_per_sample: u64 = if criterion::smoke_run() {
        10_000
    } else {
        30_000
    };
    let mut next = BIG_DOCS;
    group.bench_function("put/durable-10k-docs", |b| {
        b.iter_custom(|_| {
            let start = Instant::now();
            for _ in 0..updates_per_sample {
                let slot = (next % BIG_DOCS) as usize;
                revs[slot] = big
                    .put(
                        &big_id(next),
                        big_body(next),
                        LabelSet::new(),
                        Some(&revs[slot]),
                    )
                    .unwrap();
                next += 1;
            }
            start.elapsed() / updates_per_sample as u32
        });
    });
    let mut g = 0u64;
    group.bench_function("get/10k-docs", |b| {
        b.iter(|| {
            g += 7919;
            big.get(&big_id(g)).map(|d| d.rev().generation())
        });
    });
    group.finish();
    drop(big);
    let _ = std::fs::remove_dir_all(&big_dir);

    // Recovery: replay the whole WAL the puts above just wrote.
    let wal_bytes = durable.wal_len().unwrap_or(0);
    drop(durable);
    let start = Instant::now();
    let recovered = DocStore::open(&dir).expect("recovery open");
    let replay = start.elapsed();
    eprintln!(
        "\n  durable recovery: {} docs / {:.1} KiB of WAL replayed in {:.1} ms ({:.0} docs/s)",
        recovered.len(),
        wal_bytes as f64 / 1024.0,
        replay.as_secs_f64() * 1e3,
        recovered.len() as f64 / replay.as_secs_f64().max(1e-9),
    );
    // Snapshot + prune, then recovery reads the snapshot instead.
    recovered.snapshot_now().expect("snapshot");
    drop(recovered);
    let start = Instant::now();
    let from_snap = DocStore::open(&dir).expect("snapshot open");
    eprintln!(
        "  durable recovery from snapshot: {} docs in {:.1} ms",
        from_snap.len(),
        start.elapsed().as_secs_f64() * 1e3,
    );
    drop(from_snap);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_docstore);
criterion_main!(benches);
