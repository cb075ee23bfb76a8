//! **Interned label lattice at scale** (ISSUE 9 acceptance bench).
//!
//! Three questions, each at 10 / 1 000 / 100 000 principals:
//!
//! * **intern** — what does it cost to turn a label list into a
//!   `LabelSet` handle when the set is already in the hash-cons table
//!   (the steady-state path every event derivation takes)?
//! * **compare** — `LabelSet` equality must be one id compare, flat in
//!   both set width and universe size.
//! * **flows_to** — a cold check walks the privilege list (linear in the
//!   clearance size), but a *repeated* check is a memo hit keyed by
//!   `(LabelSetId, PrivilegeSetId)`; the bench asserts the repeated path
//!   is ≥10× faster than the cold path at 1k+ principals, which is the
//!   claim that makes per-request label checking affordable at scale.
//!
//! Plus the **per-clearance render cache**: one frontend request on a
//! cached route, hit vs miss, proving the cache converts the rendered
//! page's handler + label-check cost into a lookup.
//!
//! `SAFEWEB_BENCH_JSON` records medians for `bench_gate` against
//! `crates/bench/baselines/labels.json`.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use safeweb_docstore::DocStore;
use safeweb_http::{Method, Request};
use safeweb_json::jobject;
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_relstore::Database;
use safeweb_web::{AuthConfig, Ctx, SResponse, SafeWebApp, UserStore};

/// One tenant principal out of the universe.
fn principal(i: usize) -> Label {
    Label::conf("bench.labels", &format!("tenant/{i}"))
}

/// A clearance over every one of `n` principals — the widest privilege
/// set a tier holds, so cold `flows_to` pays the full linear scan.
fn clearance_over(n: usize) -> PrivilegeSet {
    (0..n).map(|i| Privilege::clearance(principal(i))).collect()
}

/// `count` deterministic 4-label data sets over an `n`-principal universe.
fn data_sets(n: usize, count: usize) -> Vec<LabelSet> {
    (0..count)
        .map(|s| LabelSet::from_iter((0..4).map(|j| principal((s * 7919 + j * 104_729) % n))))
        .collect()
}

fn time_per_call_us(mut f: impl FnMut() -> bool, calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// A frontend with one route over `docs` labelled documents, registered
/// cached or uncached, plus one cleared user.
fn render_app(cached: bool, docs: usize) -> SafeWebApp {
    let users = UserStore::new(
        Database::new("web"),
        AuthConfig {
            hash_iterations: 200,
        },
    );
    let mut privs = PrivilegeSet::new();
    privs.grant(Privilege::clearance(Label::conf("bench.web", "mdt/a")));
    users.create_user("mdt_a", "pw", &privs, false).unwrap();

    let records = DocStore::new("bench-render");
    records.create_view("by_mid", "mdt_id");
    for r in 0..docs {
        records
            .put(
                &format!("rec-{r:05}"),
                jobject! {"mdt_id" => "a", "case_id" => r as i64, "note" => "0123456789abcdef"},
                LabelSet::singleton(Label::conf("bench.web", "mdt/a")),
                None,
            )
            .unwrap();
    }

    fn board(ctx: &Ctx<'_>) -> SResponse {
        SResponse::json_array(&ctx.records_by("by_mid", ctx.param_raw("mid").unwrap_or("")))
    }

    let mut app = SafeWebApp::new(users, records);
    if cached {
        app.get_cached("/records/:mid", board);
    } else {
        app.get("/records/:mid", board);
    }
    app
}

fn bench_labels(c: &mut Criterion) {
    let smoke = criterion::smoke_run();

    // --- The lattice at 10 / 1k / 100k principals -----------------------
    let tiers: &[(usize, &str)] = &[(10, "10"), (1_000, "1k"), (100_000, "100k")];
    let mut summary: Vec<(&str, f64, f64, f64, f64, f64)> = Vec::new();

    let mut group = c.benchmark_group("labels");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for &(n, tag) in tiers {
        let privileges = clearance_over(n);
        // Fewer cold probes where each one is expensive (100k-privilege
        // linear scans) — the cold number is a reference point, not a
        // gated median.
        let cold_count = if n >= 100_000 {
            if smoke {
                20
            } else {
                50
            }
        } else {
            500
        };
        let warm_sets = data_sets(n, 256);
        let cold_sets = data_sets(n, cold_count + 256)[256..].to_vec();

        // Interning when the set already exists: the steady-state path.
        let labels: Vec<Label> = (0..4).map(principal).collect();
        let _ = LabelSet::from_iter(labels.clone());
        group.bench_function(format!("intern_hit_{tag}"), |b| {
            b.iter(|| LabelSet::from_iter(black_box(labels.clone())))
        });

        // Equality is one id compare however many principals exist.
        let a = LabelSet::from_iter(labels.clone());
        let b2 = LabelSet::from_iter(labels.clone());
        group.bench_function(format!("compare_{tag}"), |b| {
            b.iter(|| black_box(&a) == black_box(&b2))
        });

        // Cold flows_to: fresh (set, privileges) pairs, full privilege
        // walk. Measured once per pair — the second visit would be warm.
        let cold_us = {
            let mut i = 0;
            time_per_call_us(
                || {
                    let v = cold_sets[i % cold_sets.len()].flows_to(&privileges);
                    i += 1;
                    v
                },
                cold_sets.len(),
            )
        };

        // Warm the repeated pairs, then measure the memo-hit path.
        for set in &warm_sets {
            black_box(set.flows_to(&privileges));
        }
        let warm_us = {
            let mut i = 0;
            time_per_call_us(
                || {
                    let v = warm_sets[i % warm_sets.len()].flows_to(&privileges);
                    i += 1;
                    v
                },
                4_096,
            )
        };
        group.bench_function(format!("flows_to_repeated_{tag}"), |b| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                warm_sets[i % warm_sets.len()].flows_to(black_box(&privileges))
            })
        });

        let speedup = cold_us / warm_us.max(1e-9);
        summary.push((
            tag,
            LabelSet::interned_count() as f64,
            PrivilegeSet::interned_count() as f64,
            cold_us,
            warm_us,
            speedup,
        ));
    }
    group.finish();

    eprintln!("\n=== interned lattice: flows_to across principal tiers ===");
    for (tag, sets, privs, cold_us, warm_us, speedup) in &summary {
        eprintln!(
            "  {tag:>4} principals: cold {cold_us:>9.3} us | repeated (memo) {warm_us:>7.4} us | speedup {speedup:>7.1}x  (tables: {sets:.0} sets / {privs:.0} priv-sets)",
        );
    }
    for (tag, _, _, _, _, speedup) in &summary {
        if *tag != "10" {
            assert!(
                *speedup >= 10.0,
                "repeated flows_to at {tag} principals must be >=10x the cold path, got {speedup:.1}x"
            );
        }
    }

    // --- Per-clearance render cache: hit vs miss ------------------------
    let docs = if smoke { 64 } else { 256 };
    let cached_app = render_app(true, docs);
    let uncached_app = render_app(false, docs);
    let request = Request::new(Method::Get, "/records/a").with_basic_auth("mdt_a", "pw");
    // Warm both: auth rows, view index, and the cached page itself.
    assert_eq!(cached_app.handle(&request).status(), 200);
    assert_eq!(uncached_app.handle(&request).status(), 200);

    let mut group = c.benchmark_group("render_cache");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("hit", |b| {
        b.iter(|| cached_app.handle(black_box(&request)).status())
    });
    group.bench_function("miss", |b| {
        b.iter(|| uncached_app.handle(black_box(&request)).status())
    });
    group.finish();

    let hits = cached_app.stats().render_cache_hits();
    assert!(hits > 0, "the cached app must have served from the cache");
    eprintln!(
        "\n=== per-clearance render cache ({docs} labelled docs per page) ===\n  \
         cache hits {hits} | every hit skips the handler and the label re-check"
    );
}

criterion_group!(benches, bench_labels);
criterion_main!(benches);
