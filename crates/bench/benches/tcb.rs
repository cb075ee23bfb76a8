//! **E10 — §5.2 "Trusted Codebase".**
//!
//! Paper: SafeWeb's taint-tracking library is 1943 LOC and the event
//! processing engine 1908 LOC; after auditing those once, per-application
//! audits shrink to the privileged units (138 LOC) and the frontend
//! privilege-assignment code (142 LOC) — the remaining 2841 LOC of the
//! MDT application need no security audit.
//!
//! This harness counts the equivalent lines in this repository and prints
//! the same table: the one-time-audited middleware TCB vs. the
//! per-application audited slice vs. the unaudited application logic.
//!
//! Run with `cargo bench -p safeweb-bench --bench tcb`.

use safeweb_bench::{count_crate, count_source, workspace_root};

fn main() {
    let root = workspace_root();
    eprintln!("=== E10: trusted codebase (paper §5.2) ===\n");

    // One-time-audited middleware TCB (the paper names the taint-tracking
    // library and the event processing engine; this reproduction's TCB
    // additionally includes the label model and enforcement points they
    // build on).
    let taint = count_crate(&root, "taint");
    let engine = count_crate(&root, "engine");
    let labels = count_crate(&root, "labels");
    let broker = count_crate(&root, "broker");
    let web = count_crate(&root, "web");

    eprintln!("one-time audited middleware (TCB):");
    row("taint-tracking library", Some(1943), taint);
    row("event processing engine", Some(1908), engine);
    row("label model & policy", None, labels);
    row("IFC-aware broker", None, broker);
    row("web frontend middleware", None, web);
    row(
        "audited middleware total",
        Some(1943 + 1908),
        taint + engine + labels + broker + web,
    );
    eprintln!();

    // Per-application audited slice: the privileged units (which hold
    // declassification power / I/O) and the privilege-assignment code.
    let units = count_source(&root.join("crates/mdt/src/units.rs"));
    let labels_mdt = count_source(&root.join("crates/mdt/src/labels.rs"));
    let app_total = count_crate(&root, "mdt");
    let audited_app = units + labels_mdt;

    eprintln!("per-application audit (MDT portal):");
    row("privileged units + aggregation", Some(138), units);
    row("privilege assignment (labels.rs)", Some(142), labels_mdt);
    row("application total", Some(3121), app_total);
    row(
        "application code needing no audit",
        Some(2841),
        app_total - audited_app,
    );
    let pct = (app_total - audited_app) as f64 / app_total as f64 * 100.0;
    let paper_pct = 2841.0 / 3121.0 * 100.0;
    eprintln!("\n  unaudited fraction of application: paper {paper_pct:.0}% — measured {pct:.0}%");
    eprintln!(
        "  (absolute LOC differ — Rust vs Ruby — the reproduced shape is that the\n   audited slice is a small fraction of the application)"
    );
}

fn row(label: &str, paper: Option<usize>, measured: usize) {
    let paper = paper.map_or("—".to_string(), |p| format!("{p} LOC"));
    eprintln!("  {label:<38} paper: {paper:<12} measured: {measured} LOC");
}
