//! # safeweb-bench
//!
//! Shared scaffolding for the benchmark harness that regenerates the
//! SafeWeb paper's evaluation:
//!
//! | bench target | paper artefact |
//! |--------------|----------------|
//! | `frontend`   | §5.3 page generation, 158→180 ms (+14 %) |
//! | `backend`    | §5.3 event latency, 73→84 ms (+15 %) |
//! | `throughput` | §5.3 end-to-end throughput, 4455→3817 ev/s (−17 %); publish path (single vs batched, exact vs prefix vs fan-out); idle STOMP connections |
//! | `breakdown`  | Figure 5 per-phase latency split |
//! | `tcb`        | §5.2 trusted-codebase line counts per audited crate and in total (ceilings: `tests/tcb_ceiling.rs`) |
//! | `microbench` | ablations of the individual mechanisms |
//! | `sched`, `docstore`, `labels`, `obs`, `attack` | beyond the paper: worker pool, document store, label lattice, telemetry and attack-campaign costs |
//!
//! Absolute numbers will differ (compiled Rust vs. Ruby on 2011 hardware);
//! the *shape* — relative overheads and breakdown ordering — is the
//! reproduction target. Each bench prints a paper-vs-measured summary.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use safeweb_mdt::registry::RegistryConfig;
use safeweb_mdt::units::ProducerConfig;
use safeweb_mdt::{MdtPortal, PortalConfig, VulnConfig};
use safeweb_web::SafeWebApp;

/// The portal sizing used by the macro benches: one front page listing
/// ~100 records, mirroring the paper's MDT front page — but 20 MDTs
/// instead of the seed's 2, so the application database holds 10× the
/// documents while each page stays the same size. With the seed's O(n)
/// view scans this sizing degraded page latency linearly; the indexed
/// store keeps it flat (see the `docstore` bench for the isolated curve).
pub fn bench_registry() -> RegistryConfig {
    RegistryConfig {
        regions: 1,
        hospitals_per_region: 1,
        mdts_per_hospital: 20,
        patients_per_mdt: 100,
        seed: 0xbe1c4,
    }
}

/// Password-hash cost for the benches. Calibrated so that authentication
/// dominates page latency as in the paper (87 ms of 180 ms on their Ruby
/// stack; proportionally scaled here).
pub const BENCH_AUTH_ITERATIONS: u32 = 1_300_000;

/// Builds a settled portal + frontend pair.
///
/// `tracking` toggles the §5.3 baseline: `false` disables label tracking
/// in the engine *and* the frontend's response check.
pub fn bench_portal(tracking: bool) -> (MdtPortal, SafeWebApp) {
    let portal = MdtPortal::build(PortalConfig {
        registry: bench_registry(),
        producer: ProducerConfig {
            interval: Duration::from_millis(5),
            batch: 200,
        },
        vuln: VulnConfig::default(),
        auth_iterations: BENCH_AUTH_ITERATIONS,
        replication_interval: Duration::from_millis(10),
        label_tracking: tracking,
        ..PortalConfig::default()
    });
    portal.wait_for_pipeline(Duration::from_secs(120));
    let mut app = portal.frontend(&VulnConfig::default());
    if !tracking {
        app = app.with_options(safeweb_web::FrontendOptions {
            label_checking: false,
        });
    }
    (portal, app)
}

/// Pretty-prints a paper-vs-measured comparison row.
pub fn report_row(label: &str, paper: &str, measured: &str) {
    eprintln!("  {label:<38} paper: {paper:<22} measured: {measured}");
}

/// Percentage overhead of `with` over `without`.
pub fn overhead_pct(without: f64, with: f64) -> f64 {
    if without <= 0.0 {
        return 0.0;
    }
    (with - without) / without * 100.0
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Code lines of every Rust source under `crates/<krate>/src` (see
/// [`count_source`]): the unit the `tcb` bench reports and the
/// `tcb_ceiling` test caps.
pub fn count_crate(root: &Path, krate: &str) -> usize {
    let src = root.join("crates").join(krate).join("src");
    let mut total = 0;
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                total += count_source(&path);
            }
        }
    }
    total
}

/// Non-blank, non-comment lines of one Rust source, skipping
/// `#[cfg(test)]` blocks by brace depth (a heuristic: the paper's LOC
/// figures are implementation lines).
pub fn count_source(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut count = 0;
    let mut in_test_mod = false;
    let mut depth = 0usize;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            in_test_mod = true;
            depth = 0;
            continue;
        }
        if in_test_mod {
            depth += trimmed.matches('{').count();
            let closes = trimmed.matches('}').count();
            if closes > 0 {
                if depth <= closes {
                    in_test_mod = false;
                }
                depth = depth.saturating_sub(closes);
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        count += 1;
    }
    count
}
