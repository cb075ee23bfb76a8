//! `safeweb-lint` — CLI for the workspace analyzer.
//!
//! ```text
//! cargo run -p lint --release -- --workspace
//! cargo run -p lint --release -- --workspace --json lint-report.json
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or policy-file error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use safeweb_lint::{run_workspace, Options};

fn main() -> ExitCode {
    let mut args = env::args().skip(1);
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if !workspace {
        return usage("pass --workspace to lint the tree");
    }

    // `cargo run -p lint` runs with the invoker's cwd; find the
    // workspace root by walking up to the directory holding the
    // top-level Cargo.toml with a [workspace] table.
    let root = find_workspace_root(&root);
    let report = match run_workspace(&root, &Options::default()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("safeweb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("safeweb-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for finding in &report.findings {
        println!("{finding}");
    }
    println!(
        "safeweb-lint: {} files, {} findings, {} allowlisted",
        report.files_checked,
        report.findings.len(),
        report.suppressed.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`; falls back to `start` so explicit `--root` always
/// works.
fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.canonicalize().unwrap_or_else(|_| start.to_path_buf());
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("safeweb-lint: {message}\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
safeweb-lint: machine-checks the workspace IFC security invariants.

USAGE:
    safeweb-lint --workspace [--root DIR] [--json PATH]

OPTIONS:
    --workspace    lint every crate, shim, test and example in the tree
    --root DIR     workspace root (default: walk up from the cwd)
    --json PATH    also write the findings report as JSON

Rules: unsafe-confinement, sync-confinement, declassify-registry,
query-hygiene, lock-order, telemetry-hygiene, test-liveness. Exemptions: lint.allow.toml (justification
required); declassification registry: DECLASSIFY.toml.
";
