//! Workspace discovery: which `.rs` files the lint walks, and what
//! role each plays.
//!
//! The walk is path-convention driven (the same conventions `cargo`
//! uses) rather than `Cargo.toml`-driven, so the lint sees every Rust
//! file in the tree — including one a manifest forgot to register,
//! which is itself the PR-7 bug class the `test-liveness` rule exists
//! to catch.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok};

/// Where a file sits in its crate, which decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library/binary source under `src/`.
    Src,
    /// Integration tests under `tests/`.
    Test,
    /// Benchmarks under `benches/`.
    Bench,
    /// Examples under `examples/`.
    Example,
}

/// One lexed workspace file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The owning crate (directory name under `crates/` or `shims/`,
    /// or `safeweb` for the facade crate at the root).
    pub crate_name: String,
    /// The file's role.
    pub kind: FileKind,
    /// Whether this is a crate root (`src/lib.rs`).
    pub is_crate_root: bool,
    /// The code token stream (comments and whitespace dropped).
    pub tokens: Vec<Tok>,
}

impl SourceFile {
    /// Builds a file from in-memory source — the constructor the
    /// fixture-corpus tests use. Public as the lint's test seam: the
    /// fixture tests lint in-memory workspaces, not the tree.
    pub fn from_source(rel: &str, crate_name: &str, kind: FileKind, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            is_crate_root: rel.ends_with("src/lib.rs"),
            tokens: lex(src),
        }
    }
}

/// The lexed workspace.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Every discovered file.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Wraps in-memory files. Public as the lint's test seam, like
    /// [`SourceFile::from_source`].
    pub fn from_files(files: Vec<SourceFile>) -> Workspace {
        Workspace { files }
    }
}

/// Walks the workspace rooted at `root` and lexes every `.rs` file.
///
/// Covered: the facade crate (`src/`, `tests/`, `examples/`), every
/// crate under `crates/*` and every shim under `shims/*` (their
/// `src/`, `tests/`, `benches/`, `examples/`). Skipped: `target/`,
/// and any `fixtures/` directory — the lint's own seeded-violation
/// corpus must not fail the tree it tests.
///
/// # Errors
///
/// Propagates I/O errors other than the roots simply not existing.
pub fn discover(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        collect(root, &root.join(dir), "safeweb", kind_of(dir), &mut files)?;
    }
    for family in ["crates", "shims"] {
        let base = root.join(family);
        if !base.is_dir() {
            continue;
        }
        let mut crates: Vec<PathBuf> = fs::read_dir(&base)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            let name = krate
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            for dir in ["src", "tests", "benches", "examples"] {
                collect(root, &krate.join(dir), &name, kind_of(dir), &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace { files })
}

fn kind_of(dir: &str) -> FileKind {
    match dir {
        "tests" => FileKind::Test,
        "benches" => FileKind::Bench,
        "examples" => FileKind::Example,
        _ => FileKind::Src,
    }
}

fn collect(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect(root, &path, crate_name, kind, out)?;
        } else if name.ends_with(".rs") {
            let src = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                is_crate_root: rel.ends_with("src/lib.rs"),
                rel,
                crate_name: crate_name.to_string(),
                kind,
                tokens: lex(&src),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_workspace() {
        // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let ws = discover(root).expect("walk");
        let rels: Vec<&str> = ws.files.iter().map(|f| f.rel.as_str()).collect();
        assert!(rels.contains(&"crates/lint/src/workspace.rs"));
        assert!(rels.contains(&"src/lib.rs"));
        assert!(rels.contains(&"shims/proptest/src/lib.rs"));
        assert!(
            !rels.iter().any(|r| r.contains("/fixtures/")),
            "the seeded-violation corpus must not be walked: {rels:?}"
        );
        let root_file = ws.files.iter().find(|f| f.rel == "src/lib.rs").unwrap();
        assert!(root_file.is_crate_root);
        assert_eq!(root_file.crate_name, "safeweb");
        let test_file = ws
            .files
            .iter()
            .find(|f| f.rel == "tests/end_to_end.rs")
            .unwrap();
        assert_eq!(test_file.kind, FileKind::Test);
    }
}
