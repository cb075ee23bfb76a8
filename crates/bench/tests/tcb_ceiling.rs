//! A ceiling on the trusted codebase (paper §5.2: the middleware is
//! audited once, so it must not quietly grow). The counts are the `tcb`
//! bench's — same counter, same crates. Every audited crate is pinned on
//! its own, so one crate cannot grow while another shrinks. A change that
//! grows the audited core raises the constant in its own diff, where
//! review sees it; a change that shrinks it lowers the constant.

use safeweb_bench::{count_crate, workspace_root};

/// Code lines per audited crate (`crates/<name>/src`).
const CRATE_MAX: [(&str, usize); 5] = [
    ("taint", 405),
    ("engine", 845),
    ("labels", 1178),
    ("broker", 889),
    ("web", 985),
];
/// Taint + engine + labels + broker + web code lines.
const TCB_MAX: usize = 4302;

#[test]
fn audited_core_stays_under_its_ceiling() {
    let root = workspace_root();
    let mut total = 0;
    for (krate, max) in CRATE_MAX {
        let lines = count_crate(&root, krate);
        assert!(lines <= max, "{krate} {lines} > {max} lines");
        total += lines;
    }
    assert!(total <= TCB_MAX, "TCB {total} > {TCB_MAX} lines");
}
