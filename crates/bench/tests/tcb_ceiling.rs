//! A ceiling on the trusted codebase (paper §5.2: the middleware is
//! audited once, so it must not quietly grow). The counts are the `tcb`
//! bench's — same counter, same crates. Every audited crate is pinned on
//! its own, so one crate cannot grow while another shrinks. A change that
//! grows the audited core raises the constant in its own diff, where
//! review sees it; a change that shrinks it lowers the constant.

use safeweb_bench::{count_crate, workspace_root};

/// Code lines per audited crate (`crates/<name>/src`). Engine 845 → 881
/// for the per-activation relabel memo, the borrowing `Jail::get_ref` and
/// the in-place store write, which take the MDT aggregator's per-event
/// path from ≈ 47 allocations to ≈ 13.
const CRATE_MAX: [(&str, usize); 5] = [
    ("taint", 405),
    ("engine", 881),
    ("labels", 1178),
    ("broker", 889),
    ("web", 985),
];
/// Taint + engine + labels + broker + web code lines.
const TCB_MAX: usize = 4338;

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
