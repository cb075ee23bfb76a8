//! A ceiling on the trusted codebase (paper §5.2: the middleware is
//! audited once, so it must not quietly grow). The counts are the `tcb`
//! bench's — same counter, same crates. Every audited crate is pinned on
//! its own, so one crate cannot grow while another shrinks. A change that
//! grows the audited core raises the constant in its own diff, where
//! review sees it; a change that shrinks it lowers the constant.

use safeweb_bench::{count_crate, workspace_root};

/// Code lines per audited crate (`crates/<name>/src`). Taint 405 → 332,
/// engine 881 → 874 and web 985 → 982: the audited API is what
/// applications call, so the regex wrappers and the methods only tests
/// called (`concat_all`, `parse_snum`, `to_sstr`, `SValue::as_sstr`,
/// `Jail::add_label`, `Ctx::param`, ...) are gone.
const CRATE_MAX: [(&str, usize); 5] = [
    ("taint", 332),
    ("engine", 874),
    ("labels", 1178),
    ("broker", 889),
    ("web", 982),
];
/// Taint + engine + labels + broker + web code lines (4 338 → 4 255).
const TCB_MAX: usize = 4255;

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
