//! A ceiling on the trusted codebase (paper §5.2: the middleware is
//! audited once, so it must not quietly grow). The counts are the `tcb`
//! bench's — same counter, same crates. A change that grows the audited
//! core raises the constant in its own diff, where review sees it.

use safeweb_bench::{count_crate, workspace_root};

/// `crates/engine` code lines.
const ENGINE_MAX: usize = 770;
/// `crates/broker` code lines.
const BROKER_MAX: usize = 1001;
/// Taint + engine + labels + broker + web code lines.
const TCB_MAX: usize = 4568;

#[test]
fn audited_core_stays_under_its_ceiling() {
    let root = workspace_root();
    let engine = count_crate(&root, "engine");
    let broker = count_crate(&root, "broker");
    let total: usize = ["taint", "engine", "labels", "broker", "web"]
        .iter()
        .map(|krate| count_crate(&root, krate))
        .sum();
    assert!(engine <= ENGINE_MAX, "engine {engine} > {ENGINE_MAX} lines");
    assert!(broker <= BROKER_MAX, "broker {broker} > {BROKER_MAX} lines");
    assert!(total <= TCB_MAX, "TCB {total} > {TCB_MAX} lines");
}
