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
/// `Jail::add_label`, `Ctx::param`, ...) are gone. Broker 889 → 884: the
/// wire edge converts frames by value and takes the protected header
/// names from the events crate's reserved list. One relabel rule: engine
/// 874 → 815 and labels 1 178 → 1 220, as the jail's 68 lines of
/// `Relabel` and its checks moved into labels (105 lines with the
/// rule's error type) and the test-only `LabelSet::{declassify,
/// endorse}` with their error types (65) went; broker 884 → 897, as a
/// `SEND`'s labels now pass the rule under the session's privileges.
/// One STOMP client: broker 897 → 748, as the broker's blocking client
/// (144 lines) is deleted and the server answers every receipted frame;
/// engine 815 → 898, as `RemoteBus` speaks STOMP itself and waits for
/// each answer. One lock vocabulary (`safeweb-sync`): labels 1 220 →
/// 1 195, as every lock call site lost its poison policy and the intern
/// tables became `LazyLock` statics; broker 748 → 749, as its `std`
/// import split from the facade's; engine 898 → 921, which is the stop
/// fix (+29: `EventBus::close`, the bus's socket handles and its 250 ms
/// grace for a request already written, and the handle's bus) less the
/// lock syntax and the timer's one `wait_timeout_while` (−6). Engine
/// 921 → 927: `RemoteBus::connect`'s log-in read gets a deadline
/// (`RemoteBus::LOGIN_TIMEOUT`, set for that read only and cleared), so a
/// peer that accepts and never answers cannot hold the caller. One
/// request path: web 982 → 929, as `Router` and the four vectors it
/// indexed became one route table, `serve` became its §4.4 steps and the
/// render cache's shards moved into `safeweb_sync::BoundedCache`; labels
/// 1 195 → 1 179, as the `flows_to` memo's shards moved there too.
/// One wait vocabulary: engine 927 → 926, as the timer and the bus's
/// close grace wait on a `safeweb_sync::Signal`; labels 1 179 → 1 154,
/// as the policy file declares units only (`PrincipalKind` and the
/// unread `user` blocks went); broker 749 → 744, as the wire no longer
/// carries an event id; web 929 → 905, as routing matches without a copy
/// and `*` splats went.
const CRATE_MAX: [(&str, usize); 5] = [
    ("taint", 332),
    ("engine", 926),
    ("labels", 1154),
    ("broker", 744),
    ("web", 905),
];
/// Taint + engine + labels + broker + web code lines (4 338 → 4 255 →
/// 4 250 → 4 246 → 4 180 → 4 179 → 4 185 → 4 116 → 4 061: the locks
/// moved onto one facade and a stopping engine learnt to close its bus,
/// then the log-in deadline, then the web request path became one route
/// table, then one wait vocabulary and the unread event ids and policy
/// `user` blocks went).
const TCB_MAX: usize = 4061;

/// Code lines of `safeweb-docstore`, which is outside the audited core
/// and so outside `TCB_MAX`: the store every labelled result passes
/// through on its way to the DMZ. 1 891 → 1 856 as `store.rs` split into
/// four modules with one apply step and the unused range query went;
/// 1 856 → 1 833 as `CommitSignal`, the checkpoint's condvar pair and the
/// group commit's condvar became `safeweb_sync::Signal`s.
const DOCSTORE_MAX: usize = 1833;

/// Code lines of `safeweb-sched`, the execution layer every unit, HTTP
/// request and STOMP frame runs on; its task state machine is one of the
/// wake-up protocols an interleaving checker must enumerate. 566 → 538
/// as the per-worker queues, the injector and stealing became one run
/// queue per pool.
const SCHED_MAX: usize = 538;

/// Code lines of `safeweb-reactor`, whose read pause is another such
/// protocol. 1 042 → 1 034 as the reactor applies a requested pause where
/// it reads, with no `PauseReads` command.
const REACTOR_MAX: usize = 1034;

/// The most lines a `crates/docstore/src` file may hold before its
/// `#[cfg(test)]` module (the whole file when it has none).
const DOCSTORE_FILE_MAX: usize = 800;

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

#[test]
fn docstore_stays_under_its_ceilings() {
    let root = workspace_root();
    let lines = count_crate(&root, "docstore");
    assert!(
        lines <= DOCSTORE_MAX,
        "docstore {lines} > {DOCSTORE_MAX} lines"
    );
    let mut dirs = vec![root.join("crates/docstore/src")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let before_tests = lines
                .windows(2)
                .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim().starts_with("mod tests"))
                .unwrap_or(lines.len());
            assert!(
                before_tests <= DOCSTORE_FILE_MAX,
                "{} has {before_tests} lines before its tests, over {DOCSTORE_FILE_MAX}",
                path.display()
            );
        }
    }
}

#[test]
fn the_execution_layer_stays_under_its_ceilings() {
    let root = workspace_root();
    for (krate, max) in [("sched", SCHED_MAX), ("reactor", REACTOR_MAX)] {
        let lines = count_crate(&root, krate);
        assert!(lines <= max, "{krate} {lines} > {max} lines");
    }
}
