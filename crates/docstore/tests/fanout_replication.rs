//! Fan-out replication: **two** DMZ replicas fed from one Intranet
//! source's changes feed, each persisting its *own* checkpoint through
//! its write-ahead log (per-replica durable checkpoints are what the WAL
//! work unblocked — before it, a second replica had nowhere to record
//! how far it had read).
//!
//! The scenario exercised: the replicas deliberately fall out of step
//! (one is stopped early), everything — source included — is shut down
//! and reopened from disk, and each replica then resumes **from its own
//! recovered checkpoint**: the laggard incrementally catches up on the
//! feed entries it missed, the current one transfers only the new
//! writes, and both converge to the restarted source without a full
//! re-transfer.

use std::path::PathBuf;
use std::time::Duration;

use safeweb_docstore::{DocStore, ReplicationHandle, Replicator};
use safeweb_json::jobject;
use safeweb_labels::LabelSet;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("safeweb-fanout-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const WAIT: Duration = Duration::from_secs(10);

fn converged(src: &DocStore, replica: &DocStore) -> bool {
    src.ids() == replica.ids()
        && src.ids().iter().all(|id| {
            src.get(id).map(|d| d.rev().clone()) == replica.get(id).map(|d| d.rev().clone())
        })
}

#[test]
fn two_replicas_keep_independent_checkpoints_across_a_source_restart() {
    let src_dir = scratch("src");
    let a_dir = scratch("dmz-a");
    let b_dir = scratch("dmz-b");

    // ---- life 1: one feed, two durable replicas, one falls behind ----
    let first_batch = 5u32;
    let second_batch = 4u32;
    {
        let src = DocStore::open(&src_dir).expect("open source");
        let dmz_a = DocStore::open(&a_dir).expect("open replica a");
        let dmz_b = DocStore::open(&b_dir).expect("open replica b");
        dmz_a.set_read_only(true);
        dmz_b.set_read_only(true);

        for i in 0..first_batch {
            src.put(
                &format!("doc-{i}"),
                jobject! {"v" => i},
                LabelSet::new(),
                None,
            )
            .unwrap();
        }

        let rep_a = ReplicationHandle::start(src.clone(), dmz_a.clone(), Duration::from_millis(5));
        let rep_b = ReplicationHandle::start(src.clone(), dmz_b.clone(), Duration::from_millis(5));
        assert!(
            rep_a.wait_for_checkpoint(src.seq(), WAIT),
            "first fan-out, A"
        );
        assert!(
            rep_b.wait_for_checkpoint(src.seq(), WAIT),
            "first fan-out, B"
        );
        assert!(converged(&src, &dmz_a) && converged(&src, &dmz_b));

        // Replica B drops out; A keeps following the feed.
        rep_b.stop();
        for i in 0..second_batch {
            src.put(
                &format!("late-{i}"),
                jobject! {"v" => i},
                LabelSet::new(),
                None,
            )
            .unwrap();
        }
        let doomed = src.get("doc-0").unwrap().rev().clone();
        src.delete("doc-0", &doomed).unwrap();
        assert!(
            rep_a.wait_for_checkpoint(src.seq(), WAIT),
            "replica A catching up"
        );
        assert!(converged(&src, &dmz_a));
        // A's checkpoint must durably cover the whole feed...
        assert_eq!(dmz_a.replication_checkpoint_persisted(), Some(src.seq()));
        rep_a.stop();

        // ...while B's stayed where B stopped: same feed, two positions.
        let cp_a = dmz_a
            .replication_checkpoint_persisted()
            .expect("A persisted");
        let cp_b = dmz_b
            .replication_checkpoint_persisted()
            .expect("B persisted");
        assert_eq!(cp_a, src.seq());
        assert_eq!(
            cp_b,
            u64::from(first_batch),
            "B stopped after the first batch"
        );
        assert!(cp_b < cp_a, "checkpoints must be independent");
        assert_eq!(dmz_b.len(), first_batch as usize);
    } // everything drops: WAL locks release, "process exits"

    // ---- life 2: reopen all three, each replica resumes from its own ----
    let src = DocStore::open(&src_dir).expect("reopen source");
    assert_eq!(
        src.len(),
        (first_batch + second_batch) as usize - 1,
        "source recovered its documents"
    );
    src.put("fresh", jobject! {"v" => 99}, LabelSet::new(), None)
        .unwrap();

    let dmz_a = DocStore::open(&a_dir).expect("reopen replica a");
    let dmz_b = DocStore::open(&b_dir).expect("reopen replica b");
    dmz_a.set_read_only(true);
    dmz_b.set_read_only(true);
    let cp_a = dmz_a
        .replication_checkpoint_persisted()
        .expect("A recovered");
    let cp_b = dmz_b
        .replication_checkpoint_persisted()
        .expect("B recovered");
    assert!(cp_b < cp_a);

    // Drive the resumed runs directly so the reports are checkable.
    let mut rep_a = Replicator::new(src.clone(), dmz_a.clone());
    assert_eq!(
        rep_a.checkpoint(),
        cp_a,
        "A resumes from its own checkpoint"
    );
    let report = rep_a.run_once();
    assert!(!report.resynced, "A's checkpoint is current: incremental");
    assert_eq!(report.docs_written, 1, "A transfers only the new write");
    assert_eq!(report.docs_deleted, 0);

    let mut rep_b = Replicator::new(src.clone(), dmz_b.clone());
    assert_eq!(
        rep_b.checkpoint(),
        cp_b,
        "B resumes from its own checkpoint"
    );
    let report = rep_b.run_once();
    assert!(
        !report.resynced,
        "the reopened feed still covers B's older checkpoint"
    );
    assert_eq!(
        report.docs_written,
        u64::from(second_batch) + 1,
        "B catches up on the missed batch plus the new write"
    );
    assert_eq!(report.docs_deleted, 1, "B applies the missed deletion");

    assert!(converged(&src, &dmz_a), "replica A diverged");
    assert!(converged(&src, &dmz_b), "replica B diverged");

    for dir in [src_dir, a_dir, b_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
