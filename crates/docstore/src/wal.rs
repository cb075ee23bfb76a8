//! The append-only write-ahead log under a durable [`DocStore`].
//!
//! Every acknowledged write appends its records *before* the in-memory
//! indexes change, so the log is always at least as new as the state a
//! client was told about: one record per put or delete, and one
//! `write(2)` per replication run carrying the run's whole batch with
//! the replica's checkpoint record last. Each record is one
//! [frame](crate::frame) whose payload is the deterministic JSON encoding
//! of one [`Record`]. On [`Wal::open`] the log is scanned front to back;
//! the first truncated, over-long, checksum-mismatched or undecodable
//! frame ends the replay *cleanly* — everything before it is recovered,
//! the torn tail is discarded by truncating back to the last good frame,
//! and appends resume from there. A torn tail is the expected outcome of
//! a crash mid-`write`; it is not an error.
//!
//! ## Record encoding
//!
//! One encoder, [`write_doc`], writes every document payload: put
//! records of external writes and of replica applies, and snapshot
//! document frames. It writes straight into the payload: the body by
//! reference (or the caller's encoding of it, spliced in), the label
//! URIs through a JSON-escaping `fmt::Write` adapter instead of
//! `LabelSet::to_wire`'s `Vec` and `join`, the revision and sequence
//! without `core::fmt`. A put record is built in the thread's JSON
//! scratch buffer and copied out once ([`safeweb_json::build_exact`]):
//! **one allocation per record**. The bytes are `Value::to_json`'s for
//! the equivalent wrapper object, which wrote every log already on disk;
//! `wal_props.rs` holds put records, replica applies and snapshot frames
//! to that reference.
//!
//! ## Segments
//!
//! The log is split into **bounded segment files**: appends go to the
//! active segment (`wal.log`); once it crosses the configured size bound
//! it is fsynced and renamed aside as `wal-<n>.sealed` and a fresh
//! active segment starts. Every byte of a sealed segment is durable (the
//! seal fsync precedes the rename), which keeps two operations cheap:
//! a group-commit leader only ever needs to fsync the *active* file, and
//! a snapshot rotates the active segment and later deletes the sealed
//! files it covered instead of truncating one ever-growing log under the
//! store lock. Recovery replays sealed segments in order, then the
//! active file.
//!
//! ## Durability grades and group commit
//!
//! Records reach the kernel page cache on every append (one `write(2)`
//! per append call, no user-space buffering), which survives `SIGKILL` /
//! process crashes.
//! [`WalSync::Always`] adds power-loss durability: an acknowledged write
//! must be covered by an `fdatasync(2)` before its ack. Rather than one
//! sync per record, concurrent appenders batch behind a **leader** (see
//! [`GroupCommit`]): each append takes a monotone ticket, the first
//! waiter syncs the active file once for every ticket appended so far,
//! and followers whose tickets that sync covered are released without
//! ever touching the disk. Acks still never outrun the sync — a waiter
//! returns only once `synced >= its ticket` — so the guarantee is
//! unchanged while the fsync cost is shared across the batch.
//!
//! [`DocStore`]: crate::DocStore

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use safeweb_json::{build_exact, write_json_string, EscapeJson, Str, Value};
use safeweb_labels::LabelSet;
use safeweb_obs::Histogram;
use safeweb_sync::{Mutex, Signal};

use crate::document::{Document, Revision};
use crate::frame::{decode_frame, push_frame, FRAME_HEADER, MAX_RECORD_LEN};

/// How eagerly WAL appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// One `write(2)` per record (default): data reaches the kernel page
    /// cache immediately, surviving process death (`SIGKILL`, panics,
    /// OOM-kills) but not a host power loss.
    #[default]
    OsBuffered,
    /// Every acknowledged write is covered by an `fdatasync(2)`:
    /// power-loss durable. Concurrent appenders share one group-commit
    /// sync, so the disk round-trip is paid once per batch of
    /// acknowledged writes, not once per record.
    Always,
}

/// Errors opening or recovering a durable store.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure (open, read, write, rename, sync).
    Io(std::io::Error),
    /// A *snapshot* failed validation. Snapshots are written to a
    /// temporary file and atomically renamed, so — unlike a torn WAL
    /// tail, which recovery discards silently — a corrupt snapshot means
    /// real data loss and is surfaced instead of masked.
    Corrupt {
        /// The file that failed validation.
        path: PathBuf,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What went wrong with it.
        reason: String,
    },
    /// Another live handle — this process or another — holds the store
    /// directory. Two writers appending to one WAL would interleave
    /// frames and corrupt it, so the second open is refused instead.
    Locked {
        /// The lock file that is held.
        path: PathBuf,
        /// The pid recorded in it, when readable.
        pid: Option<u32>,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "persistence I/O error: {e}"),
            WalError::Corrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt persistence file {} at byte {offset}: {reason}",
                path.display()
            ),
            WalError::Locked { path, pid } => match pid {
                Some(pid) => write!(
                    f,
                    "store is locked by live process {pid} ({})",
                    path.display()
                ),
                None => write!(f, "store is locked ({})", path.display()),
            },
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// A document write (external put or replication apply) that produced
    /// store sequence `seq`.
    Put {
        /// The store sequence number after this write.
        seq: u64,
        /// The written document.
        doc: Document,
    },
    /// A document deletion that produced store sequence `seq`.
    Delete {
        /// The store sequence number after this deletion.
        seq: u64,
        /// The deleted id.
        id: String,
    },
    /// A replication checkpoint: this replica has applied the source's
    /// changes feed through sequence `rep`. Carries no store sequence of
    /// its own.
    Checkpoint {
        /// The source sequence replicated through.
        rep: u64,
    },
}

// ---- record payload encoding --------------------------------------------

/// Appends a document as the JSON object `{body, id, labels, rev}` —
/// plus `op: "put"` and `seq` when `put_seq` is given — in
/// [`Value::to_json`]'s sorted-key byte layout, serialising the body by
/// reference: the one encoder of WAL put records (external puts and
/// replica applies) and snapshot document frames. `body_json`, when
/// given, is the body's encoding already made by the caller and is
/// spliced in as is. Bodies round-trip through JSON, so non-finite floats
/// degrade to `null` on recovery.
pub(crate) fn write_doc(
    doc: &Document,
    body_json: Option<&str>,
    put_seq: Option<u64>,
    out: &mut String,
) {
    out.push_str("{\"body\":");
    match body_json {
        Some(json) => out.push_str(json),
        None => doc.body().write_json(out),
    }
    out.push_str(",\"id\":");
    write_json_string(doc.id(), out);
    // `LabelSet::to_wire`'s text — the URIs joined by `,` — escaped into
    // the frame as it is formatted, with no `String` per label.
    out.push_str(",\"labels\":\"");
    for (i, label) in doc.labels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(EscapeJson(out), "{label}");
    }
    out.push('"');
    if put_seq.is_some() {
        out.push_str(",\"op\":\"put\"");
    }
    // `generation-hexdigest`: nothing in it needs escaping.
    out.push_str(",\"rev\":\"");
    push_digits(doc.rev().generation(), 10, 1, out);
    out.push('-');
    push_digits(doc.rev().digest(), 16, 16, out);
    out.push('"');
    if let Some(seq) = put_seq {
        out.push_str(",\"seq\":");
        Value::Int(seq as i64).write_json(out);
    }
    out.push('}');
}

/// Appends `n` in base `radix` (lowercase digits), zero-padded to at
/// least `width` digits: [`Revision`]'s `Display` spelling without
/// `core::fmt`.
fn push_digits(mut n: u64, radix: u64, width: usize, out: &mut String) {
    // 20 digits hold `u64::MAX` in decimal.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n > 0 || digits.len() - at < width.max(1) {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(n % radix) as usize];
        n /= radix;
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Decodes [`write_doc`]'s encoding; `None` on any missing or malformed
/// field.
pub(crate) fn doc_from_value(v: &Value) -> Option<Document> {
    let id = Str::from(v.get("id")?.as_str()?);
    let rev = Revision::parse(v.get("rev")?.as_str()?)?;
    let labels = LabelSet::from_wire(v.get("labels")?.as_str()?).ok()?;
    let body = v.get("body")?.clone();
    Some(Document::new(id, rev, labels, body))
}

/// A put record for `doc`, in one exact-size allocation; `body_json` as
/// for [`write_doc`].
pub(crate) fn encode_put(seq: u64, doc: &Document, body_json: Option<&str>) -> String {
    build_exact(|out| write_doc(doc, body_json, Some(seq), out))
}

pub(crate) fn encode_delete(seq: u64, id: &str) -> String {
    let mut v = Value::object();
    v.set("op", "del");
    v.set("seq", seq as i64);
    v.set("id", id);
    v.to_json()
}

pub(crate) fn encode_checkpoint(rep: u64) -> String {
    let mut v = Value::object();
    v.set("op", "ckpt");
    v.set("rep", rep as i64);
    v.to_json()
}

fn decode_record(payload: &str) -> Option<Record> {
    let v = Value::parse(payload).ok()?;
    let seq_of = |v: &Value| v.get("seq").and_then(Value::as_i64).map(|s| s as u64);
    match v.get("op")?.as_str()? {
        "put" => Some(Record::Put {
            seq: seq_of(&v)?,
            doc: doc_from_value(&v)?,
        }),
        "del" => Some(Record::Delete {
            seq: seq_of(&v)?,
            id: v.get("id")?.as_str()?.to_string(),
        }),
        "ckpt" => Some(Record::Checkpoint {
            rep: v.get("rep").and_then(Value::as_i64)? as u64,
        }),
        _ => None,
    }
}

/// Name of the advisory lock file inside a durable store's directory.
pub(crate) const LOCK_FILE: &str = "lock";

/// Takes the store directory's advisory lock: a `lock` file created with
/// `O_EXCL`, holding the owner's pid. A lock left behind by a process
/// that no longer exists (`SIGKILL` never runs destructors) is reclaimed
/// by checking `/proc/<pid>`; a lock held by a *live* process — including
/// this one, for a second handle onto the same directory — refuses the
/// open, because two writers interleaving appends into one WAL would
/// corrupt it. Released by the store's `Drop`.
pub(crate) fn acquire_dir_lock(dir: &Path) -> Result<(), WalError> {
    let path = dir.join(LOCK_FILE);
    // The pid is written to a private temp file first and `hard_link`ed
    // into place — link(2) fails with EEXIST if the lock exists and
    // never exposes a half-written file, so a concurrent opener can
    // never observe an empty lock and mistake a live holder for stale.
    let tmp = dir.join(format!("{LOCK_FILE}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, format!("{}", std::process::id()))?;
    let claim = dir.join(format!("{LOCK_FILE}.stale-{}", std::process::id()));
    let result = (|| {
        for attempt in 0..2 {
            match std::fs::hard_link(&tmp, &path) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let pid = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let holder_alive =
                        pid.is_some_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
                    if holder_alive || attempt > 0 {
                        return Err(WalError::Locked {
                            path: path.clone(),
                            pid,
                        });
                    }
                    // Stale: the recorded process is gone (`SIGKILL`
                    // leaves its lock behind). Claim it by *renaming* it
                    // aside — atomic, so of N racing reclaimers exactly
                    // one wins; the losers loop into the live-pid
                    // refusal above. Then re-verify what was actually
                    // claimed: if a racer's fresh lock slid under the
                    // rename between our read and our claim, hand it
                    // back via `hard_link` — atomic and non-clobbering,
                    // so a third opener that acquired in the gap keeps
                    // its lock rather than being silently overwritten.
                    // (A triple race within that microsecond window can
                    // still leave the wronged racer without its lock
                    // file — this is an advisory guard against operator
                    // error, not a contended mutex.)
                    if std::fs::rename(&path, &claim).is_ok() {
                        let claimed = std::fs::read_to_string(&claim)
                            .ok()
                            .and_then(|s| s.trim().parse::<u32>().ok());
                        if claimed != pid {
                            let _ = std::fs::hard_link(&claim, &path);
                            let _ = std::fs::remove_file(&claim);
                            return Err(WalError::Locked {
                                path: path.clone(),
                                pid: claimed,
                            });
                        }
                        let _ = std::fs::remove_file(&claim);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(WalError::Locked {
            path: path.clone(),
            pid: None,
        })
    })();
    let _ = std::fs::remove_file(&tmp);
    result
}

/// File name of the active WAL segment inside the store directory.
pub(crate) const ACTIVE_SEGMENT: &str = "wal.log";

/// Default bound on the active segment before it is sealed (8 MiB).
pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// File name of the sealed segment with rotation index `index`.
fn sealed_name(index: u64) -> String {
    format!("wal-{index:08}.sealed")
}

/// Parses a [`sealed_name`] back to its index; `None` for other files.
fn sealed_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".sealed")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Leader/follower group commit for [`WalSync::Always`] appenders.
///
/// Appends (serialized by the store's write lock) take monotone tickets;
/// [`GroupCommit::wait_durable`] releases a ticket only once a sync that
/// *started after* the ticket's append has completed. The first waiter
/// to arrive while no sync is running becomes the **leader**: it
/// captures the highest appended ticket and the active segment's file
/// handle, fsyncs outside every lock, then publishes the new `synced`
/// watermark and wakes the followers the sync covered. Tickets that
/// arrive mid-sync simply elect the next leader when it finishes, so no
/// ack ever rides a sync that began before its append.
///
/// A sync failure is sticky: every current and future waiter gets the
/// error, mirroring the store's sticky persistence failure — after an
/// ambiguous fsync the WAL's durable prefix is unknown, so no further
/// write may be acknowledged.
#[derive(Debug)]
pub(crate) struct GroupCommit {
    state: Mutex<GroupState>,
    /// Notified by each leader once it has published its sync's result.
    synced: Signal,
}

#[derive(Debug)]
struct GroupState {
    /// Highest ticket whose frame is in the active segment.
    appended: u64,
    /// Highest ticket covered by a completed `fdatasync`.
    synced: u64,
    /// The active segment holding `appended`'s frame. An `Arc` clone so
    /// the leader can sync it after a rotation swapped the `Wal`'s own
    /// handle (sealing already fsynced every earlier segment).
    file: Option<Arc<File>>,
    /// A leader's sync is in flight; later arrivals wait instead of
    /// issuing a second concurrent fsync.
    leading: bool,
    failed: Option<String>,
    /// Leader `fdatasync` latency. Detached until
    /// [`crate::DocStore::attach_metrics`] swaps in registry-backed
    /// handles; observing a detached histogram is still valid, just
    /// invisible to any ops surface.
    fsync_ns: Histogram,
    /// Tickets released per leader sync — the group-commit batch size.
    batch: Histogram,
}

impl GroupCommit {
    fn new() -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GroupState {
                appended: 0,
                synced: 0,
                file: None,
                leading: false,
                failed: None,
                fsync_ns: Histogram::new(),
                batch: Histogram::with_bounds(Histogram::size_bounds()),
            }),
            synced: Signal::new(),
        }
    }

    /// Swaps in registry-backed histograms for fsync latency and batch
    /// size (see [`crate::DocStore::attach_metrics`]).
    pub(crate) fn set_metrics(&self, fsync_ns: Histogram, batch: Histogram) {
        let mut st = self.state.lock();
        st.fsync_ns = fsync_ns;
        st.batch = batch;
    }

    /// Records that `ticket`'s frame reached the active segment `file`.
    /// Called with the store's write lock held, so tickets are published
    /// in order.
    fn record_append(&self, ticket: u64, file: Arc<File>) {
        let mut st = self.state.lock();
        st.appended = ticket;
        st.file = Some(file);
    }

    /// Blocks until every append up to `ticket` is on stable storage,
    /// electing this thread as the sync leader when none is running.
    /// Called *without* the store lock, so appenders batch up behind the
    /// in-flight sync instead of serializing on it.
    pub(crate) fn wait_durable(&self, ticket: u64) -> Result<(), String> {
        loop {
            let mut st = self.state.lock();
            if let Some(why) = &st.failed {
                return Err(why.clone());
            }
            if st.synced >= ticket {
                return Ok(());
            }
            if st.leading {
                // Read under the lock: the leader publishes its result
                // under it and notifies after, so the epoch moves.
                let seen = self.synced.epoch();
                drop(st);
                self.synced.wait_past(seen, Duration::MAX);
                continue;
            }
            st.leading = true;
            let target = st.appended;
            let covered = target.saturating_sub(st.synced);
            let file = st.file.clone();
            let (fsync_ns, batch) = (st.fsync_ns.clone(), st.batch.clone());
            drop(st);
            // `target >= ticket`: our append published its ticket before
            // this wait began, so the sync we lead always covers us.
            let started = std::time::Instant::now();
            let result = match &file {
                Some(f) => f.sync_data(),
                None => Ok(()),
            };
            fsync_ns.observe_ns(started.elapsed());
            batch.observe(covered);
            let mut st = self.state.lock();
            st.leading = false;
            match result {
                Ok(()) => st.synced = st.synced.max(target),
                Err(e) => st.failed = Some(e.to_string()),
            }
            drop(st);
            self.synced.notify_all();
        }
    }
}

/// The open write-ahead log of one durable store: sealed segments plus
/// the active `wal.log`.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    /// The active segment. Shared (`Arc`) with the group-commit leader,
    /// which syncs it outside the store lock.
    file: Arc<File>,
    /// Append offset into the active segment: bytes of validated frames.
    len: u64,
    /// Sealed segments still on disk, ascending `(index, bytes)`.
    sealed: Vec<(u64, u64)>,
    /// Rotation index the next seal will use.
    next_seal: u64,
    /// Active-segment size bound that triggers rotation; 0 disables.
    segment_bytes: u64,
    sync: WalSync,
    /// Monotone append counter — the group-commit ticket source.
    appends: u64,
    group: Arc<GroupCommit>,
}

/// Replays frames from `buf` into `records`, returning the byte offset
/// of the first invalid frame (== `buf.len()` for a clean log). An
/// intact frame holding garbage stops replay exactly like a torn frame.
fn replay_into(buf: &[u8], records: &mut Vec<Record>) -> usize {
    let mut offset = 0usize;
    loop {
        match decode_frame(buf, offset) {
            Ok(None) => break,
            Ok(Some((payload, next))) => match decode_record(payload) {
                Some(record) => {
                    records.push(record);
                    offset = next;
                }
                None => break,
            },
            Err(_) => break,
        }
    }
    offset
}

impl Wal {
    /// Opens (creating if absent) the log inside `dir`, replaying every
    /// valid record: sealed segments in rotation order, then the active
    /// `wal.log`. The first invalid frame anywhere ends the replay — a
    /// torn tail, the expected residue of a crash mid-append, is
    /// truncated away and every *later* segment (necessarily written
    /// after the tear) is deleted, so the next append starts on a frame
    /// boundary of a log whose every byte was replayed.
    pub(crate) fn open(dir: &Path) -> Result<(Wal, Vec<Record>), WalError> {
        let mut sealed_files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(index) = entry.file_name().to_str().and_then(sealed_index) {
                sealed_files.push((index, entry.path()));
            }
        }
        sealed_files.sort();

        let mut records = Vec::new();
        let mut sealed = Vec::new();
        let mut torn = false;
        for (index, path) in &sealed_files {
            if torn {
                // Newer than a tear: its records would replay out of
                // order past a hole, resurrecting a suffix the store
                // never acknowledged as following the lost records.
                std::fs::remove_file(path)?;
                continue;
            }
            let buf = std::fs::read(path)?;
            let consumed = replay_into(&buf, &mut records);
            if consumed < buf.len() {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(consumed as u64)?;
                torn = true;
            }
            sealed.push((*index, consumed as u64));
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(ACTIVE_SEGMENT))?;
        let mut offset = 0usize;
        if torn {
            file.set_len(0)?;
        } else {
            let mut buf = Vec::new();
            file.read_to_end(&mut buf)?;
            offset = replay_into(&buf, &mut records);
            if (offset as u64) < buf.len() as u64 {
                file.set_len(offset as u64)?;
            }
        }
        file.seek(SeekFrom::Start(offset as u64))?;

        let next_seal = sealed.last().map_or(1, |(i, _)| i + 1);
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                file: Arc::new(file),
                len: offset as u64,
                sealed,
                next_seal,
                segment_bytes: DEFAULT_SEGMENT_BYTES,
                sync: WalSync::default(),
                appends: 0,
                group: Arc::new(GroupCommit::new()),
            },
            records,
        ))
    }

    pub(crate) fn set_sync(&mut self, sync: WalSync) {
        self.sync = sync;
    }

    pub(crate) fn sync_mode(&self) -> WalSync {
        self.sync
    }

    pub(crate) fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes;
    }

    pub(crate) fn group(&self) -> &Arc<GroupCommit> {
        &self.group
    }

    /// Appends the framed `payloads` in order with one `write(2)`; the
    /// records are kernel-durable when this returns. Under
    /// [`WalSync::Always`] the returned ticket must be passed to
    /// [`GroupCommit::wait_durable`] (after releasing the store lock)
    /// before the writes are acknowledged — the fsync itself is deferred
    /// to the group-commit leader. One call is one ticket, however many
    /// records it carries.
    ///
    /// Mirrors the replay-side limits: a payload over `MAX_RECORD_LEN`
    /// refuses the whole call *here* — were it written, recovery would
    /// reject its frame as corrupt and truncate it (and everything after
    /// it) away, turning an acknowledged write into silent data loss. And
    /// on a write failure the active segment is rolled back to the
    /// pre-append offset, so a write reported as failed cannot leave a
    /// complete frame behind to resurrect on recovery. A crash mid-write
    /// can still tear the batch; recovery then keeps a prefix of it.
    pub(crate) fn append_many<S: AsRef<str>>(
        &mut self,
        payloads: &[S],
    ) -> std::io::Result<Option<u64>> {
        let mut bytes = 0;
        for payload in payloads {
            let len = payload.as_ref().len();
            if len as u64 > MAX_RECORD_LEN as u64 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("record of {len} bytes exceeds the WAL limit of {MAX_RECORD_LEN}"),
                ));
            }
            bytes += FRAME_HEADER + len;
        }
        if self.segment_bytes > 0 && self.len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(bytes);
        for payload in payloads {
            push_frame(payload.as_ref(), &mut frame);
        }
        if let Err(e) = (&*self.file).write_all(&frame) {
            // Best effort: discard the partial frame so the reported
            // failure and the on-disk state agree. If even this fails,
            // the store's sticky failure flag stops further writes,
            // bounding the damage to this one ambiguous record.
            let _ = self.file.set_len(self.len);
            let _ = (&*self.file).seek(SeekFrom::Start(self.len));
            return Err(e);
        }
        self.len += frame.len() as u64;
        self.appends += 1;
        if self.sync == WalSync::Always {
            self.group
                .record_append(self.appends, Arc::clone(&self.file));
            Ok(Some(self.appends))
        } else {
            Ok(None)
        }
    }

    /// Seals the active segment and starts a fresh one, returning the
    /// sealed index (or the last one, when the active segment was empty
    /// and there was nothing to seal). The outgoing segment is fsynced
    /// *before* the rename regardless of sync policy — that invariant is
    /// what lets the group-commit leader sync only the active file and
    /// [`Wal::sync`] ignore sealed segments entirely.
    pub(crate) fn rotate(&mut self) -> std::io::Result<u64> {
        if self.len == 0 {
            return Ok(self.next_seal - 1);
        }
        self.file.sync_data()?;
        let index = self.next_seal;
        std::fs::rename(
            self.dir.join(ACTIVE_SEGMENT),
            self.dir.join(sealed_name(index)),
        )?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.dir.join(ACTIVE_SEGMENT))?;
        // Persist the rename + create before mutating in-memory state, so
        // a crash right here recovers the sealed file under its new name.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.sealed.push((index, self.len));
        self.next_seal = index + 1;
        self.file = Arc::new(file);
        self.len = 0;
        Ok(index)
    }

    /// Deletes sealed segments with index ≤ `boundary` (their records are
    /// covered by a written snapshot).
    pub(crate) fn drop_sealed_through(&mut self, boundary: u64) -> std::io::Result<()> {
        let mut failed: Option<std::io::Error> = None;
        let dir = &self.dir;
        self.sealed.retain(|(index, _)| {
            if *index > boundary || failed.is_some() {
                return true;
            }
            match std::fs::remove_file(dir.join(sealed_name(*index))) {
                Ok(()) => false,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                Err(e) => {
                    failed = Some(e);
                    true
                }
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Total log length in bytes across every segment (diagnostics and
    /// crash-point tests).
    pub(crate) fn len(&self) -> u64 {
        self.len + self.sealed.iter().map(|(_, bytes)| bytes).sum::<u64>()
    }

    /// Number of on-disk segment files (sealed + active).
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.sealed.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{crc32, encode_frame, CRC32_TABLES};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// Slicing-by-8 equals the bytewise reference for every length up to
    /// eight words (each remainder, at every alignment the chunks see)
    /// and for pseudo-random buffers of every size class.
    #[test]
    fn crc32_slicing_by_8_matches_the_bytewise_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
            assert_eq!(
                crc32(&buf[3..3 + len]),
                crc32_bytewise(&buf[3..3 + len]),
                "len {len} at offset 3"
            );
        }
        for _ in 0..200 {
            let start = next() as usize % buf.len();
            let len = next() as usize % (buf.len() - start + 1);
            let slice = &buf[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}..+{len}");
        }
    }

    #[test]
    fn frame_roundtrip_and_torn_tail() {
        let a = encode_frame("{\"op\":\"ckpt\",\"rep\":1}");
        let b = encode_frame("{\"op\":\"ckpt\",\"rep\":2}");
        let mut buf = a.clone();
        buf.extend_from_slice(&b);

        let (p1, next) = decode_frame(&buf, 0).unwrap().unwrap();
        assert_eq!(p1, "{\"op\":\"ckpt\",\"rep\":1}");
        let (p2, end) = decode_frame(&buf, next).unwrap().unwrap();
        assert_eq!(p2, "{\"op\":\"ckpt\",\"rep\":2}");
        assert_eq!(end, buf.len());
        assert!(decode_frame(&buf, end).unwrap().is_none());

        // Every possible torn tail of the second frame fails cleanly.
        for cut in next + 1..buf.len() {
            assert!(decode_frame(&buf[..cut], next).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let frame = encode_frame("{\"op\":\"ckpt\",\"rep\":11111111}");
        for i in FRAME_HEADER..frame.len() {
            let mut buf = frame.clone();
            buf[i] ^= 0x04;
            assert!(
                decode_frame(&buf, 0).is_err(),
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut buf = vec![0xffu8; 32];
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&buf, 0).is_err());
    }

    /// Appends must refuse what replay would reject: an oversized record
    /// written today is an acknowledged write silently truncated away on
    /// the next recovery.
    #[test]
    fn oversized_record_refused_at_append_not_lost_at_replay() {
        let dir = std::env::temp_dir().join(format!("safeweb-wal-big-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        let huge = " ".repeat(MAX_RECORD_LEN as usize + 1);
        let small = "{\"op\":\"ckpt\",\"rep\":1}".to_string();
        // One oversized record refuses its whole batch.
        assert!(wal.append_many(&[small.clone(), huge]).is_err());
        // Nothing reached the log; it stays fully usable.
        assert_eq!(wal.len(), 0);
        wal.append_many(&[small.as_str(), "{\"op\":\"ckpt\",\"rep\":2}"])
            .unwrap();
        drop(wal);
        let (wal, records) = Wal::open(&dir).unwrap();
        assert_eq!(
            records,
            vec![Record::Checkpoint { rep: 1 }, Record::Checkpoint { rep: 2 }]
        );
        assert!(wal.len() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_replay_spans_them() {
        let dir = std::env::temp_dir().join(format!("safeweb-wal-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.set_segment_bytes(1); // every append lands in a fresh segment
        for rep in 1..=5u64 {
            wal.append_many(&[format!("{{\"op\":\"ckpt\",\"rep\":{rep}}}")])
                .unwrap();
        }
        assert_eq!(wal.segments(), 5); // 4 sealed + active
        let total = wal.len();
        drop(wal);

        let (mut wal, records) = Wal::open(&dir).unwrap();
        let reps: Vec<u64> = records
            .iter()
            .map(|r| match r {
                Record::Checkpoint { rep } => *rep,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(reps, vec![1, 2, 3, 4, 5]);
        assert_eq!(wal.len(), total);

        // A snapshot boundary prunes everything it covers, and nothing
        // is left to replay.
        let boundary = wal.rotate().unwrap();
        wal.drop_sealed_through(boundary).unwrap();
        assert_eq!(wal.segments(), 1);
        assert_eq!(wal.len(), 0);
        drop(wal);
        let (_, records) = Wal::open(&dir).unwrap();
        assert!(records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn frame in a sealed segment (crash inside the seal fsync
    /// window, or byte rot) must end replay there: the tail of that
    /// segment is truncated and every later segment — written after the
    /// tear — is deleted, never replayed past the hole.
    #[test]
    fn torn_sealed_segment_discards_later_segments() {
        let dir = std::env::temp_dir().join(format!("safeweb-wal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.set_segment_bytes(1);
        for rep in 1..=4u64 {
            wal.append_many(&[format!("{{\"op\":\"ckpt\",\"rep\":{rep}}}")])
                .unwrap();
        }
        drop(wal);

        // Tear the tail of the second sealed segment.
        let victim = dir.join(sealed_name(2));
        let bytes = std::fs::read(&victim).unwrap();
        let f = OpenOptions::new().write(true).open(&victim).unwrap();
        f.set_len(bytes.len() as u64 - 3).unwrap();
        drop(f);

        let (wal, records) = Wal::open(&dir).unwrap();
        assert_eq!(records, vec![Record::Checkpoint { rep: 1 }]);
        assert_eq!(wal.segments(), 3); // segments 1, 2 (emptied) + active
        assert!(!dir.join(sealed_name(3)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_acks_never_outrun_the_sync() {
        let dir = std::env::temp_dir().join(format!("safeweb-wal-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.set_sync(WalSync::Always);
        let t1 = wal
            .append_many(&["{\"op\":\"ckpt\",\"rep\":1}"])
            .unwrap()
            .unwrap();
        let t2 = wal
            .append_many(&["{\"op\":\"ckpt\",\"rep\":2}"])
            .unwrap()
            .unwrap();
        assert!(t2 > t1);
        let group = Arc::clone(wal.group());
        // Waiting on the later ticket first still covers the earlier one:
        // the leader syncs up to the highest appended ticket.
        group.wait_durable(t2).unwrap();
        group.wait_durable(t1).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
