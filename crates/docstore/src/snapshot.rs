//! Snapshot files: the compaction partner of the [WAL](crate::wal).
//!
//! A snapshot captures the whole store — sequence number, replication
//! checkpoint, every live document — in the same length-prefixed,
//! checksummed framing as the WAL: one meta frame
//! `{"snapshot":1,"seq":…,"rep":…,"docs":…}` followed by one frame per
//! document. Only *state* is serialised: views, prefix ranges and the
//! compacted changes feed are rebuilt from the documents on open.
//!
//! A snapshot is captured under the store lock right after the WAL's
//! active segment is rotated, so every record it covers sits in a sealed
//! segment; a background thread writes it, and the sealed segments it
//! covers are deleted only once it has landed. Writes are crash-atomic:
//! the bytes go to `snapshot.tmp`, are fsynced, and the file is renamed
//! over `snapshot.dat` (with a directory fsync). A crash at any point
//! leaves either the old snapshot + every segment or the new snapshot +
//! (possibly not yet pruned) sealed segments; replay skips WAL records at
//! or below the snapshot's sequence, so both recover to the same state.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use safeweb_json::Value;

use crate::document::Document;
use crate::wal::{decode_frame, doc_from_value, encode_frame, push_frame, write_doc, WalError};

/// File names inside a durable store's directory (the WAL's own segment
/// names live in [`crate::wal`]).
pub(crate) const SNAPSHOT_FILE: &str = "snapshot.dat";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// A decoded snapshot.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// The store sequence number at capture time.
    pub seq: u64,
    /// The replication checkpoint at capture time.
    pub rep_checkpoint: u64,
    /// Every live document.
    pub docs: Vec<Document>,
}

/// Writes a crash-atomic snapshot of `docs` into `dir`, serialising each
/// document by reference into one reused payload buffer.
pub(crate) fn write<'a>(
    dir: &Path,
    seq: u64,
    rep_checkpoint: u64,
    docs: impl ExactSizeIterator<Item = &'a Document>,
) -> std::io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut file = File::create(&tmp)?;
    let mut meta = Value::object();
    meta.set("snapshot", 1);
    meta.set("seq", seq as i64);
    meta.set("rep", rep_checkpoint as i64);
    meta.set("docs", docs.len() as i64);
    let mut out = encode_frame(&meta.to_json());
    let mut payload = String::new();
    for doc in docs {
        payload.clear();
        write_doc(doc, None, None, &mut payload);
        push_frame(&payload, &mut out);
    }
    file.write_all(&out)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Make the rename itself durable.
    if let Ok(d) = OpenOptions::new().read(true).open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads the snapshot in `dir`, or `None` if none has been written yet.
///
/// # Errors
///
/// Unlike the WAL's torn tail, any validation failure here is
/// [`WalError::Corrupt`]: the atomic rename means a snapshot on disk must
/// be complete, so damage implies lost documents and is surfaced rather
/// than silently recovered around.
pub(crate) fn read(dir: &Path) -> Result<Option<Snapshot>, WalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut buf = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut buf)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |offset: usize, reason: String| WalError::Corrupt {
        path: path.clone(),
        offset: offset as u64,
        reason,
    };
    let mut offset = 0usize;
    let next = |offset: &mut usize| -> Result<Value, WalError> {
        match decode_frame(&buf, *offset) {
            Ok(Some((payload, end))) => {
                let v = Value::parse(payload)
                    .map_err(|e| corrupt(*offset, format!("bad JSON: {e}")))?;
                *offset = end;
                Ok(v)
            }
            Ok(None) => Err(corrupt(*offset, "unexpected end of snapshot".to_string())),
            Err(reason) => Err(corrupt(*offset, reason)),
        }
    };

    let meta = next(&mut offset)?;
    let field = |name: &str| -> Result<u64, WalError> {
        meta.get(name)
            .and_then(Value::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| corrupt(0, format!("meta frame missing {name:?}")))
    };
    let (seq, rep_checkpoint, count) = (field("seq")?, field("rep")?, field("docs")?);
    let mut docs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let at = offset;
        let v = next(&mut offset)?;
        docs.push(doc_from_value(&v).ok_or_else(|| corrupt(at, "malformed document".to_string()))?);
    }
    Ok(Some(Snapshot {
        seq,
        rep_checkpoint,
        docs,
    }))
}
