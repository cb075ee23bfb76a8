//! Snapshot files: the compaction partner of the [WAL](crate::wal).
//!
//! A snapshot captures the whole store — sequence number, replication
//! checkpoint, every live document — in the WAL's length-prefixed,
//! checksummed [framing](crate::frame): one meta frame
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
//!
//! The file streams through a buffer of at most [`WRITE_BUFFER`] bytes,
//! so writing a large store costs no transient copy of the whole file.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use safeweb_json::Value;

use crate::document::Document;
use crate::frame::{decode_frame, frame_header};
use crate::wal::{doc_from_value, write_doc, WalError};

/// The snapshot writer's buffer (64 KiB). A frame larger than this goes
/// to the file without being copied into it.
const WRITE_BUFFER: usize = 64 * 1024;

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
/// document by reference into one reused payload buffer and streaming
/// the frames through a [`WRITE_BUFFER`]-byte buffer.
pub(crate) fn write<'a>(
    dir: &Path,
    seq: u64,
    rep_checkpoint: u64,
    docs: impl ExactSizeIterator<Item = &'a Document>,
) -> std::io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    let mut out = BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?);
    let mut frame = |payload: &str| -> std::io::Result<()> {
        out.write_all(&frame_header(payload))?;
        out.write_all(payload.as_bytes())
    };
    let mut meta = Value::object();
    meta.set("snapshot", 1);
    meta.set("seq", seq as i64);
    meta.set("rep", rep_checkpoint as i64);
    meta.set("docs", docs.len() as i64);
    frame(&meta.to_json())?;
    let mut payload = String::new();
    for doc in docs {
        payload.clear();
        write_doc(doc, None, None, &mut payload);
        frame(&payload)?;
    }
    let file = out.into_inner().map_err(|e| e.into_error())?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Revision;
    use crate::frame::{encode_frame, push_frame};
    use proptest::test_runner::TestRng;
    use safeweb_json::jobject;
    use safeweb_labels::{Label, LabelSet};

    /// The whole snapshot file in one buffer, as this module wrote it
    /// before it streamed.
    fn one_buffer(seq: u64, rep_checkpoint: u64, docs: &[Document]) -> Vec<u8> {
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
        out
    }

    /// A random store: documents of a few hundred bytes, now and then one
    /// larger than the write buffer, under a few label sets.
    fn random_docs(rng: &mut TestRng) -> Vec<Document> {
        let label_sets = [
            LabelSet::new(),
            LabelSet::singleton(Label::conf("ecric.org.uk", "mdt/addenbrookes")),
            LabelSet::singleton(Label::int("ecric.org.uk", "unit/\"storage\"")),
        ];
        (0..rng.usize_in(0, 400))
            .map(|i| {
                let text_len = if rng.gen_bool(0.01) {
                    rng.usize_in(WRITE_BUFFER, 2 * WRITE_BUFFER)
                } else {
                    rng.usize_in(0, 300)
                };
                let body = jobject! {
                    "n" => i,
                    "marker" => rng.next_u64() as i64,
                    "text" => "é\"x".repeat(text_len / 4),
                };
                let rev = Revision::first(&body.to_json());
                let labels = label_sets[rng.usize_in(0, label_sets.len())];
                Document::new(
                    format!("doc-{i:04}-{}", rng.next_u64()).into(),
                    rev,
                    labels,
                    body,
                )
            })
            .collect()
    }

    /// The streamed file is byte for byte the one-buffer encoding, and it
    /// reads back to the same documents.
    #[test]
    fn a_streamed_snapshot_is_the_one_buffer_encoding() {
        let dir =
            std::env::temp_dir().join(format!("safeweb-snapshot-stream-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for seed in 0..12 {
            let mut rng = TestRng::from_seed(seed);
            let docs = random_docs(&mut rng);
            let (seq, rep) = (rng.next_u64() >> 1, rng.next_u64() >> 1);
            write(&dir, seq, rep, docs.iter()).unwrap();
            let written = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
            assert!(written == one_buffer(seq, rep, &docs), "seed {seed}");
            let back = read(&dir).unwrap().unwrap();
            assert_eq!((back.seq, back.rep_checkpoint), (seq, rep));
            assert_eq!(back.docs, docs, "seed {seed}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
