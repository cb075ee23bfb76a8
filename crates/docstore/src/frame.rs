//! Record framing, shared by the write-ahead log and snapshot files:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────┐
//! │ len: u32 LE│ crc32: u32LE│ payload (len B)  │
//! └────────────┴─────────────┴──────────────────┘
//! ```
//!
//! where the CRC-32 (IEEE polynomial) covers the payload bytes. A frame
//! that is truncated, over-long, checksum-mismatched or not UTF-8 does
//! not decode.

/// Upper bound on one record's payload; a corrupt length header cannot
/// ask the replayer to allocate gigabytes.
pub(crate) const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing before each payload (length + checksum).
pub(crate) const FRAME_HEADER: usize = 8;

/// The slicing-by-8 tables, computed at compile time: `[0]` is the
/// classic bytewise table, and `[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold in with eight lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

pub(crate) static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 of `bytes` (IEEE polynomial — the same checksum gzip uses),
/// eight bytes per step.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Frames `payload` for appending: length, checksum, bytes.
#[cfg(test)]
pub(crate) fn encode_frame(payload: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    push_frame(payload, &mut frame);
    frame
}

/// Appends `payload`'s frame to `out`.
pub(crate) fn push_frame(payload: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload.as_bytes());
}

/// The header that precedes `payload` in its frame: length, then CRC-32.
pub(crate) fn frame_header(payload: &str) -> [u8; FRAME_HEADER] {
    let bytes = payload.as_bytes();
    let mut header = [0; FRAME_HEADER];
    header[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(bytes).to_le_bytes());
    header
}

/// One step of frame decoding: the payload at `buf[offset..]`, or the
/// reason the frame there is invalid. `Ok(None)` means a clean end of
/// input (no bytes past `offset`).
pub(crate) fn decode_frame(buf: &[u8], offset: usize) -> Result<Option<(&str, usize)>, String> {
    if offset == buf.len() {
        return Ok(None);
    }
    let rest = &buf[offset..];
    if rest.len() < FRAME_HEADER {
        return Err(format!("truncated frame header ({} bytes)", rest.len()));
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Err(format!("implausible record length {len}"));
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let Some(payload) = rest[FRAME_HEADER..].get(..len as usize) else {
        return Err(format!(
            "truncated payload ({} of {len} bytes)",
            rest.len() - FRAME_HEADER
        ));
    };
    if crc32(payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    Ok(Some((payload, offset + FRAME_HEADER + len as usize)))
}
