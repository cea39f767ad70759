//! Shared CRC-framed file encoding: the one implementation behind
//! checkpoint files (`.rnck`), wire captures (`.rncap`), and incident
//! bundles (`.rnincident`).
//!
//! Two shapes live here:
//!
//! * **Single-blob files** — one body behind one envelope:
//!
//!   ```text
//!   | magic: 8 bytes | crc32: u32 LE | len: u64 LE | body: len bytes |
//!   ```
//!
//!   ([`encode_blob`], [`decode_blob`]); the caller writes the encoded
//!   blob (checkpoints write it to a temporary file and rename it).
//!
//! * **Streaming record files** — a magic followed by any number of
//!   framed records:
//!
//!   ```text
//!   | len: u32 LE | crc32: u32 LE | body: len bytes |
//!   ```
//!
//!   ([`write_record`], [`read_record`]), plus the tamper-evidence hash
//!   chain ([`chain_next`], [`chain_seed`]) that makes editing, dropping,
//!   or reordering records detectable even after a CRC fix-up.
//!
//! Errors are typed ([`BlobError`], [`RecordError`]) so each caller can
//! keep its own diagnostic vocabulary — checkpoint loads say
//! `"CRC mismatch"`, captures name the record index — while sharing one
//! decoder.

use std::io::{Read, Write};

/// CRC-32 (IEEE 802.3 polynomial, reflected), bit-at-a-time.
///
/// A table-free implementation is plenty: every caller frames at file or
/// record granularity, where ~1 cycle/bit is irrelevant next to I/O and
/// JSON encode, and it keeps the implementation obviously correct against
/// the standard test vectors.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// What can be wrong with a single-blob framed file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The file is shorter than `magic + crc + len`.
    TruncatedHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The first eight bytes are not the expected magic.
    BadMagic {
        /// The bytes actually found.
        found: Vec<u8>,
    },
    /// The body length does not match the header's claim.
    LengthMismatch {
        /// Length the header claims.
        header: u64,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The body does not match its stored CRC-32.
    Crc {
        /// CRC stored in the header.
        want: u32,
        /// CRC computed over the body actually read.
        got: u32,
    },
}

/// Frames `body` behind `magic` as one contiguous blob.
pub fn encode_blob(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(magic.len() + 12 + body.len());
    blob.extend_from_slice(magic);
    blob.extend_from_slice(&crc32(body).to_le_bytes());
    blob.extend_from_slice(&(body.len() as u64).to_le_bytes());
    blob.extend_from_slice(body);
    blob
}

/// Validates a single-blob file image and returns its body.
///
/// # Errors
///
/// The [`BlobError`] naming exactly what failed: a short header, a wrong
/// magic, a length mismatch, or a CRC mismatch.
pub fn decode_blob<'a>(blob: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], BlobError> {
    if blob.len() < magic.len() + 12 {
        return Err(BlobError::TruncatedHeader { len: blob.len() });
    }
    let (found, rest) = blob.split_at(magic.len());
    if found != magic {
        return Err(BlobError::BadMagic { found: found.to_vec() });
    }
    let want = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
    let len = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let body = &rest[12..];
    if body.len() as u64 != len {
        return Err(BlobError::LengthMismatch { header: len, actual: body.len() });
    }
    let got = crc32(body);
    if got != want {
        return Err(BlobError::Crc { want, got });
    }
    Ok(body)
}

/// What can be wrong with one streaming record.
#[derive(Debug)]
pub enum RecordError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The stream ended inside a record (header or body cut off).
    Truncated,
    /// The record claims a length beyond the caller's plausibility bound.
    TooLong {
        /// Length the record claims.
        len: u32,
    },
    /// The body does not match its stored CRC-32.
    Crc {
        /// CRC stored in the record envelope.
        stored: u32,
        /// CRC computed over the body actually read.
        computed: u32,
    },
}

/// Frames one record: `len: u32 LE | crc32: u32 LE | body`.
pub fn write_record<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(body).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one framed record, verifying length plausibility (`len` must not
/// exceed `max_len`) and the CRC. `Ok(None)` on a clean EOF at a record
/// boundary.
///
/// # Errors
///
/// The [`RecordError`] naming what failed; callers map it into their own
/// error vocabulary (and typically know which record index they are at).
pub fn read_record<R: Read>(r: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, RecordError> {
    let mut len_buf = [0u8; 4];
    match fill(r, &mut len_buf).map_err(RecordError::Io)? {
        0 => return Ok(None),
        n if n < len_buf.len() => return Err(RecordError::Truncated),
        _ => {}
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Err(RecordError::TooLong { len });
    }
    let mut crc_buf = [0u8; 4];
    if fill(r, &mut crc_buf).map_err(RecordError::Io)? < crc_buf.len() {
        return Err(RecordError::Truncated);
    }
    let stored = u32::from_le_bytes(crc_buf);
    let mut body = vec![0u8; len as usize];
    if fill(r, &mut body).map_err(RecordError::Io)? < body.len() {
        return Err(RecordError::Truncated);
    }
    let computed = crc32(&body);
    if computed != stored {
        return Err(RecordError::Crc { stored, computed });
    }
    Ok(Some(body))
}

/// Fills `buf`, returning how many bytes were read before EOF (retrying
/// `Interrupted`). A short count < `buf.len()` means the stream ended.
pub fn fill<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Hash-chain seed for a streaming file: its magic bytes read as a
/// big-endian integer, so an empty chain is still file-format specific.
pub const fn chain_seed(magic: &[u8; 8]) -> u64 {
    u64::from_be_bytes(*magic)
}

/// Advances the tamper-evidence chain across one record. FNV-style byte
/// mixing plus a splitmix64 finalizer: not cryptographic, but a CRC
/// fix-up after editing, dropping, or reordering a record will not
/// reproduce the chain of every subsequent record.
pub fn chain_next(prev: u64, ts_us: u64, session: u64, frame: &[u8]) -> u64 {
    let mut h = prev ^ ts_us.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= session.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    for &b in frame {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"RNTEST1\n";

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn blob_roundtrips() {
        let body = b"{\"hello\":42}";
        let blob = encode_blob(MAGIC, body);
        assert_eq!(decode_blob(&blob, MAGIC).unwrap(), body);
    }

    #[test]
    fn blob_errors_name_what_failed() {
        let blob = encode_blob(MAGIC, b"payload");
        assert_eq!(decode_blob(&blob[..10], MAGIC), Err(BlobError::TruncatedHeader { len: 10 }));

        let mut wrong = blob.clone();
        wrong[0] = b'X';
        match decode_blob(&wrong, MAGIC) {
            Err(BlobError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }

        let short = &blob[..blob.len() - 2];
        assert_eq!(
            decode_blob(short, MAGIC),
            Err(BlobError::LengthMismatch { header: 7, actual: 5 })
        );

        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(decode_blob(&flipped, MAGIC), Err(BlobError::Crc { .. })));
    }

    #[test]
    fn records_stream_and_stop_cleanly_at_eof() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        write_record(&mut buf, b"second record").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_record(&mut r, 1024).unwrap().unwrap(), b"first");
        assert_eq!(read_record(&mut r, 1024).unwrap().unwrap(), b"second record");
        assert!(read_record(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn record_errors_name_what_failed() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"whole").unwrap();

        let mut short = &buf[..buf.len() - 2];
        assert!(matches!(read_record(&mut short, 1024), Err(RecordError::Truncated)));

        let mut header_only = &buf[..2];
        assert!(matches!(read_record(&mut header_only, 1024), Err(RecordError::Truncated)));

        let mut r = &buf[..];
        assert!(matches!(read_record(&mut r, 3), Err(RecordError::TooLong { len: 5 })));

        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let mut r = &flipped[..];
        match read_record(&mut r, 1024) {
            Err(RecordError::Crc { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected Crc, got {other:?}"),
        }
    }

    #[test]
    fn chain_is_order_and_content_sensitive() {
        let seed = chain_seed(MAGIC);
        let a = chain_next(seed, 0, 1, b"x");
        assert_ne!(a, chain_next(seed, 0, 1, b"y"));
        assert_ne!(a, chain_next(seed, 0, 2, b"x"));
        assert_ne!(a, chain_next(seed, 1, 1, b"x"));
        assert_ne!(chain_next(a, 0, 1, b"x"), chain_next(chain_next(seed, 0, 1, b"y"), 0, 1, b"x"));
    }
}
