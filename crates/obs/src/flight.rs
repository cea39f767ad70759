//! The flight recorder: a bounded [`Ring`] of complete span trees kept for
//! post-mortem dumps.
//!
//! Each shard worker retains the last [`FLIGHT_CAPACITY`] span trees it
//! flushed (plus every anomalous tree that bypassed sampling). On a shard
//! panic, a checkpoint failure, or an injected fault, the ring is dumped
//! to a CRC-framed file so the traces leading up to the incident survive
//! the process; at any time it can also be read over the wire via the
//! `Flight` view — reads are non-destructive, so a poller like
//! `richnote-top` does not race the post-mortem path.
//!
//! # Dump file format
//!
//! ```text
//! | magic: 8 bytes | crc32: u32 LE | len: u64 LE | JSON: len bytes |
//! | "RNFLT01\n"    | of JSON body  | JSON length | FlightDump      |
//! ```
//!
//! The same magic/CRC/length framing as checkpoint files, so the same
//! torn-write detection applies: a reader rejects bad magic, a length
//! beyond the file, or a CRC mismatch.

use crate::frame::{self, BlobError};
use crate::ring::Ring;
use crate::span::SpanTree;
use serde::{Deserialize, Serialize};
use std::path::Path;

pub use crate::frame::crc32;

/// Magic prefix of a flight-recorder dump file.
pub const FLIGHT_MAGIC: &[u8; 8] = b"RNFLT01\n";

/// Span trees a shard's flight recorder retains (the recorder is on
/// exactly when tracing is): enough recent history for a post-mortem,
/// small enough to write out on the panic path.
pub const FLIGHT_CAPACITY: usize = 64;

/// A serialized cut of one shard's flight recorder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Shard the recorder belongs to.
    pub shard: usize,
    /// Why the dump was taken (`request`, `shard_panic`,
    /// `checkpoint_failure`, `fault_injected`).
    pub reason: String,
    /// Retained span trees, oldest first.
    pub trees: Vec<SpanTree>,
    /// Trees evicted from the ring since it was created.
    pub dropped: u64,
}

impl FlightDump {
    /// A non-destructive cut of `ring` for `shard` with the given `reason`.
    pub fn cut(ring: &Ring<SpanTree>, shard: usize, reason: &str) -> FlightDump {
        FlightDump {
            shard,
            reason: reason.to_string(),
            trees: ring.iter().cloned().collect(),
            dropped: ring.dropped(),
        }
    }
}

/// Writes a dump as a CRC-framed file, fsyncing before returning so a
/// dump taken on the panic path survives the process dying right after.
pub fn write_flight_file(path: &Path, dump: &FlightDump) -> std::io::Result<()> {
    let body = serde_json::to_string(dump)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    frame::write_blob_file(path, FLIGHT_MAGIC, body.as_bytes())
}

/// Reads and validates a CRC-framed dump file, describing exactly what
/// is wrong when it does not verify.
pub fn read_flight_file(path: &Path) -> Result<FlightDump, String> {
    let blob = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let body = frame::decode_blob(&blob, FLIGHT_MAGIC).map_err(|e| match e {
        BlobError::TruncatedHeader { len } => {
            format!("{}: truncated header ({len} bytes)", path.display())
        }
        BlobError::BadMagic { found } => format!("{}: bad magic {found:?}", path.display()),
        BlobError::LengthMismatch { header, actual } => {
            format!("{}: body is {actual} bytes, header says {header}", path.display())
        }
        BlobError::Crc { want, got } => {
            format!("{}: crc mismatch (want {want:#010x}, got {got:#010x})", path.display())
        }
    })?;
    let text = std::str::from_utf8(body).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(text).map_err(|e| format!("{}: bad JSON: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn tree(trace: u64) -> SpanTree {
        SpanTree::assemble(&[
            SpanRecord::publish(trace, 1, 42),
            SpanRecord::queued(trace, 0, 0, 5, 42),
        ])
        .pop()
        .expect("one tree")
    }

    #[test]
    fn cut_is_non_destructive_and_roundtrips_with_valid_crc() {
        let dir = std::env::temp_dir().join(format!("rnflt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight-shard-3.rnfl");
        let mut r = Ring::new(2);
        for t in 1..=4 {
            r.push(tree(t));
        }
        let dump = FlightDump::cut(&r, 3, "shard_panic");
        assert_eq!((dump.shard, dump.reason.as_str(), dump.dropped), (3, "shard_panic", 2));
        assert_eq!(dump.trees.iter().map(|t| t.trace).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(r.iter().count(), 2, "reads are non-destructive");
        write_flight_file(&path, &dump).unwrap();
        assert_eq!(read_flight_file(&path).unwrap(), dump);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_dump_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("rnflt-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight-shard-1.rnfl");
        let mut r = Ring::new(2);
        r.push(tree(5));
        write_flight_file(&path, &FlightDump::cut(&r, 1, "request")).unwrap();

        let orig = std::fs::read(&path).unwrap();

        // Flip one payload byte: the CRC must catch it.
        let mut blob = orig.clone();
        let last = blob.len() - 2;
        blob[last] ^= 0x40;
        std::fs::write(&path, &blob).unwrap();
        let err = read_flight_file(&path).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");

        // Truncation is caught before the CRC is even computed.
        std::fs::write(&path, &orig[..10]).unwrap();
        let err = read_flight_file(&path).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Wrong magic.
        let mut blob = orig.clone();
        blob[0] = b'X';
        std::fs::write(&path, &blob).unwrap();
        let err = read_flight_file(&path).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
