//! Coordinated checkpoint files: the daemon's crash-recovery substrate.
//!
//! # File format
//!
//! A checkpoint file `ckpt-{round:012}.rnck` is:
//!
//! ```text
//! +----------------+----------------+----------------+------------------+
//! | magic: 8 bytes | crc32: u32 LE  | len: u64 LE    | JSON: len bytes  |
//! +----------------+----------------+----------------+------------------+
//! ```
//!
//! where the CRC (IEEE polynomial) covers the JSON bytes. Files are written
//! to a temporary name, fsynced, then atomically renamed into place, so a
//! crash mid-write never clobbers the previous good checkpoint; the store
//! keeps the two most recent files and prunes the rest.
//!
//! # Consistency
//!
//! A checkpoint is *coordinated*: the server collects every shard's state
//! at a tick boundary (after a round completes, before the tick response is
//! sent), together with the session ack table and the subscription table,
//! into one [`ServerCheckpoint`]. Because ingest is quiesced at tick
//! boundaries from the single ticker's perspective, the file is a
//! consistent cut. A restarted server restores all of it or — if the
//! newest file is corrupt — fails loudly with [`ServerError::Checkpoint`]
//! rather than silently loading garbage or an older cut.

use crate::error::{ServerError, ServerResult};
use richnote_core::{PolicyCheckpoint, UserId};
use richnote_pubsub::Topic;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic of the checkpoint format.
pub const CKPT_MAGIC: &[u8; 8] = b"RNCKPT1\n";

/// Version of the JSON body layout inside the envelope.
///
/// Format 2 (the observability PR) switched [`UserCheckpoint::scheduler`]
/// from a bare RichNote `SchedulerCheckpoint` to the policy-tagged
/// [`PolicyCheckpoint`], so a restore rebuilds the *same* policy the
/// checkpoint came from. Format-1 files are rejected loudly at load.
pub const CKPT_FORMAT: u32 = 2;

/// One user's scheduler state inside a shard checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserCheckpoint {
    /// The user.
    pub user: UserId,
    /// Policy-tagged scheduler state (queue, Lyapunov state, config).
    pub scheduler: PolicyCheckpoint,
}

/// One shard's complete state at the checkpoint cut.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Shard index.
    pub shard: usize,
    /// Rounds completed (the shard's virtual clock).
    pub round: u64,
    /// Lifetime ingested counter.
    pub ingested: u64,
    /// Lifetime selected counter.
    pub selected: u64,
    /// Lifetime bytes budgeted.
    pub bytes_budgeted: u64,
    /// Lifetime bytes spent.
    pub bytes_spent: u64,
    /// Every user's scheduler state, ascending by user id.
    pub users: Vec<UserCheckpoint>,
}

/// A session's publish-dedup watermark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionEntry {
    /// Client-chosen session id.
    pub session: u64,
    /// Highest publish sequence number applied for the session.
    pub acked: u64,
}

/// One subscription edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubscriptionEntry {
    /// Subscriber.
    pub user: UserId,
    /// Topic followed.
    pub topic: Topic,
}

/// Everything a restarted server needs to resume byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerCheckpoint {
    /// Body layout version ([`CKPT_FORMAT`]).
    pub format: u32,
    /// The round this cut is consistent at (every shard has completed
    /// exactly this many rounds).
    pub round: u64,
    /// Round length the state was built with; a restore under a different
    /// round length would silently shift virtual time, so it is rejected.
    pub round_secs: f64,
    /// Publish-dedup watermarks per session.
    pub sessions: Vec<SessionEntry>,
    /// The full subscription table.
    pub subscriptions: Vec<SubscriptionEntry>,
    /// Per-shard states, ascending by shard index.
    pub shards: Vec<ShardCheckpoint>,
}

impl ServerCheckpoint {
    /// Total users captured across shards.
    pub fn users(&self) -> u64 {
        self.shards.iter().map(|s| s.users.len() as u64).sum()
    }
}

pub use richnote_obs::frame::crc32;

/// Writes and reads checkpoint files in one directory. See the module docs
/// for the format and consistency rules.
pub struct CheckpointStore {
    dir: PathBuf,
    /// Fault injection: every k-th save fails (0 = never).
    fail_every: u64,
    writes: AtomicU64,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created if missing). `fail_every` is the
    /// fault-injection knob from [`crate::FaultPlan::checkpoint_fail_every`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Checkpoint`] when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>, fail_every: u64) -> ServerResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| ServerError::Checkpoint {
            path: dir.display().to_string(),
            detail: format!("cannot create checkpoint directory: {e}"),
        })?;
        Ok(CheckpointStore { dir, fail_every, writes: AtomicU64::new(0) })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for(&self, round: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{round:012}.rnck"))
    }

    /// Writes `ck` atomically as the checkpoint for its round, then prunes
    /// all but the two newest files.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Checkpoint`] on any I/O failure or when the
    /// injected `fail_every` fault fires.
    pub fn save(&self, ck: &ServerCheckpoint) -> ServerResult<()> {
        let nth = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        let path = self.file_for(ck.round);
        if self.fail_every > 0 && nth.is_multiple_of(self.fail_every) {
            return Err(ServerError::Checkpoint {
                path: path.display().to_string(),
                detail: format!("injected write failure (save #{nth})"),
            });
        }
        let body = serde_json::to_string(ck).map_err(|e| ServerError::Checkpoint {
            path: path.display().to_string(),
            detail: format!("serialize: {e}"),
        })?;
        let blob = richnote_obs::frame::encode_blob(CKPT_MAGIC, body.as_bytes());

        let tmp = self.dir.join(format!(".ckpt-{:012}.tmp", ck.round));
        let io_err = |e: std::io::Error| ServerError::Checkpoint {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        {
            let mut f = fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(&blob).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        fs::rename(&tmp, &path).map_err(io_err)?;
        self.prune();
        Ok(())
    }

    /// Removes all but the two newest checkpoint files (best effort).
    fn prune(&self) {
        let mut files = self.list_checkpoints();
        while files.len() > 2 {
            let (_, path) = files.remove(0);
            let _ = fs::remove_file(path);
        }
    }

    /// All checkpoint files in the directory, ascending by round.
    fn list_checkpoints(&self) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(round) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".rnck"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((round, entry.path()));
            }
        }
        out.sort_unstable_by_key(|(round, _)| *round);
        out
    }

    /// Loads the newest checkpoint, or `Ok(None)` when the directory holds
    /// none.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Checkpoint`] when the newest file is
    /// truncated, has a bad magic or CRC, or carries an unknown format —
    /// deliberately *without* falling back to an older file, because
    /// resuming from an older cut would silently replay acknowledged work.
    pub fn load_latest(&self) -> ServerResult<Option<ServerCheckpoint>> {
        let files = self.list_checkpoints();
        let Some((_, path)) = files.last() else {
            return Ok(None);
        };
        let fail =
            |detail: String| ServerError::Checkpoint { path: path.display().to_string(), detail };
        let blob = fs::read(path).map_err(|e| fail(e.to_string()))?;
        let body = richnote_obs::frame::decode_blob(&blob, CKPT_MAGIC).map_err(|e| match e {
            richnote_obs::BlobError::TruncatedHeader { len } => {
                fail(format!("truncated: {len} bytes"))
            }
            richnote_obs::BlobError::BadMagic { .. } => fail("bad magic".into()),
            richnote_obs::BlobError::LengthMismatch { header, actual } => {
                fail(format!("truncated body: header says {header} bytes, file has {actual}"))
            }
            richnote_obs::BlobError::Crc { .. } => fail("CRC mismatch".into()),
        })?;
        let text =
            std::str::from_utf8(body).map_err(|e| fail(format!("body is not UTF-8: {e}")))?;
        let ck: ServerCheckpoint =
            serde_json::from_str(text).map_err(|e| fail(format!("bad body JSON: {e}")))?;
        if ck.format != CKPT_FORMAT {
            return Err(fail(format!("unsupported format {} (we speak {CKPT_FORMAT})", ck.format)));
        }
        Ok(Some(ck))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("richnote-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(round: u64) -> ServerCheckpoint {
        ServerCheckpoint {
            format: CKPT_FORMAT,
            round,
            round_secs: 3_600.0,
            sessions: vec![SessionEntry { session: 42, acked: 17 }],
            subscriptions: vec![SubscriptionEntry {
                user: UserId::new(1),
                topic: Topic::FriendFeed(UserId::new(1)),
            }],
            shards: vec![ShardCheckpoint {
                shard: 0,
                round,
                ingested: 9,
                selected: 4,
                bytes_budgeted: 1_000,
                bytes_spent: 800,
                users: Vec::new(),
            }],
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        assert!(store.load_latest().unwrap().is_none());
        let ck = sample(3);
        store.save(&ck).unwrap();
        assert_eq!(store.load_latest().unwrap(), Some(ck));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_wins_and_old_files_are_pruned() {
        let dir = temp_dir("prune");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        for round in [1, 2, 3, 4] {
            store.save(&sample(round)).unwrap();
        }
        assert_eq!(store.load_latest().unwrap().unwrap().round, 4);
        let files: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(files.len(), 2, "keeps exactly the two newest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_fails_loudly() {
        let dir = temp_dir("truncated");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        store.save(&sample(7)).unwrap();
        let path = store.file_for(7);
        let blob = fs::read(&path).unwrap();
        fs::write(&path, &blob[..blob.len() - 5]).unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(matches!(err, ServerError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_body_fails_crc() {
        let dir = temp_dir("crc");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        store.save(&sample(5)).unwrap();
        let path = store.file_for(5);
        let mut blob = fs::read(&path).unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        fs::write(&path, &blob).unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_is_rejected_loudly() {
        let dir = temp_dir("format");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        let mut ck = sample(1);
        ck.format = 1;
        store.save(&ck).unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(err.to_string().contains("unsupported format 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_latency_field_of_earlier_format_2_files_is_ignored() {
        // Until protocol v3 a shard checkpoint also carried a selection-
        // latency histogram; files written then must keep restoring.
        let dir = temp_dir("latency");
        let store = CheckpointStore::open(&dir, 0).unwrap();
        let ck = sample(3);
        let body = serde_json::to_string(&ck).unwrap().replace(
            "\"bytes_spent\":800,",
            "\"bytes_spent\":800,\"latency\":{\"counts\":[1],\"count\":1,\"sum_us\":0,\"max_us\":0},",
        );
        assert!(body.contains("latency"));
        let blob = richnote_obs::frame::encode_blob(CKPT_MAGIC, body.as_bytes());
        fs::write(store.file_for(3), blob).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap(), ck);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_fires_on_schedule() {
        let dir = temp_dir("ckfail");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        store.save(&sample(1)).unwrap();
        let err = store.save(&sample(2)).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        store.save(&sample(3)).unwrap();
        // The failed save left no file behind.
        assert_eq!(store.load_latest().unwrap().unwrap().round, 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
