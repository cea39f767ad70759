//! Wire-level capture: append-only record files of inbound request frames.
//!
//! # File format
//!
//! ```text
//! +----------------------+
//! | magic: b"RNCAPT1\n"  |  8 bytes
//! +----------------------+
//! | header record        |  len: u32 LE | crc32: u32 LE | JSON body
//! +----------------------+
//! | data record 0        |  len: u32 LE | crc32: u32 LE | JSON body
//! | data record 1        |
//! | ...                  |
//! +----------------------+
//! ```
//!
//! The header body is a [`CaptureHeader`]: the format version plus the
//! recording daemon's full [`ServerConfig`], so a capture is
//! self-describing — `richnote-replay` spawns a replay daemon from the
//! embedded config without guessing flags. Each data body is a
//! [`CaptureRecord`]: a monotonically increasing index, a monotonic
//! timestamp (µs since recording started), the session id, a running
//! hash-chain value, and the frame payload — the *exact* JSON bytes of
//! the [`Request`] as produced by [`crate::wire::encode_frame_payload`],
//! so a replayed frame is byte-identical to the original.
//!
//! Every record carries a CRC-32 of its body (bit flips fail loudly) and
//! a chain value mixing the previous chain, the timestamp, the session
//! and the frame bytes (see [`chain_next`]) — fixing up one record's CRC
//! is not enough to splice, drop, or reorder records undetected. All
//! corruption surfaces as a typed [`CaptureError`] naming the offending
//! frame index, mirroring the checkpoint loud-failure rules: a capture
//! that cannot be trusted end-to-end is not silently half-replayed.
//!
//! # Recording off the hot path
//!
//! Connection threads never touch the file. [`RecordSink::offer`] clones
//! the request into a bounded channel; a dedicated writer thread
//! serializes, frames, and batch-flushes. When the channel is full (or
//! the writer hit an I/O error) the frame is *shed* — counted in the
//! `richnote_record_shed_total` counter — rather than stalling ingest:
//! the capture is an observability artifact, and observability must not
//! become backpressure (same doctrine as trace-ring eviction).

use crate::client::Client;
use crate::config::ServerConfig;
use crate::error::{ServerError, ServerResult};
use crate::server::Server;
use crate::wire::{encode_frame_payload, Request, MAX_FRAME_BYTES};
use richnote_core::registry::PolicyName;
use richnote_obs::derive_trace_id;
use richnote_obs::frame::{self, fill, RecordError};
use richnote_pubsub::Topic;
use richnote_trace::{TraceConfig, TraceGenerator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// First eight bytes of every capture file.
pub const CAPTURE_MAGIC: &[u8; 8] = b"RNCAPT1\n";

/// Body layout version carried in the header record.
pub const CAPTURE_FORMAT: u32 = 1;

/// Hash-chain seed: the magic bytes read as a big-endian integer, so an
/// empty chain is still file-format specific.
pub const CHAIN_SEED: u64 = frame::chain_seed(CAPTURE_MAGIC);

/// Bound on the record channel between connection threads and the writer;
/// overflow sheds (never blocks ingest).
const RECORD_CHANNEL_CAPACITY: usize = 8_192;

/// The capture file's first record: format version plus the recording
/// daemon's configuration, making every capture self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureHeader {
    /// Body layout version ([`CAPTURE_FORMAT`]).
    pub format: u32,
    /// Configuration of the daemon that recorded the capture.
    pub config: ServerConfig,
}

/// One recorded inbound frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureRecord {
    /// Zero-based position in the capture; gaps or repeats fail loudly.
    pub index: u64,
    /// Monotonic microseconds since recording started (synthesized as
    /// `index × 1000` in regenerated golden fixtures, so committed files
    /// are byte-stable).
    pub ts_us: u64,
    /// Session id of the connection the frame arrived on.
    pub session: u64,
    /// Running hash chain over `(prev, ts_us, session, frame)`; see
    /// [`chain_next`].
    pub chain: u64,
    /// The frame payload: the exact JSON text of the [`Request`].
    pub frame: String,
}

pub use richnote_obs::frame::chain_next;

/// Everything that can go wrong with a capture file. Data-record variants
/// name the zero-based frame index so a corrupt byte is locatable.
#[derive(Debug)]
pub enum CaptureError {
    /// The file could not be created, written, or removed.
    Io {
        /// Offending path.
        path: String,
        /// Underlying cause.
        detail: String,
    },
    /// The magic or the header record is missing, corrupt, or from an
    /// unknown format version.
    Header {
        /// Offending path.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The file ends mid-record: the tail frame was cut off.
    Truncated {
        /// Offending path.
        path: String,
        /// Index of the frame the truncation hit.
        index: u64,
    },
    /// A record's body does not match its stored CRC-32.
    Crc {
        /// Offending path.
        path: String,
        /// Index of the corrupt frame.
        index: u64,
        /// CRC stored in the record envelope.
        stored: u32,
        /// CRC computed over the body actually read.
        computed: u32,
    },
    /// A record's hash-chain value does not follow from its predecessor —
    /// a record was edited, dropped, spliced in, or reordered.
    Chain {
        /// Offending path.
        path: String,
        /// Index of the frame that broke the chain.
        index: u64,
        /// Chain value implied by the predecessor.
        expected: u64,
        /// Chain value the record carries.
        found: u64,
    },
    /// A record body is structurally invalid (bad JSON, wrong index,
    /// unreasonable length).
    Record {
        /// Offending path.
        path: String,
        /// Index of the invalid frame.
        index: u64,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Io { path, detail } => write!(f, "capture {path}: {detail}"),
            CaptureError::Header { path, detail } => {
                write!(f, "capture {path}: bad header: {detail}")
            }
            CaptureError::Truncated { path, index } => {
                write!(f, "capture {path}: frame {index} is truncated (file ends mid-record)")
            }
            CaptureError::Crc { path, index, stored, computed } => write!(
                f,
                "capture {path}: frame {index} fails its CRC \
                 (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CaptureError::Chain { path, index, expected, found } => write!(
                f,
                "capture {path}: frame {index} breaks the hash chain \
                 (expected {expected:#018x}, found {found:#018x}) — \
                 a record was edited, dropped, or reordered"
            ),
            CaptureError::Record { path, index, detail } => {
                write!(f, "capture {path}: frame {index} is invalid: {detail}")
            }
        }
    }
}

impl Error for CaptureError {}

/// Streams a capture file to disk: magic, header record, then
/// [`append`](CaptureWriter::append)ed data records.
pub struct CaptureWriter {
    path: String,
    w: BufWriter<File>,
    next_index: u64,
    chain: u64,
}

/// Frames one body: `len | crc32 | body`.
fn write_framed<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    frame::write_record(w, body)
}

impl CaptureWriter {
    /// Creates (truncating) the capture at `path` and writes the magic
    /// plus a header record embedding `config`.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] when the file cannot be created or
    /// written, [`CaptureError::Header`] when the header cannot serialize.
    pub fn create(path: impl AsRef<Path>, config: &ServerConfig) -> Result<Self, CaptureError> {
        let path = path.as_ref().display().to_string();
        let io_err =
            |e: std::io::Error| CaptureError::Io { path: path.clone(), detail: e.to_string() };
        let file = File::create(&path).map_err(io_err)?;
        let mut w = BufWriter::new(file);
        w.write_all(CAPTURE_MAGIC).map_err(io_err)?;
        let header = CaptureHeader { format: CAPTURE_FORMAT, config: config.clone() };
        let body = serde_json::to_string(&header)
            .map_err(|e| CaptureError::Header { path: path.clone(), detail: e.to_string() })?;
        write_framed(&mut w, body.as_bytes()).map_err(io_err)?;
        Ok(CaptureWriter { path, w, next_index: 0, chain: CHAIN_SEED })
    }

    /// Appends one frame, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on write failure,
    /// [`CaptureError::Record`] when the record cannot serialize.
    pub fn append(&mut self, ts_us: u64, session: u64, frame: &str) -> Result<u64, CaptureError> {
        let index = self.next_index;
        let chain = chain_next(self.chain, ts_us, session, frame.as_bytes());
        let rec = CaptureRecord { index, ts_us, session, chain, frame: frame.to_string() };
        let body = serde_json::to_string(&rec).map_err(|e| CaptureError::Record {
            path: self.path.clone(),
            index,
            detail: format!("serialize: {e}"),
        })?;
        write_framed(&mut self.w, body.as_bytes())
            .map_err(|e| CaptureError::Io { path: self.path.clone(), detail: e.to_string() })?;
        self.chain = chain;
        self.next_index += 1;
        Ok(index)
    }

    /// Flushes buffered records to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), CaptureError> {
        self.w
            .flush()
            .map_err(|e| CaptureError::Io { path: self.path.clone(), detail: e.to_string() })
    }

    /// Data records appended so far.
    pub fn records(&self) -> u64 {
        self.next_index
    }
}

/// Reads a capture file, verifying magic, CRCs, indices, and the hash
/// chain as it goes.
pub struct CaptureReader {
    path: String,
    r: BufReader<File>,
    next_index: u64,
    chain: u64,
    header: CaptureHeader,
}

impl CaptureReader {
    /// Opens `path` and validates the magic plus the header record.
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError::Io`] when the file cannot be opened or
    /// read, [`CaptureError::Header`] for a bad magic, a corrupt or
    /// truncated header, or an unknown format version.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CaptureError> {
        let path = path.as_ref().display().to_string();
        let io_err =
            |e: std::io::Error| CaptureError::Io { path: path.clone(), detail: e.to_string() };
        let hdr_err = |detail: String| CaptureError::Header { path: path.clone(), detail };
        let file = File::open(&path).map_err(io_err)?;
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        if fill(&mut r, &mut magic).map_err(io_err)? < magic.len() {
            return Err(hdr_err("file is shorter than the magic".to_string()));
        }
        if &magic != CAPTURE_MAGIC {
            return Err(hdr_err(format!("bad magic {magic:02x?}; not a capture file")));
        }
        let body = match read_framed(&mut r, &path, u64::MAX)? {
            Some(body) => body,
            None => return Err(hdr_err("file ends before the header record".to_string())),
        };
        let text =
            std::str::from_utf8(&body).map_err(|e| hdr_err(format!("header is not UTF-8: {e}")))?;
        let header: CaptureHeader =
            serde_json::from_str(text).map_err(|e| hdr_err(format!("header JSON: {e}")))?;
        if header.format != CAPTURE_FORMAT {
            return Err(hdr_err(format!(
                "format {} is not the supported {CAPTURE_FORMAT}",
                header.format
            )));
        }
        Ok(CaptureReader { path, r, next_index: 0, chain: CHAIN_SEED, header })
    }

    /// The recording daemon's configuration, from the header.
    pub fn config(&self) -> &ServerConfig {
        &self.header.config
    }

    /// The header record.
    pub fn header(&self) -> &CaptureHeader {
        &self.header
    }

    /// Reads the next data record; `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CaptureError`] for a truncated tail frame, a
    /// CRC mismatch, a broken hash chain, or an invalid record body —
    /// each naming the frame index.
    pub fn next_record(&mut self) -> Result<Option<CaptureRecord>, CaptureError> {
        let index = self.next_index;
        let Some(body) = read_framed(&mut self.r, &self.path, index)? else {
            return Ok(None);
        };
        let rec_err =
            |detail: String| CaptureError::Record { path: self.path.clone(), index, detail };
        let text =
            std::str::from_utf8(&body).map_err(|e| rec_err(format!("body is not UTF-8: {e}")))?;
        let rec: CaptureRecord =
            serde_json::from_str(text).map_err(|e| rec_err(format!("body JSON: {e}")))?;
        if rec.index != index {
            return Err(rec_err(format!(
                "record carries index {} where {index} was expected (spliced or reordered file?)",
                rec.index
            )));
        }
        let expected = chain_next(self.chain, rec.ts_us, rec.session, rec.frame.as_bytes());
        if rec.chain != expected {
            return Err(CaptureError::Chain {
                path: self.path.clone(),
                index,
                expected,
                found: rec.chain,
            });
        }
        self.chain = rec.chain;
        self.next_index += 1;
        Ok(Some(rec))
    }

    /// Opens `path` and reads every record, verifying the whole file.
    ///
    /// # Errors
    ///
    /// Any [`CaptureError`] from [`CaptureReader::open`] or
    /// [`CaptureReader::next_record`].
    pub fn read_all(
        path: impl AsRef<Path>,
    ) -> Result<(CaptureHeader, Vec<CaptureRecord>), CaptureError> {
        let mut reader = CaptureReader::open(path)?;
        let mut records = Vec::new();
        while let Some(rec) = reader.next_record()? {
            records.push(rec);
        }
        Ok((reader.header, records))
    }
}

/// Reads one framed body (`len | crc32 | body`), verifying the CRC.
/// `Ok(None)` on a clean EOF at a frame boundary. `index` is used for the
/// error (pass `u64::MAX` for the header, which reports as `Header`).
fn read_framed<R: Read>(
    r: &mut R,
    path: &str,
    index: u64,
) -> Result<Option<Vec<u8>>, CaptureError> {
    match frame::read_record(r, MAX_FRAME_BYTES + 4096) {
        Ok(body) => Ok(body),
        Err(RecordError::Io(e)) => {
            Err(CaptureError::Io { path: path.to_string(), detail: e.to_string() })
        }
        Err(RecordError::Truncated) => {
            if index == u64::MAX {
                Err(CaptureError::Header {
                    path: path.to_string(),
                    detail: "file ends inside the header record".to_string(),
                })
            } else {
                Err(CaptureError::Truncated { path: path.to_string(), index })
            }
        }
        Err(RecordError::TooLong { len }) => Err(CaptureError::Record {
            path: path.to_string(),
            index,
            detail: format!("record length {len} is not plausible"),
        }),
        Err(RecordError::Crc { stored, computed }) => {
            if index == u64::MAX {
                Err(CaptureError::Header {
                    path: path.to_string(),
                    detail: format!(
                        "header fails its CRC (stored {stored:#010x}, computed {computed:#010x})"
                    ),
                })
            } else {
                Err(CaptureError::Crc { path: path.to_string(), index, stored, computed })
            }
        }
    }
}

/// The daemon-side recording hook: a bounded channel into a writer thread
/// that owns the [`CaptureWriter`]. Dropping the sink drains the channel,
/// flushes, and joins the thread.
pub struct RecordSink {
    tx: Option<SyncSender<(u64, u64, Request)>>,
    handle: Option<JoinHandle<()>>,
    shed: Arc<AtomicU64>,
    started: Instant,
}

impl RecordSink {
    /// Creates the capture file (failing fast, before the daemon serves)
    /// and starts the writer thread.
    ///
    /// # Errors
    ///
    /// Any [`CaptureError`] from [`CaptureWriter::create`].
    pub fn create(path: &str, config: &ServerConfig) -> Result<RecordSink, CaptureError> {
        let mut writer = CaptureWriter::create(path, config)?;
        let (tx, rx) = sync_channel::<(u64, u64, Request)>(RECORD_CHANNEL_CAPACITY);
        let shed = Arc::new(AtomicU64::new(0));
        let shed_in_thread = Arc::clone(&shed);
        let path_owned = path.to_string();
        let handle = std::thread::Builder::new()
            .name("richnote-record".to_string())
            .spawn(move || {
                // After an I/O error the file is suspect; report once and
                // count everything further as shed instead of spamming.
                let mut dead = false;
                let fail = |e: CaptureError, dead: &mut bool| {
                    if !*dead {
                        eprintln!("richnote-server: recording to {path_owned} stopped: {e}");
                        *dead = true;
                    }
                };
                'drain: while let Ok(mut msg) = rx.recv() {
                    loop {
                        let (ts_us, session, req) = msg;
                        if dead {
                            shed_in_thread.fetch_add(1, Ordering::Relaxed);
                        } else {
                            match encode_frame_payload(&req) {
                                Ok(bytes) => {
                                    // Wire payloads are JSON text by
                                    // construction.
                                    let frame = String::from_utf8_lossy(&bytes);
                                    if let Err(e) = writer.append(ts_us, session, &frame) {
                                        fail(e, &mut dead);
                                        shed_in_thread.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(e) => {
                                    // An unencodable request cannot reach
                                    // us (it arrived on the wire), but
                                    // count it rather than trust that.
                                    let _ = e;
                                    shed_in_thread.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        match rx.try_recv() {
                            Ok(next) => msg = next,
                            Err(TryRecvError::Empty) => {
                                // Batch boundary: the channel drained, so
                                // flush before blocking on recv again.
                                if !dead {
                                    if let Err(e) = writer.flush() {
                                        fail(e, &mut dead);
                                    }
                                }
                                continue 'drain;
                            }
                            Err(TryRecvError::Disconnected) => break 'drain,
                        }
                    }
                }
                if !dead {
                    if let Err(e) = writer.flush() {
                        fail(e, &mut dead);
                    }
                }
            })
            .map_err(|e| CaptureError::Io { path: path.to_string(), detail: e.to_string() })?;
        Ok(RecordSink { tx: Some(tx), handle: Some(handle), shed, started: Instant::now() })
    }

    /// Offers one inbound frame for recording; sheds (and counts) when
    /// the channel is full. Never blocks.
    pub fn offer(&self, session: u64, req: &Request) {
        let Some(tx) = &self.tx else { return };
        let ts_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        if tx.try_send((ts_us, session, req.clone())).is_err() {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Frames shed so far (channel overflow or a dead writer).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

impl Drop for RecordSink {
    fn drop(&mut self) {
        // Dropping the sender disconnects the channel; the writer thread
        // drains what is queued, flushes, and exits.
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl From<CaptureError> for ServerError {
    fn from(e: CaptureError) -> Self {
        ServerError::Capture(e)
    }
}

/// Session id the golden workload records under.
pub const GOLDEN_SESSION: u64 = 7_001;

/// The fixed daemon configuration behind the committed golden fixture:
/// two shards, a queue roomy enough that nothing sheds (shedding order
/// under pressure depends on ingest/round interleaving, which wall-clock
/// timing controls), tracing on with an eviction-proof ring, and spans
/// sampled 1-in-1 so every publication grows a full tree.
pub fn golden_config() -> ServerConfig {
    ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .queue_capacity(65_536)
        .trace_capacity(262_144)
        .trace_sample(richnote_obs::SampleRate::ALL)
        .build()
        .expect("golden config is statically valid")
}

/// What [`record_golden`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenSummary {
    /// Data records in the capture.
    pub records: u64,
    /// Publications among them.
    pub pubs: u64,
}

/// Records the deterministic golden workload into `path`: spawns an
/// in-process daemon with [`golden_config`] plus `--record`, drives a
/// seeded single-connection workload through it (subscribe every
/// recipient, publish every trace item traced 1/1, tick every 64
/// publications, final sync + 8 ticks), then rewrites the capture with
/// synthesized timestamps (`index × 1000 µs`) so regenerating the fixture
/// is byte-stable across machines and runs.
///
/// # Errors
///
/// Any [`ServerError`] from the daemon or client, and
/// [`ServerError::Capture`] when recording shed frames (a shed golden
/// would silently lose workload) or the rewrite fails.
pub fn record_golden(
    path: &str,
    seed: u64,
    users: usize,
    days: u64,
) -> ServerResult<GoldenSummary> {
    record_golden_with_policy(path, seed, users, days, PolicyName::RichNote)
}

/// [`record_golden`] with an explicit shard scheduling policy for the
/// in-process daemon. The committed replay fixture is recorded under the
/// RichNote default; other policies are for local capture experiments
/// (e.g. `loadgen --record-golden ... --policy adaptive`).
pub fn record_golden_with_policy(
    path: &str,
    seed: u64,
    users: usize,
    days: u64,
    policy: PolicyName,
) -> ServerResult<GoldenSummary> {
    let tmp = format!("{path}.recording");
    let cfg = {
        let mut c = golden_config();
        c.policy = policy;
        c.record = Some(tmp.clone());
        c
    };
    let (addr, handle) = Server::spawn(cfg)?;
    let mut client = Client::builder(addr).no_retry().session(GOLDEN_SESSION).connect()?;

    let trace =
        TraceGenerator::new(TraceConfig { seed, n_users: users, days, ..TraceConfig::default() })
            .generate();

    let recipients: BTreeSet<_> = trace.items.iter().map(|i| i.recipient).collect();
    for user in recipients {
        client.subscribe(user, Topic::FriendFeed(user))?;
    }
    let mut pubs = 0u64;
    for item in &trace.items {
        let tid = derive_trace_id(seed, 0, item.id.value());
        client.publish_traced(Topic::FriendFeed(item.recipient), item.clone(), Some(tid))?;
        pubs += 1;
        if pubs.is_multiple_of(64) {
            client.tick(1)?;
        }
    }
    client.sync()?;
    client.tick(8)?;
    let shed = client.stats()?.snapshot.counter_total("richnote_record_shed_total");
    client.shutdown()?;
    handle.join().map_err(|_| ServerError::Frame("server thread panicked".to_string()))?;
    if shed > 0 {
        let _ = fs::remove_file(&tmp);
        return Err(CaptureError::Io {
            path: tmp,
            detail: format!("recording shed {shed} frames; the golden would be incomplete"),
        }
        .into());
    }

    // Rewrite with synthesized timestamps and a sanitized config so the
    // committed fixture is byte-stable and does not re-trigger recording
    // when replayed.
    let (header, records) = CaptureReader::read_all(&tmp)?;
    let mut clean_cfg = header.config;
    clean_cfg.record = None;
    let mut writer = CaptureWriter::create(path, &clean_cfg)?;
    let total = records.len() as u64;
    for rec in records {
        writer.append(rec.index * 1000, rec.session, &rec.frame)?;
    }
    writer.flush()?;
    fs::remove_file(&tmp)
        .map_err(|e| CaptureError::Io { path: tmp.clone(), detail: e.to_string() })?;
    Ok(GoldenSummary { records: total, pubs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_obs::crc32;
    use std::sync::atomic::AtomicU32;

    fn temp_path(tag: &str) -> String {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("rncap-test-{}-{tag}-{n}.rncap", std::process::id()))
            .display()
            .to_string()
    }

    fn sample_capture(path: &str, frames: &[&str]) {
        let mut w = CaptureWriter::create(path, &ServerConfig::default()).unwrap();
        for (i, f) in frames.iter().enumerate() {
            w.append(i as u64 * 1000, 42, f).unwrap();
        }
        w.flush().unwrap();
    }

    #[test]
    fn roundtrips_records_and_header() {
        let path = temp_path("roundtrip");
        let frames = ["{\"Metrics\":null}", "{\"Tick\":{\"rounds\":3}}", "{\"Stats\":null}"];
        sample_capture(&path, &frames);
        let (header, records) = CaptureReader::read_all(&path).unwrap();
        assert_eq!(header.format, CAPTURE_FORMAT);
        assert_eq!(header.config, ServerConfig::default());
        assert_eq!(records.len(), 3);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.index, i as u64);
            assert_eq!(rec.ts_us, i as u64 * 1000);
            assert_eq!(rec.session, 42);
            assert_eq!(rec.frame, frames[i]);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn identical_inputs_write_identical_bytes() {
        // The committed golden fixture relies on regeneration being
        // byte-stable.
        let a = temp_path("stable-a");
        let b = temp_path("stable-b");
        let frames = ["{\"Metrics\":null}", "{\"Tick\":{\"rounds\":1}}"];
        sample_capture(&a, &frames);
        sample_capture(&b, &frames);
        assert_eq!(fs::read(&a).unwrap(), fs::read(&b).unwrap());
        let _ = fs::remove_file(&a);
        let _ = fs::remove_file(&b);
    }

    #[test]
    fn truncated_tail_frame_names_the_index() {
        let path = temp_path("trunc");
        sample_capture(&path, &["{\"Metrics\":null}", "{\"Stats\":null}"]);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = CaptureReader::read_all(&path).unwrap_err();
        match err {
            CaptureError::Truncated { index, .. } => assert_eq!(index, 1),
            other => panic!("expected Truncated, got {other}"),
        }
        assert!(err.to_string().contains("frame 1"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flipped_crc_names_the_index() {
        let path = temp_path("crc");
        sample_capture(&path, &["{\"Metrics\":null}", "{\"Stats\":null}"]);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the last record's body (the final byte of the
        // file), leaving its stored CRC stale.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = CaptureReader::read_all(&path).unwrap_err();
        match err {
            CaptureError::Crc { index, stored, computed, .. } => {
                assert_eq!(index, 1);
                assert_ne!(stored, computed);
            }
            other => panic!("expected Crc, got {other}"),
        }
        assert!(err.to_string().contains("frame 1"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn broken_hash_chain_names_the_index() {
        let path = temp_path("chain");
        // Hand-assemble a file whose second record carries a *wrong*
        // chain value but a *correct* CRC: only the chain check can
        // catch it.
        let cfg = ServerConfig::default();
        let mut w = CaptureWriter::create(&path, &cfg).unwrap();
        w.append(0, 42, "{\"Metrics\":null}").unwrap();
        w.flush().unwrap();
        drop(w);
        let forged = CaptureRecord {
            index: 1,
            ts_us: 1000,
            session: 42,
            chain: 0xDEAD_BEEF, // not what chain_next yields
            frame: "{\"Stats\":null}".to_string(),
        };
        let body = serde_json::to_string(&forged).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(body.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(body.as_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = CaptureReader::read_all(&path).unwrap_err();
        match err {
            CaptureError::Chain { index, expected, found, .. } => {
                assert_eq!(index, 1);
                assert_eq!(found, 0xDEAD_BEEF);
                assert_ne!(expected, found);
            }
            other => panic!("expected Chain, got {other}"),
        }
        assert!(err.to_string().contains("frame 1"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reordered_records_fail_the_index_check() {
        let path = temp_path("reorder");
        sample_capture(&path, &["{\"Metrics\":null}", "{\"Stats\":null}"]);
        let mut reader = CaptureReader::open(&path).unwrap();
        let first = reader.next_record().unwrap().unwrap();
        drop(reader);
        // A file holding only the *second* record's position but the
        // first record's body: index 0 where 0 is expected passes, but
        // splice it as record 0 of a fresh file after… simpler: append
        // record 0's body again, which claims index 0 at position 1.
        let body = serde_json::to_string(&first).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(body.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(body.as_bytes());
        fs::write(&path, &bytes).unwrap();
        let err = CaptureReader::read_all(&path).unwrap_err();
        match err {
            CaptureError::Record { index, ref detail, .. } => {
                assert_eq!(index, 2);
                assert!(detail.contains("index 0"), "{detail}");
            }
            ref other => panic!("expected Record, got {other}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_a_header_error() {
        let path = temp_path("magic");
        fs::write(&path, b"NOTACAPT________").unwrap();
        match CaptureReader::open(&path) {
            Err(CaptureError::Header { detail, .. }) => {
                assert!(detail.contains("magic"), "{detail}")
            }
            Err(other) => panic!("expected Header, got {other}"),
            Ok(_) => panic!("a forged magic must not open"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn chain_is_order_and_content_sensitive() {
        let a = chain_next(CHAIN_SEED, 0, 1, b"x");
        assert_ne!(a, chain_next(CHAIN_SEED, 0, 1, b"y"));
        assert_ne!(a, chain_next(CHAIN_SEED, 0, 2, b"x"));
        assert_ne!(a, chain_next(CHAIN_SEED, 1, 1, b"x"));
        assert_ne!(
            chain_next(a, 0, 1, b"x"),
            chain_next(chain_next(CHAIN_SEED, 0, 1, b"y"), 0, 1, b"x")
        );
    }

    #[test]
    fn record_sink_records_requests_and_counts_nothing_shed() {
        let path = temp_path("sink");
        let cfg = ServerConfig::default();
        let sink = RecordSink::create(&path, &cfg).unwrap();
        sink.offer(9, &Request::Tick { rounds: 2 });
        sink.offer(9, &Request::Checkpoint);
        assert_eq!(sink.shed_count(), 0);
        drop(sink); // drains, flushes, joins
        let (_, records) = CaptureReader::read_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].session, 9);
        let req: Request = serde_json::from_str(&records[0].frame).unwrap();
        assert_eq!(req, Request::Tick { rounds: 2 });
        assert!(records[1].ts_us >= records[0].ts_us, "timestamps are monotonic");
        let _ = fs::remove_file(&path);
    }
}
