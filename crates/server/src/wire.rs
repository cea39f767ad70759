//! The wire protocol: versioned, length-prefixed JSON frames over TCP.
//!
//! # Frame layout (protocol v4)
//!
//! ```text
//! +-------------------+-----------+----------------------+
//! | len: u32 LE       | proto: u8 | payload: len bytes   |
//! +-------------------+-----------+----------------------+
//! ```
//!
//! `len` counts only the JSON payload (not the version byte). `proto` is
//! the low byte of [`PROTO_VERSION`] and is checked on every frame, so a
//! peer speaking another version fails fast with
//! [`ServerError::ProtoMismatch`] instead of a confusing JSON parse error.
//! Framing keeps the stream self-synchronising without scanning for
//! delimiters, and JSON keeps the protocol debuggable with a five-line
//! client in any language.
//!
//! # Session lifecycle
//!
//! 1. **Handshake.** The client sends [`Request::Hello`] carrying the
//!    protocol version it speaks and a client-chosen *session id* (nonzero
//!    to opt into publish deduplication, `0` to opt out). The server
//!    answers [`Response::Hello`] with its shard count and `resume_seq`:
//!    the highest publish sequence number it has already applied for this
//!    session (`0` for a fresh session). A reconnecting client drops every
//!    buffered publication with `seq <= resume_seq` and republishes the
//!    rest; the server treats republished duplicates as already applied.
//!    Any non-`Hello` request before the handshake is rejected with
//!    [`ErrorCode::HandshakeRequired`].
//! 2. **Publish + cumulative acks.** [`Request::Publish`] carries a
//!    per-session sequence number. The server does not answer each publish
//!    individually; instead it sends a cumulative [`Response::PubAck`]
//!    whenever its read buffer drains (i.e. before it would block waiting
//!    for the next frame) and always before answering any other request.
//!    `PubAck { seq }` acknowledges *every* publication with sequence
//!    number `<= seq`: once acked, a publication survives connection drops
//!    (it is routed, and on checkpoint-enabled servers persisted at the
//!    next checkpoint).
//! 3. **Other requests** are strict request/response: `Subscribe` →
//!    `Subscribed`, `Tick` → `Ticked`, `TickReport` → `TickReport`,
//!    `Observe(view)` → `Observed(..)`, `Checkpoint` → `Checkpointed`,
//!    `Drain` → `Drained`, `Shutdown` → `ShuttingDown`. A client must
//!    therefore be prepared to consume interleaved `PubAck` frames while
//!    waiting for any response.
//! 4. **Reads.** Every read-only question about the daemon's state is one
//!    request, [`Request::Observe`], carrying the [`View`] wanted; the
//!    answer is [`Response::Observed`] carrying the matching
//!    [`Observed`]. The metrics listener's HTTP paths serve the same
//!    views (see [`Observed::payload_json`]).
//! 5. **Errors.** Failures are typed: [`Response::Error`] carries an
//!    [`ErrorCode`] plus a human-readable message, and (except for
//!    unrecoverable framing errors) the connection stays open.
//!
//! # Compatibility
//!
//! Versions are not compatible on the wire: the version byte and the
//! `proto` field of `Hello` exist so that a peer from another version
//! draws a typed [`ErrorCode::ProtoMismatch`] at the handshake. v2 had
//! one request per read-only view (seven of them); v3 folds them into
//! `Observe`; v4 answers the `Trace` view with spans only
//! (`Observed::Trace { spans, dropped }`).
//!
//! The `Hello` exchange also negotiates a *frame codec* (see
//! [`crate::codec`]): the handshake itself always uses the JSON framing
//! above, and every frame after the server's `Hello` response uses the
//! negotiated codec. A peer that omits the `codec` field keeps speaking
//! JSON.

use crate::error::{ServerError, ServerResult};
use richnote_core::{ContentId, ContentItem, UserId};
use richnote_obs::{
    AlertEvent, AlertSnapshot, FlightDump, HistoryQuery, QueryResult, RegistrySnapshot, SloStatus,
    SloVerdict, SpanRecord, WatchdogVerdict,
};
use richnote_pubsub::Topic;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// The protocol version this build speaks. Sent in every frame header and
/// in the [`Request::Hello`] handshake.
pub const PROTO_VERSION: u32 = 4;

/// Upper bound on a frame payload; anything larger is a protocol error.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Most spans one [`Observed::Trace`] reply may carry, split across
/// the server ring and the shards, so the reply always serializes under
/// [`MAX_FRAME_BYTES`] (a span is well under 1 KiB of JSON).
/// Rings larger than the budget drain across several requests;
/// [`crate::Client::trace_dump`] keeps dumping until a batch comes back
/// empty, so callers still see one logical drain.
pub const TRACE_DUMP_EVENT_BUDGET: usize = 16_384;

/// Machine-readable failure classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The `Hello` carried an unsupported protocol version.
    ProtoMismatch,
    /// The server is draining and refuses new ingest.
    Draining,
    /// The request frame was structurally invalid.
    BadFrame,
    /// A non-`Hello` request arrived before the handshake.
    HandshakeRequired,
    /// A requested checkpoint could not be written.
    CheckpointFailed,
    /// Any other server-side failure.
    Internal,
}

/// Client-to-server messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// Protocol version the client speaks ([`PROTO_VERSION`]).
        proto: u32,
        /// Client-chosen session id for idempotent republish; `0` opts out
        /// of deduplication.
        session: u64,
        /// Richest frame codec the client is willing to speak for every
        /// post-handshake frame (`"json"` or `"binary"`; see
        /// [`crate::codec`]). Absent or unrecognized means JSON, so
        /// negotiation always has a floor.
        codec: Option<String>,
    },
    /// Registers `user` for `topic` in real-time mode. Acknowledged.
    Subscribe {
        /// Subscriber.
        user: UserId,
        /// Topic to follow.
        topic: Topic,
    },
    /// Publishes `item` on `topic`. Acknowledged cumulatively via
    /// [`Response::PubAck`]; see the module docs.
    Publish {
        /// Per-session sequence number, strictly increasing from 1.
        seq: u64,
        /// Topic published to.
        topic: Topic,
        /// Payload routed to every matching subscriber's shard.
        item: ContentItem,
        /// Causal trace id minted by the publisher; `None` (or an absent
        /// field) means untraced.
        trace: Option<u64>,
    },
    /// Advances every shard by `rounds` rounds of the selection loop.
    Tick {
        /// Rounds to run.
        rounds: u32,
    },
    /// Like `Tick`, but the response also carries the full per-user
    /// delivery log of the ticked rounds (for determinism audits; costly
    /// at scale).
    TickReport {
        /// Rounds to run.
        rounds: u32,
    },
    /// Reads one [`View`] of the daemon's state; answered by
    /// [`Response::Observed`]. Never changes scheduling state (the
    /// [`View::Trace`] rings are consumed by reading them).
    Observe(View),
    /// Forces a coordinated checkpoint now (requires a configured
    /// checkpoint directory).
    Checkpoint,
    /// Graceful shutdown: stop ingest, flush queues through one final
    /// round, checkpoint, exit.
    Drain,
    /// Immediate shutdown *without* checkpointing — crash semantics, used
    /// by the kill-and-restart tests.
    Shutdown,
}

/// What an [`Request::Observe`] asks to see. The daemon has one read
/// path: every view is answered by the same server function, over the
/// wire and (for `Stats`, `Health`, `Alerts` and `Query`) on the metrics
/// listener's `/metrics`, `/healthz`, `/alerts` and `/query` paths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum View {
    /// The merged registry snapshot (counters, gauges, histograms from
    /// every shard plus the server-side stage timers) with the daemon's
    /// uptime and build identity.
    Stats,
    /// The SLO engine's verdict: overall status, per-objective burn rates
    /// and budgets, shard liveness.
    Health,
    /// The alerting plane: every rule's state, the recent transition
    /// timeline, watchdog verdicts, the most recent incident bundle path.
    Alerts,
    /// Windowed analytics over the embedded metrics history (see
    /// [`richnote_obs::MetricsHistory`]): deltas, rates, and histogram
    /// quantiles for one family over the trailing window.
    Query(HistoryQuery),
    /// Drains every trace ring (server + shards). Rings reset on read; an
    /// empty reply means tracing is disabled (`trace_capacity = 0`) or
    /// nothing happened.
    Trace,
    /// Every shard's flight recorder (bounded ring of retained span
    /// trees). Non-destructive, so a live poller does not race the
    /// panic-path post-mortem dump.
    Flight,
}

/// Build identity of a running daemon, reported in [`StatsReply`] and
/// exported as the `richnote_build_info` gauge, so dashboards and
/// `richnote-top` can say *which* build produced the numbers they show.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Abbreviated git commit, or `"unknown"` outside a git checkout.
    pub git_sha: String,
    /// `"debug"` or `"release"` — perf numbers from a debug build are
    /// not comparable, and this field is how tools notice.
    pub profile: String,
}

impl BuildInfo {
    /// The identity of this binary, captured at compile time.
    pub fn current() -> Self {
        BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_sha: env!("RICHNOTE_GIT_SHA").to_string(),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        }
    }
}

/// The answer to [`View::Stats`]: the merged registry snapshot plus the
/// daemon's uptime and build identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Counters, gauges, and histograms merged across every shard plus
    /// the server-side stage timers.
    pub snapshot: RegistrySnapshot,
    /// Seconds since the daemon started serving.
    pub uptime_secs: u64,
    /// Which build produced these numbers.
    pub build: BuildInfo,
}

/// The SLO engine's verdict, answering [`View::Health`]. The same JSON
/// body is served on the metrics listener's `/healthz` path (HTTP 200
/// unless violating, then 503).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Worst status across objectives, shard liveness, watchdog verdicts
    /// and firing alerts.
    pub status: SloStatus,
    /// Seconds since the daemon started serving.
    pub uptime_secs: u64,
    /// Shard workers still alive (a dead shard degrades health).
    pub shards_alive: usize,
    /// Shard workers configured.
    pub shards_total: usize,
    /// Every objective's burn rates, budget, and firing windows.
    pub slos: Vec<SloVerdict>,
    /// Alert rules currently firing (each degrades health).
    pub alerts_firing: u64,
    /// Shards the watchdog currently flags; a shard wedged past the
    /// stall threshold makes the whole report `Violating`.
    pub watchdog: Vec<WatchdogVerdict>,
}

/// The alerting plane's current view, answering [`View::Alerts`]. The
/// same JSON body is served on the metrics listener's `/alerts` path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertsReply {
    /// Point-in-time state of every configured rule.
    pub alerts: Vec<AlertSnapshot>,
    /// Rules currently firing.
    pub firing: u64,
    /// Rules currently pending (condition true, hold not yet elapsed).
    pub pending: u64,
    /// Recent rule transitions, oldest first (bounded ring).
    pub timeline: Vec<AlertEvent>,
    /// Transitions evicted from the timeline since the daemon started.
    pub events_dropped: u64,
    /// Shards the watchdog currently flags (empty = all healthy).
    pub watchdog: Vec<WatchdogVerdict>,
    /// Path of the most recently written incident bundle, when any.
    pub last_incident: Option<String>,
}

/// One delivered notification, as reported by [`Response::TickReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// Round index the delivery happened in.
    pub round: u64,
    /// Receiving user.
    pub user: UserId,
    /// Delivered content.
    pub content: ContentId,
    /// Presentation level index chosen by the MCKP selector.
    pub level: u8,
}

/// Server-to-client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// Protocol version the server speaks.
        proto: u32,
        /// Number of shard workers.
        shards: usize,
        /// Highest publish sequence number already applied for this
        /// session (`0` for a fresh session).
        resume_seq: u64,
        /// The negotiated frame codec: the floor of the client's offer and
        /// what the server allows. Both sides switch to it for every frame
        /// after this response. Absent means JSON.
        codec: Option<String>,
    },
    /// Subscription acknowledged.
    Subscribed,
    /// Cumulative publish acknowledgement: every publication with
    /// sequence number `<= seq` is durable against connection loss.
    PubAck {
        /// Highest contiguously applied sequence number.
        seq: u64,
    },
    /// Tick completed on every shard.
    Ticked {
        /// Total rounds completed per shard after this tick.
        rounds: u64,
        /// Notifications selected across all shards during this tick.
        selected: u64,
    },
    /// Tick completed; full delivery log attached.
    TickReport {
        /// Total rounds completed per shard after this tick.
        rounds: u64,
        /// Every delivery of the ticked rounds, ordered by round then by
        /// user id (deterministic).
        deliveries: Vec<Delivery>,
    },
    /// The view an [`Request::Observe`] asked for.
    Observed(Observed),
    /// Coordinated checkpoint written.
    Checkpointed {
        /// Users captured in the checkpoint.
        users: u64,
        /// Round the checkpoint is consistent at.
        round: u64,
    },
    /// Drain finished: queues flushed, final round run, state checkpointed
    /// (when a checkpoint directory is configured). The daemon exits after
    /// this frame.
    Drained {
        /// Total rounds completed per shard.
        rounds: u64,
        /// Users captured in the final checkpoint (0 if none written).
        users: u64,
        /// Whether a final checkpoint was written.
        checkpointed: bool,
    },
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
}

/// One answered [`View`], variant for variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Observed {
    /// Answers [`View::Stats`].
    Stats(StatsReply),
    /// Answers [`View::Health`].
    Health(HealthReport),
    /// Answers [`View::Alerts`].
    Alerts(AlertsReply),
    /// Answers [`View::Query`].
    Query(QueryResult),
    /// Answers [`View::Trace`].
    Trace {
        /// Buffered spans, server-side first, then shard 0..n in order.
        spans: Vec<SpanRecord>,
        /// Spans evicted from full rings since the previous read.
        dropped: u64,
    },
    /// Answers [`View::Flight`], ordered by shard index.
    Flight {
        /// One dump per live shard (a dead shard contributes nothing).
        dumps: Vec<FlightDump>,
    },
}

impl Observed {
    /// The answer without its variant tag, as JSON: the body the metrics
    /// listener serves for the view (`/healthz` is exactly the
    /// [`HealthReport`], `/query` exactly the [`QueryResult`], …).
    pub fn payload_json(&self) -> String {
        let payload = match self.to_value() {
            serde::Value::Object(mut tagged) if tagged.len() == 1 => tagged.remove(0).1,
            untagged => untagged,
        };
        serde_json::to_string(&payload).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Returns any underlying I/O error; the message itself cannot fail to
/// serialize.
pub fn write_frame<W: Write + ?Sized, T: Serialize>(w: &mut W, msg: &T) -> ServerResult<()> {
    write_frame_unflushed(w, msg)?;
    w.flush()?;
    Ok(())
}

/// Writes one frame without flushing, so callers can pipeline many frames
/// (the loadgen's publish path) and flush once.
///
/// # Errors
///
/// Returns any underlying I/O error, or [`ServerError::Frame`] for an
/// oversized payload.
pub fn write_frame_unflushed<W: Write + ?Sized, T: Serialize>(
    w: &mut W,
    msg: &T,
) -> ServerResult<()> {
    let bytes = encode_frame_payload(msg)?;
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(&[(PROTO_VERSION & 0xFF) as u8])?;
    w.write_all(&bytes)?;
    Ok(())
}

/// Serializes `msg` to the exact payload bytes [`write_frame`] would put
/// on the wire (the JSON between the header and the next frame), checked
/// against [`MAX_FRAME_BYTES`]. The capture/replay subsystem records these
/// bytes verbatim so a replayed frame is byte-identical to the original.
///
/// # Errors
///
/// Returns [`ServerError::Frame`] for an oversized payload.
pub fn encode_frame_payload<T: Serialize>(msg: &T) -> ServerResult<Vec<u8>> {
    let payload = serde_json::to_string(msg).map_err(|e| ServerError::Frame(e.to_string()))?;
    let bytes = payload.into_bytes();
    if bytes.len() as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(ServerError::Frame(format!(
            "frame of {} bytes exceeds MAX_FRAME_BYTES",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns [`ServerError::ProtoMismatch`] when the version byte is not
/// ours, and [`ServerError::Frame`] for truncated frames, oversized
/// lengths, or payloads that are not valid JSON for `T`.
pub fn read_frame<R: Read + ?Sized, T: Deserialize>(r: &mut R) -> ServerResult<Option<T>> {
    let mut len_buf = [0u8; 4];
    match read_exact_retry(r, &mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ServerError::Frame(format!("frame length {len} exceeds limit")));
    }
    let mut proto = [0u8; 1];
    read_exact_retry(r, &mut proto)
        .map_err(|e| ServerError::Frame(format!("truncated frame header: {e}")))?;
    if u32::from(proto[0]) != PROTO_VERSION & 0xFF {
        return Err(ServerError::ProtoMismatch {
            ours: PROTO_VERSION,
            theirs: u32::from(proto[0]),
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_retry(r, &mut payload)
        .map_err(|e| ServerError::Frame(format!("truncated frame payload: {e}")))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| ServerError::Frame(format!("frame is not UTF-8: {e}")))?;
    let msg = serde_json::from_str(text)
        .map_err(|e| ServerError::Frame(format!("bad frame payload: {e}")))?;
    Ok(Some(msg))
}

/// `read_exact` that retries `Interrupted`, so injected short reads (and
/// signal-interrupted sockets) reassemble partial frames correctly.
pub(crate) fn read_exact_retry<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ShortReader;

    #[test]
    fn frames_roundtrip() {
        let reqs = vec![
            Request::Hello { proto: PROTO_VERSION, session: 99, codec: Some("binary".into()) },
            Request::Subscribe { user: UserId::new(7), topic: Topic::FriendFeed(UserId::new(7)) },
            Request::Tick { rounds: 3 },
            Request::TickReport { rounds: 1 },
            Request::Observe(View::Stats),
            Request::Observe(View::Health),
            Request::Observe(View::Alerts),
            Request::Observe(View::Query(HistoryQuery {
                family: "richnote_utility_total".into(),
                labels: vec![("policy".into(), "RichNote".into())],
                window_secs: 60.0,
            })),
            Request::Observe(View::Trace),
            Request::Observe(View::Flight),
            Request::Checkpoint,
            Request::Drain,
            Request::Shutdown,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for want in &reqs {
            let got: Request = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert!(read_frame::<_, Request>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn encode_frame_payload_matches_the_wire_bytes() {
        let req = Request::Tick { rounds: 3 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let payload = encode_frame_payload(&req).unwrap();
        assert_eq!(&buf[5..], &payload[..], "payload must equal the bytes after the header");
        assert_eq!(u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize, payload.len());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Checkpoint).unwrap();
        buf.pop();
        let mut cursor = &buf[..];
        assert!(matches!(read_frame::<_, Request>(&mut cursor), Err(ServerError::Frame(_))));
    }

    #[test]
    fn oversized_length_is_rejected() {
        let buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        let mut cursor = &buf[..];
        assert!(matches!(read_frame::<_, Request>(&mut cursor), Err(ServerError::Frame(_))));
    }

    #[test]
    fn version_byte_mismatch_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Checkpoint).unwrap();
        buf[4] = 1; // forge another version's byte
        let mut cursor = &buf[..];
        match read_frame::<_, Request>(&mut cursor) {
            Err(ServerError::ProtoMismatch { ours, theirs }) => {
                assert_eq!(ours, PROTO_VERSION);
                assert_eq!(theirs, 1);
            }
            other => panic!("expected ProtoMismatch, got {other:?}"),
        }
    }

    #[test]
    fn frames_survive_short_reads() {
        let mut buf = Vec::new();
        for i in 0..5u32 {
            write_frame(&mut buf, &Request::Tick { rounds: i }).unwrap();
        }
        let mut r = ShortReader::new(&buf[..], 3);
        for i in 0..5u32 {
            let got: Request = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(got, Request::Tick { rounds: i });
        }
        assert!(read_frame::<_, Request>(&mut r).unwrap().is_none());
    }

    fn sample_item() -> ContentItem {
        use richnote_core::content::{ContentFeatures, Interaction};
        use richnote_core::{AlbumId, ArtistId, ContentKind, TrackId};
        ContentItem {
            id: ContentId::new(9),
            recipient: UserId::new(3),
            sender: Some(UserId::new(4)),
            kind: ContentKind::FriendFeed,
            track: TrackId::new(1),
            album: AlbumId::new(2),
            artist: ArtistId::new(3),
            arrival: 120.0,
            track_secs: 240.0,
            features: ContentFeatures::default(),
            interaction: Interaction::NoActivity,
        }
    }

    #[test]
    fn traced_publish_roundtrips_and_absent_trace_reads_as_none() {
        let item = sample_item();
        let req = Request::Publish {
            seq: 4,
            topic: Topic::FriendFeed(UserId::new(3)),
            item: item.clone(),
            trace: Some(0xABCD_EF01_2345_6789),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let got: Request = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, req);

        // A Publish with no `trace` field at all must deserialize as
        // untraced rather than fail.
        let legacy = serde_json::to_string(&Request::Publish {
            seq: 5,
            topic: Topic::FriendFeed(UserId::new(3)),
            item,
            trace: None,
        })
        .unwrap()
        .replace(",\"trace\":null", "")
        .replace("\"trace\":null,", "");
        assert!(!legacy.contains("trace"), "test must exercise an absent field: {legacy}");
        let parsed: Request = serde_json::from_str(&legacy).unwrap();
        match parsed {
            Request::Publish { seq: 5, trace: None, .. } => {}
            other => panic!("expected untraced publish, got {other:?}"),
        }
    }

    #[test]
    fn hello_without_a_codec_field_reads_as_no_offer() {
        // A five-line probe client may leave `codec` out; both directions
        // must parse as "JSON only".
        let bare = r#"{"Hello":{"proto":4,"session":9}}"#;
        let parsed: Request = serde_json::from_str(bare).unwrap();
        assert_eq!(parsed, Request::Hello { proto: 4, session: 9, codec: None });
        let bare = r#"{"Hello":{"proto":4,"shards":4,"resume_seq":0}}"#;
        let parsed: Response = serde_json::from_str(bare).unwrap();
        assert_eq!(parsed, Response::Hello { proto: 4, shards: 4, resume_seq: 0, codec: None });
    }

    #[test]
    fn flight_dump_response_roundtrips() {
        let tree = richnote_obs::SpanTree::assemble(&[
            SpanRecord::publish(7, 1, 42),
            SpanRecord::queued(7, 0, 0, 5, 42),
        ])
        .pop()
        .unwrap();
        let resp = Response::Observed(Observed::Flight {
            dumps: vec![FlightDump {
                shard: 0,
                reason: "request".into(),
                trees: vec![tree],
                dropped: 2,
            }],
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn stats_and_trace_responses_roundtrip() {
        let mut reg = richnote_obs::Registry::new();
        let c = reg.counter("richnote_pubs_total", "pubs", &[("shard", "0")]);
        reg.inc(c, 5);
        let resps = vec![
            Response::Observed(Observed::Stats(StatsReply {
                snapshot: reg.snapshot(),
                uptime_secs: 12,
                build: BuildInfo::current(),
            })),
            Response::Observed(Observed::Health(HealthReport {
                status: SloStatus::Degraded,
                uptime_secs: 12,
                shards_alive: 3,
                shards_total: 4,
                slos: vec![SloVerdict {
                    name: "round_latency".into(),
                    status: SloStatus::Degraded,
                    fast_burn: 8.25,
                    slow_burn: 0.5,
                    budget_remaining: 0.5,
                    firing: vec!["fast".into()],
                    good: 990,
                    bad: 10,
                }],
                alerts_firing: 1,
                watchdog: vec![richnote_obs::WatchdogVerdict {
                    shard: 2,
                    problem: "wedged".into(),
                    stalled_secs: 11.5,
                    rounds_done: 4,
                    rounds_expected: 9,
                }],
            })),
            Response::Observed(Observed::Trace {
                spans: vec![SpanRecord::serialized(7, 0, 3, 42, 90_000)],
                dropped: 1,
            }),
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for want in &resps {
            let got: Response = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn query_result_response_roundtrips() {
        let mut hist = richnote_obs::MetricsHistory::new(8);
        let mut reg = richnote_obs::Registry::new();
        let c = reg.counter("richnote_utility_total", "utility", &[("policy", "RichNote")]);
        reg.set_counter(c, 10);
        hist.record(0.0, reg.snapshot());
        reg.set_counter(c, 70);
        hist.record(30.0, reg.snapshot());
        let result = hist.query(&HistoryQuery {
            family: "richnote_utility_total".into(),
            labels: vec![],
            window_secs: 60.0,
        });
        let resp = Response::Observed(Observed::Query(result));
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn alerts_response_roundtrips() {
        use richnote_obs::{AlertEvent, AlertSnapshot, AlertState};
        let resp = Response::Observed(Observed::Alerts(AlertsReply {
            alerts: vec![AlertSnapshot {
                rule: "shed_rate".into(),
                state: AlertState::Firing,
                since_secs: 120.0,
                value: Some(0.3),
                threshold: 0.05,
            }],
            firing: 1,
            pending: 0,
            timeline: vec![AlertEvent {
                at_secs: 120.0,
                rule: "shed_rate".into(),
                from: AlertState::Pending,
                to: AlertState::Firing,
                value: Some(0.3),
            }],
            events_dropped: 0,
            watchdog: vec![],
            last_incident: Some("/tmp/incident-00001-alert-shed_rate.rnincident".into()),
        }));
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn payload_json_is_the_answer_without_its_tag() {
        let result = richnote_obs::MetricsHistory::new(2).query(&HistoryQuery {
            family: "richnote_pubs_total".into(),
            labels: vec![],
            window_secs: 60.0,
        });
        let observed = Observed::Query(result.clone());
        assert_eq!(observed.payload_json(), serde_json::to_string(&result).unwrap());
    }

    #[test]
    fn error_codes_roundtrip() {
        let resp =
            Response::Error { code: ErrorCode::Draining, message: "drain in progress".into() };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got: Response = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(got, resp);
    }
}
