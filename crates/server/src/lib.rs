//! The RichNote delivery service: a sharded daemon that accepts
//! publications over TCP, matches them through the pub/sub broker and
//! drives the paper's round-based selection loop per user.
//!
//! # Architecture
//!
//! ```text
//!  clients ──TCP──▶ connection threads ──▶ broker match ──▶ shard queues
//!                                                             │ (bounded,
//!                                                             │  drop-oldest)
//!                                            shard workers ◀──┘
//!                                            one thread per shard, each
//!                                            owning its users' policies
//!                                            (`ServerConfig::policy`) and
//!                                            running the round loop on Tick
//! ```
//!
//! Users are partitioned across shards by a multiplicative hash of their
//! [`richnote_core::UserId`]; a user's scheduler state lives on exactly one
//! shard, so rounds need no cross-shard coordination. Rounds advance on
//! explicit [`wire::Request::Tick`] messages rather than wall-clock timers,
//! which keeps selection deterministic: the same publications plus the same
//! tick sequence yield the same selections as a single-threaded
//! [`richnote_core::Policy`] per user.
//!
//! The daemon uses blocking I/O with a thread per connection plus a thread
//! per shard. The paper targets mobile clients with hour-scale rounds, so
//! the concurrency bottleneck is shard CPU (MCKP selection), not socket
//! count; an async reactor would add a dependency without moving the
//! benchmark numbers.
//!
//! # Fault tolerance
//!
//! The daemon is built for intermittently connected clients and imperfect
//! hosts:
//!
//! - **Checkpoint/restore** ([`checkpoint`]): coordinated snapshots of
//!   every shard's scheduler state, the session ack table, and the
//!   subscription table, written atomically at tick boundaries; a restarted
//!   server resumes rounds byte-identically.
//! - **Client retry** ([`client`]): jittered exponential backoff,
//!   reconnection, and idempotent republish via per-session sequence
//!   numbers — no acked publication is ever lost or double-routed.
//! - **Drain** ([`wire::Request::Drain`]): stop ingest, flush queues
//!   through one final round, checkpoint, exit.
//! - **Fault injection** ([`fault`]): deterministic connection resets,
//!   short reads, shard-worker panics, and checkpoint-write failures for
//!   the integration tests.
//!
//! # Observability
//!
//! Each shard owns a lock-free metric registry (counters, gauges, log2
//! histograms labeled `shard="N"`) and a bounded ring of per-publication
//! spans; connection threads share a server-side registry for the
//! broker/serialize/ack stages. The registry is the daemon's only metrics
//! model and [`wire::Request::Observe`] its only read path: the
//! [`wire::View`] asked for selects the merged
//! [`richnote_obs::RegistrySnapshot`], the health verdict, the alerting
//! plane, a history query, or the trace and flight rings, and
//! [`config::ServerConfig::metrics_addr`] serves four of those views over
//! plain HTTP for `curl`/scrapers. All of it is deterministic where it
//! matters: spans carry only logical fields (rounds, ids, levels,
//! gradients), never wall-clock values.

pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod config;
pub mod error;
pub mod fault;
pub mod incident;
pub mod queue;
pub mod record;
pub mod router;
pub mod server;
pub mod shard;
pub mod wire;

pub use checkpoint::{CheckpointStore, ServerCheckpoint, ShardCheckpoint};
pub use client::{Client, ClientBuilder, RetryPolicy};
pub use codec::{codec_for, negotiate, BinaryCodec, CodecKind, FrameCodec, JsonCodec};
pub use config::{
    AlertConfig, HistoryConfig, RsrcConfig, ServerConfig, ServerConfigBuilder, SloConfig,
};
pub use error::{ConfigError, ServerError, ServerResult};
pub use fault::{FaultPlan, FaultRng, ShardPanicFault};
pub use incident::{
    incident_file_name, read_incident_file, write_incident_file, IncidentBundle, IncidentMeta,
    INCIDENT_MAGIC,
};
pub use queue::BoundedQueue;
pub use record::{
    chain_next, golden_config, record_golden, record_golden_with_policy, CaptureError,
    CaptureHeader, CaptureReader, CaptureRecord, CaptureWriter, GoldenSummary, RecordSink,
    CAPTURE_FORMAT, CAPTURE_MAGIC, GOLDEN_SESSION,
};
pub use richnote_core::registry::{PolicyName, UnknownPolicy};
pub use router::shard_of;
pub use server::{RestoreSummary, Server};
pub use shard::ShardState;
pub use wire::{
    AlertsReply, BuildInfo, ErrorCode, HealthReport, Observed, StatsReply, View, PROTO_VERSION,
    TRACE_DUMP_EVENT_BUDGET,
};

// Observability vocabulary, re-exported so server users need not depend
// on `richnote-obs` directly.
pub use richnote_obs::{
    default_rules, derive_trace_id, read_flight_file, AlertEvent, AlertRule, AlertRuleKind,
    AlertSnapshot, AlertState, FlightDump, HistoryQuery, Log2Histogram, MetricsHistory,
    QueryResult, Registry, RegistrySnapshot, SampleRate, SeriesWindow, SloStatus, SloVerdict,
    SpanRecord, SpanStage, SpanTree, WatchdogConfig, WatchdogVerdict, WindowQuantiles,
    DEFAULT_HISTORY_CAPACITY,
};
