//! Observability layer for the RichNote stack.
//!
//! One vocabulary for the whole workspace: the delivery daemon, the
//! population simulator and the load generator all record into the same
//! three metric kinds and keep the same per-publication spans, so a
//! number measured client-side can be compared bucket-for-bucket with the
//! same number measured server-side.
//!
//! * [`Log2Histogram`] — power-of-two-bucketed latency histogram
//!   (generalizing the server's former `LatencyHistogram`); constant
//!   space, one increment per sample.
//! * [`Registry`] — a registry of counters, gauges and histograms with
//!   labeled families. Recording goes through pre-registered integer
//!   handles ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`]),
//!   so the hot path is a bounds-checked vector index plus an integer
//!   add — no hashing, no string comparison, no locking when the owner
//!   thread holds `&mut Registry` (shard workers own theirs outright).
//! * [`RegistrySnapshot`] — a serializable, mergeable cut of a registry;
//!   per-shard snapshots merge associatively into the daemon-wide view
//!   served over the wire and scraped as text.
//! * [`encode_text`] — Prometheus-style text exposition of a snapshot.
//! * [`SpanRecord`] / [`SpanTree`] — the only trace model: per-publication
//!   causal spans (publish → match → queue → select → serialize → ack)
//!   carrying the selection decision, with virtual-time and logical fields
//!   only, so a seeded run produces an identical trace; ids are minted
//!   with [`derive_trace_id`] from seed + virtual time.
//! * [`SpanStager`] — buffers a trace's early spans until selection and
//!   then rules on the whole tree: head-sampled via [`SampleRate`] with
//!   anomalies (level 0–1) always kept. The shard and the simulator both
//!   drive it.
//! * [`Ring`] — the one bounded evict-oldest ring with drop accounting:
//!   `Ring<SpanRecord>` is a trace ring (drained by reading),
//!   `Ring<SpanTree>` the flight recorder, cut non-destructively into a
//!   [`FlightDump`] and written as a CRC-framed file
//!   ([`write_flight_file`]) on shard panic, checkpoint failure or
//!   injected fault.
//! * [`rsrc`] — resource accounting: per-thread CPU time behind the
//!   [`CpuClock`] trait (raw `clock_gettime` syscall; deterministic
//!   substitutes for sim and tests) and the opt-in [`CountingAlloc`]
//!   global-allocator wrapper with per-thread allocation counters.
//! * [`history`] — a fixed-memory ring of registry snapshots sampled at
//!   tick boundaries (caller-supplied time, so replays stay
//!   deterministic), answering windowed delta/rate/quantile queries
//!   ([`MetricsHistory`], [`HistoryQuery`], [`QueryResult`]) — the
//!   server-side source for `richnote-top` rates and the `/query`
//!   endpoint.
//! * [`slo`] — rolling multi-window service-level objectives: error
//!   budgets, fast/slow burn rates, and ok/degraded/violating verdicts
//!   ([`SloEngine`], [`SloReport`]), with time driven explicitly so
//!   evaluation is deterministic.
//! * [`alert`] — a declarative alert-rule engine ([`AlertRule`],
//!   [`AlertEngine`]) evaluated in caller-supplied virtual time over the
//!   metrics history (threshold, windowed-rate and SLO-burn rules with a
//!   pending → firing → resolved state machine), plus the per-shard
//!   stall [`Watchdog`]; the same rules run identically in the daemon
//!   and the simulator, so a seeded run yields a byte-identical alert
//!   timeline.
//! * [`frame`] — the shared `magic | len | crc32` binary framing used by
//!   flight-recorder dumps and incident bundles: whole-file blobs
//!   ([`frame::encode_blob`]), streamed records ([`frame::write_record`]
//!   / [`frame::read_record`]) and the tamper-evident hash chain
//!   ([`chain_seed`], [`chain_next`]).

pub mod alert;
pub mod expo;
pub mod flight;
pub mod frame;
pub mod hist;
pub mod history;
pub mod registry;
pub mod ring;
pub mod rsrc;
pub mod sampler;
pub mod slo;
pub mod span;
pub mod stager;

pub use alert::{
    default_rules, AlertEngine, AlertEvent, AlertRule, AlertRuleKind, AlertSnapshot, AlertState,
    ShardProbe, Watchdog, WatchdogConfig, WatchdogVerdict,
};
pub use expo::encode_text;
pub use flight::{
    crc32, read_flight_file, write_flight_file, FlightDump, FLIGHT_CAPACITY, FLIGHT_MAGIC,
};
pub use frame::{chain_next, chain_seed, BlobError, RecordError};
pub use hist::{Log2Histogram, BUCKETS};
pub use history::{
    HistoryQuery, MetricsHistory, QueryResult, SeriesWindow, WindowQuantiles,
    DEFAULT_HISTORY_CAPACITY,
};
pub use registry::{
    CounterHandle, FamilySnapshot, GaugeHandle, HistogramHandle, MetricKind, MetricValue, Registry,
    RegistrySnapshot, SeriesSnapshot,
};
pub use ring::Ring;
pub use rsrc::{
    alloc_counts, thread_cpu_time_us, AllocCounts, CountingAlloc, CpuClock, ManualCpuClock,
    NullCpuClock, ThreadCpuClock,
};
pub use sampler::SampleRate;
pub use slo::{burn_rate, split_above, SloEngine, SloReport, SloSpec, SloStatus, SloVerdict};
pub use span::{derive_trace_id, SpanDecision, SpanRecord, SpanStage, SpanTree};
pub use stager::SpanStager;
