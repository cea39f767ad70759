//! Daemon configuration and its validating builder.

use crate::codec::CodecKind;
use crate::error::ConfigError;
use crate::fault::FaultPlan;
use richnote_core::registry::PolicyName;
use richnote_core::scheduler::LinearCost;
use richnote_obs::{AlertRule, SampleRate, WatchdogConfig};
use serde::{Deserialize, Serialize};

/// Tunables of one `richnote-server` instance.
///
/// Per-round budget fields mirror [`richnote_core::scheduler::RoundContext`]:
/// every user on every shard receives the same grants each round, which
/// matches the paper's per-device round loop (budgets are per user, not per
/// shard).
///
/// Construct via [`ServerConfig::builder`], which validates at build time;
/// direct field-struct construction is possible but skips validation (the
/// server re-validates at bind).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:7464"`. Port 0 picks a free port.
    pub addr: String,
    /// Number of shard workers. Users hash onto shards by
    /// [`crate::router::shard_of`].
    pub shards: usize,
    /// Capacity of each shard's ingest queue; overflow drops the oldest
    /// queued publication (freshest-first backpressure).
    pub queue_capacity: usize,
    /// Round length in seconds of virtual time.
    pub round_secs: f64,
    /// Per-user data budget per round (bytes), `θ` in the paper.
    pub data_grant: u64,
    /// Per-user link capacity per round (bytes).
    pub link_capacity: u64,
    /// Per-user energy replenishment per round (J).
    pub energy_grant: f64,
    /// Energy model applied to every user's downloads.
    pub cost: LinearCost,
    /// Directory for checkpoint files. `None` disables checkpointing
    /// entirely (requests for one return an error).
    pub checkpoint_dir: Option<String>,
    /// Write a coordinated checkpoint every this many completed rounds;
    /// `0` disables periodic checkpoints (explicit `Checkpoint` requests
    /// and drain-time checkpoints still work).
    pub checkpoint_every_rounds: u64,
    /// Deterministic fault injection; inert by default.
    pub faults: FaultPlan,
    /// Address of the plain-text metrics exposition listener, e.g.
    /// `"127.0.0.1:9464"`. `None` disables the listener; the wire-level
    /// `Observe` request works either way.
    pub metrics_addr: Option<String>,
    /// Per-shard (and server-side) trace-ring capacity in spans; 0 (the
    /// default) disables tracing and the flight recorder entirely.
    pub trace_capacity: usize,
    /// Head-sampling rate for per-publication span traces: keep 1 in N
    /// completed traces (anomalous traces — shed ingests, level 0–1
    /// selections — are always kept). `SampleRate::OFF` records no spans
    /// even when the trace ring is on.
    pub trace_sample: SampleRate,
    /// Directory for flight-recorder dump files, written when a shard
    /// panics or a coordinated checkpoint fails. `None` (the default)
    /// keeps the recorder query-only (the `Flight` view still works).
    pub flight_dir: Option<String>,
    /// Resource accounting (per-thread CPU sampling, allocation counter
    /// export, contention counters). On by default; absent in older
    /// config JSON, which deserializes to the default.
    pub rsrc: RsrcConfig,
    /// Service-level objectives evaluated by the `Health` view and the
    /// `/healthz` path. Absent in older config JSON, which deserializes
    /// to the default.
    pub slo: SloConfig,
    /// Path of the wire-level capture file. `Some` records every inbound
    /// post-handshake request frame (see `crate::record`); `None` (the
    /// default, and what older config JSON deserializes to) disables
    /// recording entirely.
    pub record: Option<String>,
    /// Richest frame codec the server will negotiate (see
    /// [`crate::codec::negotiate`]): [`CodecKind::Binary`] (the default)
    /// lets binary-capable clients upgrade while JSON-only clients keep
    /// working; [`CodecKind::Json`] pins every connection to the JSON
    /// framing. Absent in older config JSON, which deserializes to the
    /// default.
    pub codec: CodecKind,
    /// Scheduling policy every shard runs (see
    /// [`richnote_core::registry::PolicyName`]). Absent in older config
    /// JSON, which deserializes to [`PolicyName::RichNote`]. Checkpoints
    /// record the policy that wrote them; restoring under a different
    /// policy is rejected.
    pub policy: PolicyName,
    /// Embedded metrics-history ring answering the `Query` view and the
    /// metrics listener's `/query` path. Absent in older config JSON,
    /// which deserializes to the default.
    pub history: HistoryConfig,
    /// Alert rules, watchdog thresholds, and the incident-bundle
    /// directory. Absent in older config JSON, which deserializes to the
    /// default (stock rules, no bundle directory).
    pub alerts: AlertConfig,
}

/// Alerting-plane knobs: the declarative rule set evaluated at tick
/// boundaries, the shard stall watchdog, and where incident bundles go.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlertConfig {
    /// Declarative rules evaluated over the metrics history (see
    /// [`richnote_obs::AlertRule`]); defaults to
    /// [`richnote_obs::default_rules`]. An empty list disables rule
    /// evaluation (the watchdog still runs).
    pub rules: Vec<AlertRule>,
    /// Shard stall watchdog thresholds.
    pub watchdog: WatchdogConfig,
    /// Directory for `.rnincident` forensic bundles, written when an
    /// alert starts firing or the watchdog flags a new shard. `None`
    /// (the default) disables bundle writes; alerting itself still runs.
    pub incident_dir: Option<String>,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            rules: richnote_obs::default_rules(),
            watchdog: WatchdogConfig::default(),
            incident_dir: None,
        }
    }
}

// Manual impl so configs written before this field existed still load,
// and so each sub-field may be omitted independently.
impl serde::Deserialize for AlertConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(AlertConfig {
            rules: match v.get("rules") {
                Some(x) => serde::Deserialize::from_value(x)?,
                None => richnote_obs::default_rules(),
            },
            watchdog: match v.get("watchdog") {
                Some(x) => serde::Deserialize::from_value(x)?,
                None => WatchdogConfig::default(),
            },
            incident_dir: match v.get("incident_dir") {
                Some(x) => serde::Deserialize::from_value(x)?,
                None => None,
            },
        })
    }

    fn if_missing() -> Option<Self> {
        Some(AlertConfig::default())
    }
}

impl AlertConfig {
    /// The first problem with the rule set or watchdog, when any.
    pub fn problem(&self) -> Option<String> {
        for (i, rule) in self.rules.iter().enumerate() {
            if let Err(why) = rule.validate() {
                return Some(why);
            }
            if self.rules[..i].iter().any(|other| other.name == rule.name) {
                return Some(format!("alert rule {}: duplicate name", rule.name));
            }
        }
        if self.watchdog.stall_secs.is_nan() || self.watchdog.stall_secs <= 0.0 {
            return Some("watchdog stall_secs must be > 0".to_string());
        }
        None
    }
}

/// Analytics-history knobs.
///
/// The server samples a merged registry snapshot into a fixed-memory
/// ring at every tick boundary (virtual time, so replays stay
/// deterministic) and answers windowed delta/rate/quantile queries from
/// it (see [`richnote_obs::MetricsHistory`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistoryConfig {
    /// Registry snapshots retained in the ring; `0` disables tick-boundary
    /// sampling entirely (queries answer an empty series).
    pub capacity: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig { capacity: richnote_obs::DEFAULT_HISTORY_CAPACITY }
    }
}

// Manual impl so configs written before this field existed still load.
impl serde::Deserialize for HistoryConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(HistoryConfig { capacity: serde::field(v, "capacity")? })
    }

    fn if_missing() -> Option<Self> {
        Some(HistoryConfig::default())
    }
}

/// Resource-accounting switches.
///
/// With `enabled` off the shard loops neither read the per-thread CPU
/// clock nor export allocation/contention counters, so overhead A/B runs
/// have a true baseline. The counting *allocator* is a link-time choice
/// of the binary (see `richnote_obs::rsrc::CountingAlloc`); this knob
/// additionally gates its runtime counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RsrcConfig {
    /// Master switch for cost accounting (default on).
    pub enabled: bool,
}

impl Default for RsrcConfig {
    fn default() -> Self {
        RsrcConfig { enabled: true }
    }
}

// Manual impl so configs written before this field existed still load
// (the vendored serde derive has no `#[serde(default)]`).
impl serde::Deserialize for RsrcConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RsrcConfig { enabled: serde::field(v, "enabled")? })
    }

    fn if_missing() -> Option<Self> {
        Some(RsrcConfig::default())
    }
}

/// SLO thresholds and window geometry.
///
/// Latency thresholds classify each round/ack sample as good or bad;
/// targets are the budgeted bad fractions. Burn-rate semantics live in
/// `richnote_obs::slo` — the slow window fires at burn ≥ 1, the fast
/// window at burn ≥ `fast_burn_threshold`, and both firing at once is a
/// violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloConfig {
    /// Rolling window length in seconds.
    pub window_secs: u64,
    /// Sub-window bucket count (the fast window is the newest sixth).
    pub buckets: usize,
    /// A round slower than this (µs of wall time) is a bad event.
    pub round_latency_us: u64,
    /// Budgeted fraction of slow rounds.
    pub round_latency_target: f64,
    /// An ack (connection-side reply write) slower than this is bad.
    pub ack_latency_us: u64,
    /// Budgeted fraction of slow acks.
    pub ack_latency_target: f64,
    /// Budgeted fraction of publications shed by queue overflow.
    pub shed_target: f64,
    /// Fast-window burn rate at which the fast window fires.
    pub fast_burn_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window_secs: 60,
            buckets: 12,
            // A round is a batched MCKP selection over a shard's users;
            // 100ms of wall time is already an outlier at test scale.
            round_latency_us: 100_000,
            round_latency_target: 0.01,
            ack_latency_us: 50_000,
            ack_latency_target: 0.01,
            // Shedding is the paper's load-control valve, but routine
            // shedding means the budget model is mis-sized: 0.1%.
            shed_target: 0.001,
            fast_burn_threshold: 6.0,
        }
    }
}

// Manual impl so configs written before this field existed still load.
impl serde::Deserialize for SloConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(SloConfig {
            window_secs: serde::field(v, "window_secs")?,
            buckets: serde::field(v, "buckets")?,
            round_latency_us: serde::field(v, "round_latency_us")?,
            round_latency_target: serde::field(v, "round_latency_target")?,
            ack_latency_us: serde::field(v, "ack_latency_us")?,
            ack_latency_target: serde::field(v, "ack_latency_target")?,
            shed_target: serde::field(v, "shed_target")?,
            fast_burn_threshold: serde::field(v, "fast_burn_threshold")?,
        })
    }

    fn if_missing() -> Option<Self> {
        Some(SloConfig::default())
    }
}

impl SloConfig {
    fn target_ok(t: f64) -> bool {
        t > 0.0 && t <= 1.0 && !t.is_nan()
    }

    /// Whether every knob is usable.
    pub fn is_valid(&self) -> bool {
        self.window_secs >= 1
            && self.buckets >= 1
            && Self::target_ok(self.round_latency_target)
            && Self::target_ok(self.ack_latency_target)
            && Self::target_ok(self.shed_target)
            && self.fast_burn_threshold > 0.0
            && !self.fast_burn_threshold.is_nan()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            queue_capacity: 65_536,
            round_secs: 3_600.0,
            // Roomy defaults: one full audio preview plus change per round.
            data_grant: 400_000,
            link_capacity: 10_000_000,
            energy_grant: 3_000.0,
            cost: LinearCost { fixed: 1.0, per_byte: 1e-4 },
            checkpoint_dir: None,
            checkpoint_every_rounds: 0,
            faults: FaultPlan::none(),
            metrics_addr: None,
            trace_capacity: 0,
            trace_sample: SampleRate::ALL,
            flight_dir: None,
            rsrc: RsrcConfig::default(),
            slo: SloConfig::default(),
            record: None,
            codec: CodecKind::Binary,
            policy: PolicyName::RichNote,
            history: HistoryConfig::default(),
            alerts: AlertConfig::default(),
        }
    }
}

impl ServerConfig {
    /// A builder seeded with [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder { cfg: ServerConfig::default() }
    }

    /// Ensures the config can actually run.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.round_secs <= 0.0 || self.round_secs.is_nan() {
            return Err(ConfigError::BadRoundSecs);
        }
        if self.checkpoint_every_rounds > 0 && self.checkpoint_dir.is_none() {
            return Err(ConfigError::CheckpointIntervalWithoutDir);
        }
        if !self.faults.is_valid() {
            return Err(ConfigError::BadFaultRate);
        }
        if !self.slo.is_valid() {
            return Err(ConfigError::BadSlo);
        }
        if let Some(why) = self.alerts.problem() {
            return Err(ConfigError::BadAlert(why));
        }
        Ok(())
    }
}

/// Validating builder for [`ServerConfig`]; every setter is chainable and
/// invalid combinations surface once, at [`ServerConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (port 0 picks a free port).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Number of shard workers (must be ≥ 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Per-shard ingest queue capacity (must be ≥ 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// Round length in seconds of virtual time (must be positive).
    #[must_use]
    pub fn round_secs(mut self, secs: f64) -> Self {
        self.cfg.round_secs = secs;
        self
    }

    /// Per-user data budget per round (bytes).
    #[must_use]
    pub fn data_grant(mut self, bytes: u64) -> Self {
        self.cfg.data_grant = bytes;
        self
    }

    /// Per-user link capacity per round (bytes).
    #[must_use]
    pub fn link_capacity(mut self, bytes: u64) -> Self {
        self.cfg.link_capacity = bytes;
        self
    }

    /// Per-user energy replenishment per round (J).
    #[must_use]
    pub fn energy_grant(mut self, joules: f64) -> Self {
        self.cfg.energy_grant = joules;
        self
    }

    /// Energy model applied to every user's downloads.
    #[must_use]
    pub fn cost(mut self, cost: LinearCost) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Directory for checkpoint files; enables checkpoint/restore.
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<String>) -> Self {
        self.cfg.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checkpoint every `rounds` completed rounds (requires a checkpoint
    /// directory; 0 disables periodic checkpoints).
    #[must_use]
    pub fn checkpoint_every_rounds(mut self, rounds: u64) -> Self {
        self.cfg.checkpoint_every_rounds = rounds;
        self
    }

    /// Fault-injection plan (testing only).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Enables the plain-text metrics exposition listener on `addr`
    /// (port 0 picks a free port).
    #[must_use]
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.metrics_addr = Some(addr.into());
        self
    }

    /// Per-shard trace-ring capacity in spans (0 disables tracing).
    #[must_use]
    pub fn trace_capacity(mut self, spans: usize) -> Self {
        self.cfg.trace_capacity = spans;
        self
    }

    /// Head-sampling rate for span traces (keep 1 in N; anomalies are
    /// always kept).
    #[must_use]
    pub fn trace_sample(mut self, rate: SampleRate) -> Self {
        self.cfg.trace_sample = rate;
        self
    }

    /// Directory for flight-recorder dump files written on shard panic or
    /// checkpoint failure.
    #[must_use]
    pub fn flight_dir(mut self, dir: impl Into<String>) -> Self {
        self.cfg.flight_dir = Some(dir.into());
        self
    }

    /// Turns resource accounting (CPU sampling, allocation/contention
    /// export) on or off (on by default).
    #[must_use]
    pub fn rsrc_enabled(mut self, enabled: bool) -> Self {
        self.cfg.rsrc.enabled = enabled;
        self
    }

    /// Replaces the SLO thresholds wholesale.
    #[must_use]
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.cfg.slo = slo;
        self
    }

    /// Path of the wire-level capture file; enables frame recording.
    #[must_use]
    pub fn record(mut self, path: impl Into<String>) -> Self {
        self.cfg.record = Some(path.into());
        self
    }

    /// Richest frame codec the server will negotiate (default: binary).
    #[must_use]
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.cfg.codec = codec;
        self
    }

    /// Scheduling policy every shard runs (default: RichNote).
    #[must_use]
    pub fn policy(mut self, policy: PolicyName) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Analytics-history ring capacity in registry snapshots (0 disables
    /// tick-boundary sampling).
    #[must_use]
    pub fn history_capacity(mut self, snapshots: usize) -> Self {
        self.cfg.history.capacity = snapshots;
        self
    }

    /// Replaces the alert rule set (default: [`richnote_obs::default_rules`];
    /// an empty list disables rule evaluation).
    #[must_use]
    pub fn alert_rules(mut self, rules: Vec<AlertRule>) -> Self {
        self.cfg.alerts.rules = rules;
        self
    }

    /// Shard stall watchdog thresholds.
    #[must_use]
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.cfg.alerts.watchdog = watchdog;
        self
    }

    /// Directory for `.rnincident` forensic bundles (default: none, which
    /// disables bundle writes).
    #[must_use]
    pub fn incident_dir(mut self, dir: impl Into<String>) -> Self {
        self.cfg.alerts.incident_dir = Some(dir.into());
        self
    }

    /// Validates and returns the finished config.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a [`ConfigError`].
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(ServerConfig::default().validate(), Ok(()));
    }

    #[test]
    fn builder_builds_and_validates() {
        let cfg = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .queue_capacity(128)
            .round_secs(60.0)
            .build()
            .unwrap();
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.queue_capacity, 128);
        assert_eq!(cfg.round_secs, 60.0);

        assert_eq!(ServerConfig::builder().shards(0).build(), Err(ConfigError::ZeroShards));
        assert_eq!(
            ServerConfig::builder().queue_capacity(0).build(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(ServerConfig::builder().round_secs(0.0).build(), Err(ConfigError::BadRoundSecs));
        assert_eq!(
            ServerConfig::builder().round_secs(f64::NAN).build(),
            Err(ConfigError::BadRoundSecs)
        );
    }

    #[test]
    fn checkpoint_interval_requires_dir() {
        assert_eq!(
            ServerConfig::builder().checkpoint_every_rounds(5).build(),
            Err(ConfigError::CheckpointIntervalWithoutDir)
        );
        let cfg = ServerConfig::builder()
            .checkpoint_dir("/tmp/ck")
            .checkpoint_every_rounds(5)
            .build()
            .unwrap();
        assert_eq!(cfg.checkpoint_every_rounds, 5);
    }

    #[test]
    fn bad_fault_rate_rejected() {
        let mut plan = FaultPlan::none();
        plan.conn_reset_per_frame = 1.5;
        assert_eq!(ServerConfig::builder().faults(plan).build(), Err(ConfigError::BadFaultRate));
    }

    #[test]
    fn observability_knobs_build() {
        let cfg = ServerConfig::builder()
            .metrics_addr("127.0.0.1:0")
            .trace_capacity(512)
            .trace_sample(SampleRate::one_in(8))
            .flight_dir("/tmp/flight")
            .build()
            .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.trace_capacity, 512);
        assert_eq!(cfg.trace_sample, SampleRate::one_in(8));
        assert_eq!(cfg.flight_dir.as_deref(), Some("/tmp/flight"));
        // Defaults: tracing off, no listener, sample-all, flight file
        // dumps off.
        let d = ServerConfig::default();
        assert_eq!(d.trace_capacity, 0);
        assert!(d.metrics_addr.is_none());
        assert_eq!(d.trace_sample, SampleRate::ALL);
        assert!(d.flight_dir.is_none());
    }

    #[test]
    fn roundtrips_through_json() {
        let cfg = ServerConfig::default();
        let s = serde_json::to_string(&cfg).unwrap();
        let back: ServerConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn pre_slo_config_json_still_loads() {
        // A config serialized before the rsrc/slo fields existed must
        // deserialize with their defaults filled in (rolling upgrades
        // replay old checkpoint configs).
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "rsrc" && k != "slo");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.rsrc, RsrcConfig::default());
        assert_eq!(back.slo, SloConfig::default());
        assert_eq!(back, ServerConfig::default());
    }

    #[test]
    fn pre_policy_config_json_still_loads() {
        // Configs serialized before the policy field existed must load
        // with the RichNote default filled in.
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "policy");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.policy, PolicyName::RichNote);
        assert_eq!(back, ServerConfig::default());
    }

    #[test]
    fn policy_builder_sets_and_roundtrips() {
        let cfg = ServerConfig::builder().policy(PolicyName::Adaptive).build().unwrap();
        assert_eq!(cfg.policy, PolicyName::Adaptive);
        let s = serde_json::to_string(&cfg).unwrap();
        let back: ServerConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(back.policy, PolicyName::Adaptive);
    }

    #[test]
    fn pre_record_config_json_still_loads() {
        // Configs serialized before the capture feature have no `record`
        // field; it must deserialize as disabled, not fail.
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "record");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.record, None);
        assert_eq!(back, ServerConfig::default());
    }

    #[test]
    fn pre_codec_config_json_still_loads() {
        // Configs serialized before codec negotiation have no `codec`
        // field; they must load with today's default (binary allowed —
        // negotiation still keeps JSON-only clients working).
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "codec");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.codec, CodecKind::Binary);
        assert_eq!(back, ServerConfig::default());
    }

    #[test]
    fn codec_builder_pins_json() {
        let cfg = ServerConfig::builder().codec(CodecKind::Json).build().unwrap();
        assert_eq!(cfg.codec, CodecKind::Json);
        assert_eq!(ServerConfig::default().codec, CodecKind::Binary);
    }

    #[test]
    fn record_builder_sets_path() {
        let cfg = ServerConfig::builder().record("/tmp/cap.rncap").build().unwrap();
        assert_eq!(cfg.record.as_deref(), Some("/tmp/cap.rncap"));
        assert!(ServerConfig::default().record.is_none());
    }

    #[test]
    fn pre_history_config_json_still_loads() {
        // Configs serialized before the analytics layer have no `history`
        // field; they must load with the default ring capacity.
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "history");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.history, HistoryConfig::default());
        assert_eq!(back, ServerConfig::default());
        // The builder knob sets (and 0 disables) the ring.
        let cfg = ServerConfig::builder().history_capacity(0).build().unwrap();
        assert_eq!(cfg.history.capacity, 0);
        assert_eq!(
            ServerConfig::default().history.capacity,
            richnote_obs::DEFAULT_HISTORY_CAPACITY
        );
    }

    #[test]
    fn pre_alert_config_json_still_loads() {
        // Configs serialized before the alerting layer have no `alerts`
        // field; they must load with the stock rules and no incident dir.
        let mut v = ServerConfig::default().to_value();
        if let serde_json::Value::Object(fields) = &mut v {
            fields.retain(|(k, _)| k != "alerts");
        }
        let back = ServerConfig::from_value(&v).unwrap();
        assert_eq!(back.alerts, AlertConfig::default());
        assert_eq!(back, ServerConfig::default());
        // Sub-fields may be omitted independently.
        let partial = serde_json::parse_value(r#"{"incident_dir":"/tmp/inc"}"#).unwrap();
        let alerts = AlertConfig::from_value(&partial).unwrap();
        assert_eq!(alerts.rules, richnote_obs::default_rules());
        assert_eq!(alerts.watchdog, WatchdogConfig::default());
        assert_eq!(alerts.incident_dir.as_deref(), Some("/tmp/inc"));
    }

    #[test]
    fn bad_alert_rules_are_rejected_with_the_rule_name() {
        let mut rules = richnote_obs::default_rules();
        rules.push(rules[0].clone()); // duplicate name
        match ServerConfig::builder().alert_rules(rules).build() {
            Err(ConfigError::BadAlert(why)) => assert!(why.contains("duplicate"), "{why}"),
            other => panic!("expected BadAlert, got {other:?}"),
        }
        let mut bad = richnote_obs::default_rules();
        bad[0].name = String::new();
        assert!(matches!(
            ServerConfig::builder().alert_rules(bad).build(),
            Err(ConfigError::BadAlert(_))
        ));
        let cfg = ServerConfig::builder()
            .watchdog(WatchdogConfig { stall_secs: 0.0, min_cpu_delta_us: 1 })
            .build();
        assert!(matches!(cfg, Err(ConfigError::BadAlert(_))));
    }

    #[test]
    fn bad_slo_rejected() {
        let slo = SloConfig { round_latency_target: 0.0, ..SloConfig::default() };
        assert_eq!(ServerConfig::builder().slo(slo).build(), Err(ConfigError::BadSlo));
        let slo = SloConfig { buckets: 0, ..SloConfig::default() };
        assert_eq!(ServerConfig::builder().slo(slo).build(), Err(ConfigError::BadSlo));
        let slo = SloConfig { fast_burn_threshold: -1.0, ..SloConfig::default() };
        assert_eq!(ServerConfig::builder().slo(slo).build(), Err(ConfigError::BadSlo));
        // The toggle alone cannot invalidate a config.
        let cfg = ServerConfig::builder().rsrc_enabled(false).build().unwrap();
        assert!(!cfg.rsrc.enabled);
        assert!(ServerConfig::default().slo.is_valid());
    }
}
