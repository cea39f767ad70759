//! Declarative alert rules evaluated over [`MetricsHistory`] in
//! caller-supplied virtual time, plus the shard watchdog.
//!
//! The daemon decides *for* the user under changing conditions, so it
//! must detect its own degradation without an operator watching. Rules
//! close the loop from signal → detection: each one names a metric
//! family, a window, and a threshold, and walks a `pending → firing →
//! resolved` state machine as evaluations pass.
//!
//! Time is always the caller's: the server evaluates at tick boundaries
//! using `rounds_done × round_secs`, the simulator at its round clock —
//! so a seeded run produces a byte-identical alert timeline, and a
//! replay re-raises exactly the alerts the original run raised.
//!
//! # Rule grammar
//!
//! * [`AlertRuleKind::Threshold`] — the family's current value (gauge or
//!   counter level), or a windowed histogram quantile when `quantile` is
//!   set, compared against `above`.
//! * [`AlertRuleKind::Rate`] — the family's windowed delta per second;
//!   with `per` set, the ratio of this family's windowed delta to the
//!   `per` family's (window length cancels, so the same rule means the
//!   same thing at any sampling cadence).
//!
//! A rule with no matching data (unknown family, empty history, zero
//! denominator) reads as *no value* and the condition is false — absence
//! of evidence never pages.
//!
//! # State machine
//!
//! ```text
//!            cond true                 held for `for_secs`
//! Inactive ------------> Pending --------------------------> Firing
//!    ^                      |  cond false                       |
//!    |                      v                                   v
//!    +------------------ Inactive            cond false --> Resolved
//!    ^                                                          |
//!    +------------- cond false (one step later) ----------------+
//! ```
//!
//! Every transition is an [`AlertEvent`] in the bounded timeline. The
//! engine owns no registry: the daemon writes each rule's state from
//! [`AlertEngine::snapshot`] into its own registry at every stats cut, as
//! the `richnote_alert_state{rule}` gauge family valued by
//! [`AlertState::gauge_value`] (0 = inactive, 1 = pending, 2 = firing,
//! 3 = resolved).

use crate::history::{HistoryQuery, MetricsHistory};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Transitions kept in the timeline before the oldest are evicted.
const TIMELINE_CAPACITY: usize = 256;

/// What a rule measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlertRuleKind {
    /// The family's newest value — or, with `quantile`, a windowed
    /// histogram quantile — compared against `above`.
    Threshold {
        /// Metric family, e.g. `richnote_stage_duration_us`.
        family: String,
        /// Label pairs a series must carry to match (empty = all).
        labels: Vec<(String, String)>,
        /// Histogram quantile to read (0.5, 0.95, or 0.99); `None` reads
        /// the newest absolute value instead.
        quantile: Option<f64>,
        /// Window length in seconds (used for quantiles).
        window_secs: f64,
        /// Condition: measured value strictly above this fires.
        above: f64,
    },
    /// The family's windowed delta per second, or — with `per` — its
    /// windowed delta divided by the `per` family's windowed delta.
    Rate {
        /// Numerator family, e.g. `richnote_queue_dropped_total`.
        family: String,
        /// Label pairs the numerator series must carry (empty = all).
        labels: Vec<(String, String)>,
        /// Window length in seconds.
        window_secs: f64,
        /// Denominator family; `None` means per-second rate.
        per: Option<String>,
        /// Condition: measured value strictly above this fires.
        above: f64,
    },
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Unique rule name; doubles as the `rule` label of
    /// `richnote_alert_state`.
    pub name: String,
    /// What the rule measures and the threshold.
    pub kind: AlertRuleKind,
    /// How long the condition must hold before `pending` promotes to
    /// `firing` (0 fires on the evaluation that first sees it).
    pub for_secs: f64,
}

impl AlertRule {
    /// Validates the rule, returning the first problem found.
    ///
    /// # Errors
    ///
    /// A human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("alert rule name must not be empty".to_string());
        }
        if !self.for_secs.is_finite() || self.for_secs < 0.0 {
            return Err(format!("alert rule {}: for_secs must be finite and >= 0", self.name));
        }
        // An infinite threshold never fires, and it cannot round-trip
        // through the JSON that capture headers and incident bundles embed.
        if !self.threshold().is_finite() {
            return Err(format!("alert rule {}: above must be finite", self.name));
        }
        let (AlertRuleKind::Threshold { family, window_secs, .. }
        | AlertRuleKind::Rate { family, window_secs, .. }) = &self.kind;
        if family.is_empty() {
            return Err(format!("alert rule {}: family must not be empty", self.name));
        }
        if !window_secs.is_finite() || *window_secs <= 0.0 {
            return Err(format!("alert rule {}: window_secs must be finite and > 0", self.name));
        }
        match &self.kind {
            AlertRuleKind::Threshold { quantile: Some(q), .. } if quantile_of(*q).is_none() => {
                Err(format!("alert rule {}: quantile {q} is not one of 0.5, 0.95, 0.99", self.name))
            }
            AlertRuleKind::Rate { per: Some(per), .. } if per.is_empty() => {
                Err(format!("alert rule {}: per must not be empty", self.name))
            }
            _ => Ok(()),
        }
    }

    /// The rule's threshold value.
    pub fn threshold(&self) -> f64 {
        let (AlertRuleKind::Threshold { above, .. } | AlertRuleKind::Rate { above, .. }) =
            &self.kind;
        *above
    }
}

/// Which of the three supported quantiles `q` names.
fn quantile_of(q: f64) -> Option<Quantile> {
    if (q - 0.5).abs() < 1e-9 {
        Some(Quantile::P50)
    } else if (q - 0.95).abs() < 1e-9 {
        Some(Quantile::P95)
    } else if (q - 0.99).abs() < 1e-9 {
        Some(Quantile::P99)
    } else {
        None
    }
}

enum Quantile {
    P50,
    P95,
    P99,
}

/// Lifecycle state of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertState {
    /// Condition false; nothing to report.
    Inactive,
    /// Condition true but not yet held for `for_secs`.
    Pending,
    /// Condition held long enough; the alert is live.
    Firing,
    /// Condition cleared after firing; shown once, then inactive.
    Resolved,
}

impl AlertState {
    /// Lowercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }

    /// Gauge encoding (0 = inactive, 1 = pending, 2 = firing,
    /// 3 = resolved).
    pub fn gauge_value(self) -> f64 {
        match self {
            AlertState::Inactive => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
            AlertState::Resolved => 3.0,
        }
    }
}

/// One state transition in the alert timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertEvent {
    /// Evaluation time (caller-supplied seconds).
    pub at_secs: f64,
    /// The rule that transitioned.
    pub rule: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Measured value at the transition (`None` when no data matched).
    pub value: Option<f64>,
}

/// Point-in-time view of one rule, served over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertSnapshot {
    /// Rule name.
    pub rule: String,
    /// Current state.
    pub state: AlertState,
    /// When the current state was entered (caller-supplied seconds).
    pub since_secs: f64,
    /// Most recently measured value (`None` when no data matched).
    pub value: Option<f64>,
    /// The rule's threshold.
    pub threshold: f64,
}

/// Per-rule runtime bookkeeping.
struct RuleRuntime {
    state: AlertState,
    since_secs: f64,
    value: Option<f64>,
}

/// Evaluates a rule set over a history in caller-supplied time, tracking
/// per-rule state and a bounded timeline of transitions.
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    runtime: Vec<RuleRuntime>,
    timeline: VecDeque<AlertEvent>,
    events_dropped: u64,
}

impl AlertEngine {
    /// An engine over `rules`. Invalid rules are the caller's problem —
    /// validate with [`AlertRule::validate`] at config load.
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let runtime = rules
            .iter()
            .map(|_| RuleRuntime { state: AlertState::Inactive, since_secs: 0.0, value: None })
            .collect();
        AlertEngine { rules, runtime, timeline: VecDeque::new(), events_dropped: 0 }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Rules currently firing.
    pub fn firing_count(&self) -> u64 {
        self.runtime.iter().filter(|r| r.state == AlertState::Firing).count() as u64
    }

    /// Rules currently pending.
    pub fn pending_count(&self) -> u64 {
        self.runtime.iter().filter(|r| r.state == AlertState::Pending).count() as u64
    }

    /// The bounded transition timeline, oldest first.
    pub fn timeline(&self) -> impl Iterator<Item = &AlertEvent> {
        self.timeline.iter()
    }

    /// Transitions evicted from the timeline since creation.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Point-in-time view of every rule.
    pub fn snapshot(&self) -> Vec<AlertSnapshot> {
        self.rules
            .iter()
            .zip(&self.runtime)
            .map(|(rule, rt)| AlertSnapshot {
                rule: rule.name.clone(),
                state: rt.state,
                since_secs: rt.since_secs,
                value: rt.value,
                threshold: rule.threshold(),
            })
            .collect()
    }

    /// Evaluates every rule at `now_secs`, returning the transitions this
    /// step produced (also appended to the timeline).
    ///
    /// `_unused` is always `None`; it keeps the three-argument call shape
    /// existing callers use until it is removed.
    pub fn evaluate(
        &mut self,
        now_secs: f64,
        history: &MetricsHistory,
        _unused: Option<std::convert::Infallible>,
    ) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for (rule, rt) in self.rules.iter().zip(self.runtime.iter_mut()) {
            let value = measure(&rule.kind, history);
            rt.value = value;
            let active = value.is_some_and(|v| v > rule.threshold());
            let mut push = |from: AlertState, to: AlertState, since: &mut f64| {
                events.push(AlertEvent {
                    at_secs: now_secs,
                    rule: rule.name.clone(),
                    from,
                    to,
                    value,
                });
                *since = now_secs;
            };
            match (rt.state, active) {
                (AlertState::Inactive | AlertState::Resolved, true) => {
                    push(rt.state, AlertState::Pending, &mut rt.since_secs);
                    rt.state = AlertState::Pending;
                    // A zero (or already-elapsed) hold promotes in the
                    // same evaluation; both transitions land in the
                    // timeline.
                    if now_secs - rt.since_secs >= rule.for_secs {
                        push(AlertState::Pending, AlertState::Firing, &mut rt.since_secs);
                        rt.state = AlertState::Firing;
                    }
                }
                (AlertState::Pending, true) => {
                    if now_secs - rt.since_secs >= rule.for_secs {
                        push(AlertState::Pending, AlertState::Firing, &mut rt.since_secs);
                        rt.state = AlertState::Firing;
                    }
                }
                (AlertState::Pending, false) => {
                    push(AlertState::Pending, AlertState::Inactive, &mut rt.since_secs);
                    rt.state = AlertState::Inactive;
                }
                (AlertState::Firing, false) => {
                    push(AlertState::Firing, AlertState::Resolved, &mut rt.since_secs);
                    rt.state = AlertState::Resolved;
                }
                (AlertState::Resolved, false) => {
                    push(AlertState::Resolved, AlertState::Inactive, &mut rt.since_secs);
                    rt.state = AlertState::Inactive;
                }
                (AlertState::Inactive, false) | (AlertState::Firing, true) => {}
            }
        }
        for e in &events {
            if self.timeline.len() == TIMELINE_CAPACITY {
                self.timeline.pop_front();
                self.events_dropped += 1;
            }
            self.timeline.push_back(e.clone());
        }
        events
    }
}

/// Measures one rule against the history; `None` when no data matches
/// (unknown family, empty history, zero denominator).
fn measure(kind: &AlertRuleKind, history: &MetricsHistory) -> Option<f64> {
    match kind {
        AlertRuleKind::Threshold { family, labels, quantile, window_secs, .. } => {
            let r = history.query(&HistoryQuery {
                family: family.clone(),
                labels: labels.clone(),
                window_secs: *window_secs,
            });
            r.kind?;
            match quantile.map(quantile_of) {
                Some(q) => {
                    let qs = r.total.quantiles?;
                    match q? {
                        Quantile::P50 => Some(qs.p50 as f64),
                        Quantile::P95 => Some(qs.p95 as f64),
                        Quantile::P99 => Some(qs.p99 as f64),
                    }
                }
                None => Some(r.total.last),
            }
        }
        AlertRuleKind::Rate { family, labels, window_secs, per, .. } => {
            let num = history.query(&HistoryQuery {
                family: family.clone(),
                labels: labels.clone(),
                window_secs: *window_secs,
            });
            num.kind?;
            match per {
                Some(denom_family) => {
                    let den = history.query(&HistoryQuery {
                        family: denom_family.clone(),
                        labels: Vec::new(),
                        window_secs: *window_secs,
                    });
                    den.kind?;
                    if den.total.delta > 0.0 {
                        Some(num.total.delta / den.total.delta)
                    } else {
                        None
                    }
                }
                None => Some(num.total.rate),
            }
        }
    }
}

/// The stock rule set the daemon (and simulator) start from: shed rate,
/// ack p99 latency, ingest-queue contention, and round p99 latency.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "shed_rate".to_string(),
            kind: AlertRuleKind::Rate {
                family: "richnote_queue_dropped_total".to_string(),
                labels: Vec::new(),
                window_secs: 60.0,
                per: Some("richnote_pubs_total".to_string()),
                above: 0.05,
            },
            for_secs: 0.0,
        },
        AlertRule {
            name: "ack_p99".to_string(),
            kind: AlertRuleKind::Threshold {
                family: "richnote_stage_duration_us".to_string(),
                labels: vec![("stage".to_string(), "ack".to_string())],
                quantile: Some(0.99),
                window_secs: 60.0,
                above: 50_000.0,
            },
            for_secs: 30.0,
        },
        AlertRule {
            name: "queue_contention".to_string(),
            kind: AlertRuleKind::Rate {
                family: "richnote_queue_contended_total".to_string(),
                labels: Vec::new(),
                window_secs: 60.0,
                per: Some("richnote_pubs_total".to_string()),
                above: 0.25,
            },
            for_secs: 30.0,
        },
        AlertRule {
            // A round is a batched MCKP selection over a shard's users;
            // 100 ms of wall time is already an outlier at test scale.
            name: "round_p99".to_string(),
            kind: AlertRuleKind::Threshold {
                family: "richnote_round_duration_us".to_string(),
                labels: Vec::new(),
                quantile: Some(0.99),
                window_secs: 60.0,
                above: 100_000.0,
            },
            for_secs: 30.0,
        },
    ]
}

/// Watchdog thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Seconds a behind-schedule shard may make no round progress before
    /// it is declared stalled.
    pub stall_secs: f64,
    /// Minimum CPU-time advance (µs) since the last round progress for a
    /// stall to count as *stalled* (spinning) rather than *starved*.
    pub min_cpu_delta_us: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { stall_secs: 10.0, min_cpu_delta_us: 1_000 }
    }
}

/// One shard's vitals as sampled by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardProbe {
    /// Shard index.
    pub shard: usize,
    /// Whether the shard worker answered at all (a dead worker is
    /// *wedged*: its queue accepts nothing and its rounds never advance).
    pub alive: bool,
    /// Rounds the shard has completed.
    pub rounds_done: u64,
    /// Rounds the shard has been asked to complete.
    pub rounds_expected: u64,
    /// Cumulative shard-thread CPU time (µs) from the rsrc counters.
    pub cpu_us: u64,
}

/// One shard's diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchdogVerdict {
    /// Shard index.
    pub shard: usize,
    /// `wedged` (worker dead), `stalled` (behind schedule, burning CPU,
    /// no progress), or `starved` (behind schedule, no CPU either).
    pub problem: String,
    /// Seconds since the shard last made round progress.
    pub stalled_secs: f64,
    /// Rounds completed at diagnosis.
    pub rounds_done: u64,
    /// Rounds expected at diagnosis.
    pub rounds_expected: u64,
}

/// Per-shard progress memory.
struct ShardMemory {
    last_rounds: u64,
    last_progress_at: f64,
    cpu_at_progress: u64,
    seen: bool,
}

/// Detects shards whose round clock stops while wallclock advances.
///
/// Fed with [`ShardProbe`]s at whatever cadence the caller polls;
/// verdicts are recomputed per observation, so a recovered shard simply
/// stops appearing.
pub struct Watchdog {
    cfg: WatchdogConfig,
    shards: Vec<ShardMemory>,
}

impl Watchdog {
    /// A watchdog over `shards` shards.
    pub fn new(shards: usize, cfg: WatchdogConfig) -> Self {
        let shards = (0..shards)
            .map(|_| ShardMemory {
                last_rounds: 0,
                last_progress_at: 0.0,
                cpu_at_progress: 0,
                seen: false,
            })
            .collect();
        Watchdog { cfg, shards }
    }

    /// Ingests one round of probes at `now_secs` and returns every shard
    /// currently in trouble (empty = all healthy).
    pub fn observe(&mut self, now_secs: f64, probes: &[ShardProbe]) -> Vec<WatchdogVerdict> {
        let mut verdicts = Vec::new();
        for p in probes {
            let Some(mem) = self.shards.get_mut(p.shard) else { continue };
            if !p.alive {
                // `last_progress_at` starts at 0.0, so a shard that has
                // been dead since boot accumulates stall time from t=0.
                verdicts.push(WatchdogVerdict {
                    shard: p.shard,
                    problem: "wedged".to_string(),
                    stalled_secs: now_secs - mem.last_progress_at,
                    rounds_done: p.rounds_done,
                    rounds_expected: p.rounds_expected,
                });
                continue;
            }
            if !mem.seen || p.rounds_done > mem.last_rounds || p.rounds_done >= p.rounds_expected {
                // First sight, real progress, or fully caught up: all
                // reset the stall clock. An idle shard with no work
                // outstanding is healthy, not stalled.
                mem.seen = true;
                mem.last_rounds = p.rounds_done;
                mem.last_progress_at = now_secs;
                mem.cpu_at_progress = p.cpu_us;
                continue;
            }
            let stalled_secs = now_secs - mem.last_progress_at;
            if stalled_secs >= self.cfg.stall_secs {
                let cpu_delta = p.cpu_us.saturating_sub(mem.cpu_at_progress);
                let problem =
                    if cpu_delta >= self.cfg.min_cpu_delta_us { "stalled" } else { "starved" };
                verdicts.push(WatchdogVerdict {
                    shard: p.shard,
                    problem: problem.to_string(),
                    stalled_secs,
                    rounds_done: p.rounds_done,
                    rounds_expected: p.rounds_expected,
                });
            }
        }
        verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, RegistrySnapshot};

    /// A snapshot with the given cumulative drop/pub counters and one
    /// ack-stage histogram observation set.
    fn snap(dropped: u64, pubs: u64, ack_samples: &[u64]) -> RegistrySnapshot {
        let mut reg = Registry::new();
        let d = reg.counter("richnote_queue_dropped_total", "drops", &[("shard", "0")]);
        let p = reg.counter("richnote_pubs_total", "pubs", &[("shard", "0")]);
        let h = reg.histogram(
            "richnote_stage_duration_us",
            "stages",
            &[("shard", "server"), ("stage", "ack")],
        );
        reg.set_counter(d, dropped);
        reg.set_counter(p, pubs);
        for &s in ack_samples {
            reg.observe_us(h, s);
        }
        reg.snapshot()
    }

    fn shed_rule(for_secs: f64) -> AlertRule {
        AlertRule {
            name: "shed_rate".to_string(),
            kind: AlertRuleKind::Rate {
                family: "richnote_queue_dropped_total".to_string(),
                labels: Vec::new(),
                window_secs: 60.0,
                per: Some("richnote_pubs_total".to_string()),
                above: 0.05,
            },
            for_secs,
        }
    }

    #[test]
    fn ratio_rule_walks_pending_firing_resolved() {
        let mut h = MetricsHistory::new(16);
        let mut e = AlertEngine::new(vec![shed_rule(10.0)]);

        h.record(0.0, snap(0, 100, &[]));
        assert!(e.evaluate(0.0, &h, None).is_empty());

        // 30% of new pubs shed: pending at t=10.
        h.record(10.0, snap(30, 200, &[]));
        let ev = e.evaluate(10.0, &h, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to, AlertState::Pending);
        assert_eq!(e.pending_count(), 1);

        // Still shedding at t=20 (held >= for_secs): firing.
        h.record(20.0, snap(60, 300, &[]));
        let ev = e.evaluate(20.0, &h, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to, AlertState::Firing);
        assert_eq!(e.firing_count(), 1);

        // Shedding stops (window still sees old drops at t=25, so move
        // past the window): resolved, then inactive.
        h.record(90.0, snap(60, 2_000, &[]));
        let ev = e.evaluate(90.0, &h, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].from, AlertState::Firing);
        assert_eq!(ev[0].to, AlertState::Resolved);
        h.record(100.0, snap(60, 2_100, &[]));
        let ev = e.evaluate(100.0, &h, None);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].to, AlertState::Inactive);
        assert_eq!(e.firing_count(), 0);
    }

    #[test]
    fn zero_hold_fires_in_one_evaluation_with_both_transitions() {
        let mut h = MetricsHistory::new(16);
        let mut e = AlertEngine::new(vec![shed_rule(0.0)]);
        h.record(0.0, snap(0, 100, &[]));
        e.evaluate(0.0, &h, None);
        h.record(5.0, snap(50, 200, &[]));
        let ev = e.evaluate(5.0, &h, None);
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].from, ev[0].to), (AlertState::Inactive, AlertState::Pending));
        assert_eq!((ev[1].from, ev[1].to), (AlertState::Pending, AlertState::Firing));
    }

    #[test]
    fn pending_cancels_when_the_condition_clears() {
        let mut h = MetricsHistory::new(16);
        let mut e = AlertEngine::new(vec![shed_rule(60.0)]);
        h.record(0.0, snap(0, 100, &[]));
        e.evaluate(0.0, &h, None);
        h.record(10.0, snap(30, 200, &[]));
        assert_eq!(e.evaluate(10.0, &h, None)[0].to, AlertState::Pending);
        // Window slides past the drops before the hold elapses.
        h.record(80.0, snap(30, 1_000, &[]));
        let ev = e.evaluate(80.0, &h, None);
        assert_eq!((ev[0].from, ev[0].to), (AlertState::Pending, AlertState::Inactive));
    }

    #[test]
    fn quantile_threshold_reads_windowed_p99() {
        let mut h = MetricsHistory::new(16);
        let rule = AlertRule {
            name: "ack_p99".to_string(),
            kind: AlertRuleKind::Threshold {
                family: "richnote_stage_duration_us".to_string(),
                labels: vec![("stage".to_string(), "ack".to_string())],
                quantile: Some(0.99),
                window_secs: 60.0,
                above: 50_000.0,
            },
            for_secs: 0.0,
        };
        let mut e = AlertEngine::new(vec![rule]);
        h.record(0.0, snap(0, 10, &[100, 200]));
        assert!(e.evaluate(0.0, &h, None).is_empty(), "fast acks stay quiet");
        h.record(10.0, snap(0, 20, &[100, 200, 900_000, 800_000, 700_000]));
        let ev = e.evaluate(10.0, &h, None);
        assert_eq!(ev.last().unwrap().to, AlertState::Firing);
        let snapshot = e.snapshot();
        assert!(snapshot[0].value.unwrap() > 50_000.0, "{snapshot:?}");
    }

    #[test]
    fn absent_family_and_zero_denominator_read_as_no_data() {
        let mut h = MetricsHistory::new(4);
        let mut e = AlertEngine::new(vec![
            AlertRule {
                name: "ghost".to_string(),
                kind: AlertRuleKind::Threshold {
                    family: "richnote_does_not_exist".to_string(),
                    labels: Vec::new(),
                    quantile: None,
                    window_secs: 60.0,
                    above: 0.0,
                },
                for_secs: 0.0,
            },
            shed_rule(0.0),
        ]);
        // Empty history: nothing fires.
        assert!(e.evaluate(0.0, &h, None).is_empty());
        // Drops grow but pubs do not: denominator is 0, so no value.
        h.record(0.0, snap(0, 100, &[]));
        e.evaluate(0.0, &h, None);
        h.record(10.0, snap(50, 100, &[]));
        assert!(e.evaluate(10.0, &h, None).is_empty());
        assert_eq!(e.snapshot()[0].value, None);
    }

    /// The stock rules' `round_p99` state after 40 s of rounds that each
    /// take `round_us`, sampled every 10 s.
    fn round_p99_state_after(round_us: u64) -> AlertState {
        let mut reg = Registry::new();
        let h = reg.histogram("richnote_round_duration_us", "rounds", &[("shard", "0")]);
        let mut history = MetricsHistory::new(16);
        let mut e = AlertEngine::new(default_rules());
        for t in 0..5u32 {
            for _ in 0..10 {
                reg.observe_us(h, round_us);
            }
            history.record(f64::from(t) * 10.0, reg.snapshot());
            e.evaluate(f64::from(t) * 10.0, &history, None);
        }
        e.snapshot().into_iter().find(|a| a.rule == "round_p99").expect("stock rule").state
    }

    #[test]
    fn slow_rounds_fire_the_stock_round_p99_rule() {
        // 200 ms rounds held for 30 s fire; 1 ms rounds never leave
        // inactive.
        assert_eq!(round_p99_state_after(200_000), AlertState::Firing);
        assert_eq!(round_p99_state_after(1_000), AlertState::Inactive);
    }

    #[test]
    fn same_inputs_produce_byte_identical_timelines() {
        let run = || {
            let mut h = MetricsHistory::new(16);
            let mut e = AlertEngine::new(default_rules());
            for t in 0..12u64 {
                let drops = if (4..8).contains(&t) {
                    t * 40
                } else {
                    if t >= 8 {
                        280
                    } else {
                        0
                    }
                };
                h.record(t as f64 * 10.0, snap(drops, 100 * (t + 1), &[50]));
                e.evaluate(t as f64 * 10.0, &h, None);
            }
            serde_json::to_string(&e.timeline().cloned().collect::<Vec<_>>()).unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("\"Firing\""), "{a}");
    }

    #[test]
    fn alert_state_gauges_track_states() {
        let mut h = MetricsHistory::new(16);
        let mut e = AlertEngine::new(vec![shed_rule(0.0)]);
        h.record(0.0, snap(0, 100, &[]));
        e.evaluate(0.0, &h, None);
        h.record(10.0, snap(90, 200, &[]));
        e.evaluate(10.0, &h, None);
        let states: Vec<f64> = e.snapshot().iter().map(|a| a.state.gauge_value()).collect();
        assert_eq!(states, [2.0], "one rule, firing");
    }

    #[test]
    fn timeline_is_bounded() {
        let mut h = MetricsHistory::new(4);
        let mut e = AlertEngine::new(vec![shed_rule(0.0)]);
        let mut pubs = 100u64;
        let mut drops = 0u64;
        for t in 0..400u64 {
            // Alternate shedding on and off so every step transitions.
            if t % 2 == 0 {
                drops += 100;
            }
            pubs += 100;
            h.record(t as f64 * 100.0, snap(drops, pubs, &[]));
            e.evaluate(t as f64 * 100.0, &h, None);
        }
        assert!(e.timeline().count() <= TIMELINE_CAPACITY);
        assert!(e.events_dropped() > 0);
    }

    #[test]
    fn rule_validation_names_the_problem() {
        let mut r = shed_rule(0.0);
        assert!(r.validate().is_ok());
        r.name = String::new();
        assert!(r.validate().unwrap_err().contains("name"));
        let bad_q = AlertRule {
            name: "q".to_string(),
            kind: AlertRuleKind::Threshold {
                family: "f".to_string(),
                labels: Vec::new(),
                quantile: Some(0.42),
                window_secs: 60.0,
                above: 1.0,
            },
            for_secs: 0.0,
        };
        assert!(bad_q.validate().unwrap_err().contains("quantile"));
        let bad_w = AlertRule {
            name: "w".to_string(),
            kind: AlertRuleKind::Rate {
                family: "f".to_string(),
                labels: Vec::new(),
                window_secs: 0.0,
                per: None,
                above: 1.0,
            },
            for_secs: 0.0,
        };
        assert!(bad_w.validate().unwrap_err().contains("window_secs"));
        // Infinite holds, thresholds and windows never fire (and do not
        // survive a JSON round trip).
        let inf = f64::INFINITY;
        assert!(shed_rule(inf).validate().unwrap_err().contains("for_secs"));
        for (field, above, window) in [("above", inf, 60.0), ("window_secs", 0.05, inf)] {
            let mut r = shed_rule(0.0);
            if let AlertRuleKind::Rate { above: a, window_secs: w, .. } = &mut r.kind {
                (*a, *w) = (above, window);
            }
            assert!(r.validate().unwrap_err().contains(field), "{field}");
        }
    }

    #[test]
    fn rules_roundtrip_through_json() {
        let rules = default_rules();
        let json = serde_json::to_string(&rules).unwrap();
        let back: Vec<AlertRule> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rules);
    }

    fn probe(shard: usize, alive: bool, done: u64, expected: u64, cpu: u64) -> ShardProbe {
        ShardProbe { shard, alive, rounds_done: done, rounds_expected: expected, cpu_us: cpu }
    }

    #[test]
    fn watchdog_flags_wedged_shards_immediately() {
        let mut w = Watchdog::new(2, WatchdogConfig::default());
        let v = w.observe(0.0, &[probe(0, true, 1, 1, 10), probe(1, false, 0, 1, 0)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].shard, 1);
        assert_eq!(v[0].problem, "wedged");
    }

    #[test]
    fn watchdog_separates_stalled_from_starved() {
        let cfg = WatchdogConfig { stall_secs: 5.0, min_cpu_delta_us: 1_000 };
        let mut w = Watchdog::new(2, cfg);
        // t=0: both behind but freshly observed.
        w.observe(0.0, &[probe(0, true, 3, 10, 100), probe(1, true, 3, 10, 100)]);
        // t=10: neither advanced; shard 0 burned CPU (stalled), shard 1
        // got none (starved).
        let v = w.observe(10.0, &[probe(0, true, 3, 10, 90_100), probe(1, true, 3, 10, 100)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].problem, "stalled");
        assert_eq!(v[1].problem, "starved");
        assert!((v[0].stalled_secs - 10.0).abs() < 1e-9);
    }

    #[test]
    fn watchdog_ignores_idle_and_progressing_shards() {
        let cfg = WatchdogConfig { stall_secs: 5.0, min_cpu_delta_us: 1_000 };
        let mut w = Watchdog::new(2, cfg);
        w.observe(0.0, &[probe(0, true, 5, 5, 10), probe(1, true, 2, 10, 10)]);
        // Shard 0 is caught up (idle is healthy); shard 1 made progress.
        let v = w.observe(20.0, &[probe(0, true, 5, 5, 10), probe(1, true, 7, 10, 10_000)]);
        assert!(v.is_empty(), "{v:?}");
        // A shard that later stops while behind is caught.
        let v = w.observe(40.0, &[probe(0, true, 5, 5, 10), probe(1, true, 7, 10, 99_000)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].shard, 1);
        assert_eq!(v[0].problem, "stalled");
        // Recovery: progress resumes, the verdict disappears.
        let v = w.observe(50.0, &[probe(0, true, 5, 5, 10), probe(1, true, 10, 10, 100_000)]);
        assert!(v.is_empty(), "{v:?}");
    }
}
