//! Canonical snapshots: the deterministic projection of a daemon's
//! observable state that replay runs are compared on.
//!
//! A raw `Trace` + `Stats` drain mixes deterministic facts (which
//! publications were selected, at what level, under what budget) with
//! wall-clock and scheduling noise (stage latencies, CPU time, uptime,
//! contention counts). Canonicalization keeps only what a correct replay
//! must reproduce bit-for-bit:
//!
//! * **Span trees** — every span field is logical (trace ids, stages,
//!   rounds, users, levels, utilities, budgets); trees are re-sorted by
//!   trace id and spans within a tree by `(stage, serialized form)` so
//!   the result is a total order independent of dump interleaving.
//! * **Deterministic counters** — the allowlist in
//!   [`DETERMINISTIC_COUNTERS`]: publication, selection, round, budget,
//!   level, shed, and adaptive-policy counts. Gauges (uptime, backlog
//!   snapshots, utility cohorts), histograms (all latency-valued), and
//!   resource/contention/SLO counters are stripped — they measure the
//!   machine, not the policy. The quality families stay out too: utility
//!   is gauge-valued and both it and the byte/suppression cohorts reset
//!   on restart, so they diverge across a capture/replay boundary.
//!
//! The canonical form serializes to stable pretty JSON (fixed field
//! order, sorted series), which is what golden fixtures commit and what
//! [`crate::diff`] compares.

use richnote_obs::{MetricValue, RegistrySnapshot, SpanRecord, SpanTree};
use serde::{Deserialize, Serialize};

/// Counter families whose values depend only on the fed workload, never
/// on wall-clock timing or thread scheduling. Everything else is
/// stripped from the canonical form.
pub const DETERMINISTIC_COUNTERS: &[&str] = &[
    "richnote_pubs_total",
    "richnote_selected_total",
    "richnote_rounds_total",
    "richnote_bytes_spent_total",
    "richnote_bytes_budgeted_total",
    "richnote_queue_dropped_total",
    "richnote_level_total",
    "richnote_adaptive_rounds_total",
    "richnote_adaptive_grant_scaled_total",
    "richnote_adaptive_capped_total",
    "richnote_adaptive_offline_predicted_total",
    "richnote_adaptive_grant_bytes_total",
];

/// Canonical-form layout version.
pub const CANONICAL_FORMAT: u32 = 1;

/// One deterministic counter series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanonicalCounter {
    /// Family name (from [`DETERMINISTIC_COUNTERS`]).
    pub name: String,
    /// Label pairs, sorted.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

impl CanonicalCounter {
    /// `name{k="v",…}` — the series key used in diff reports.
    pub fn key(&self) -> String {
        let labels: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// The deterministic projection of one daemon run: canonical span trees
/// plus the allowlisted counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanonicalSnapshot {
    /// Layout version ([`CANONICAL_FORMAT`]).
    pub format: u32,
    /// Assembled span trees, sorted by trace id; spans within a tree in
    /// `(stage, serialized form)` order.
    pub trees: Vec<SpanTree>,
    /// Deterministic counter series, sorted by name then labels.
    pub counters: Vec<CanonicalCounter>,
}

impl CanonicalSnapshot {
    /// Builds the canonical form from a raw span drain and a merged
    /// registry snapshot.
    pub fn build(spans: &[SpanRecord], snapshot: &RegistrySnapshot) -> CanonicalSnapshot {
        let mut trees = SpanTree::assemble(spans);
        for tree in &mut trees {
            // `assemble` sorts by stage (stable on arrival order, which a
            // multi-shard dump does not fix); break ties on the span's
            // serialized form for a total order.
            tree.spans.sort_by(|a, b| {
                a.stage.cmp(&b.stage).then_with(|| {
                    let ja = serde_json::to_string(a).unwrap_or_default();
                    let jb = serde_json::to_string(b).unwrap_or_default();
                    ja.cmp(&jb)
                })
            });
        }
        trees.sort_by_key(|t| t.trace);

        let mut counters = Vec::new();
        for family in &snapshot.families {
            if !DETERMINISTIC_COUNTERS.contains(&family.name.as_str()) {
                continue;
            }
            for series in &family.series {
                if let MetricValue::Counter(value) = &series.value {
                    counters.push(CanonicalCounter {
                        name: family.name.clone(),
                        labels: series.labels.clone(),
                        value: *value,
                    });
                }
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        CanonicalSnapshot { format: CANONICAL_FORMAT, trees, counters }
    }

    /// Stable pretty-JSON rendering — the bytes golden fixtures commit.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string()) + "\n"
    }

    /// Parses a canonical snapshot back from [`CanonicalSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the parse error text for malformed or wrong-format JSON.
    pub fn from_json(text: &str) -> Result<CanonicalSnapshot, String> {
        let snap: CanonicalSnapshot = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if snap.format != CANONICAL_FORMAT {
            return Err(format!(
                "canonical format {} is not the supported {CANONICAL_FORMAT}",
                snap.format
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_obs::Registry;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord::publish(9, 1, 42),
            SpanRecord::publish(3, 2, 43),
            SpanRecord::queued(3, 0, 0, 5, 43),
        ]
    }

    fn sample_registry() -> Registry {
        let mut reg = Registry::new();
        let pubs = reg.counter("richnote_pubs_total", "pubs", &[("shard", "0")]);
        reg.inc(pubs, 7);
        let cpu = reg.counter("richnote_cpu_us_total", "cpu", &[("shard", "0")]);
        reg.inc(cpu, 123_456);
        let up = reg.gauge("richnote_uptime_secs", "uptime", &[("shard", "server")]);
        reg.set_gauge(up, 99.0);
        reg
    }

    #[test]
    fn canonical_form_sorts_trees_and_strips_nondeterminism() {
        let canon = CanonicalSnapshot::build(&sample_spans(), &sample_registry().snapshot());
        // Trees sorted by trace id (arrival order was 9 then 3).
        let ids: Vec<u64> = canon.trees.iter().map(|t| t.trace).collect();
        assert_eq!(ids, vec![3, 9]);
        // Only the allowlisted counter family survives; CPU and uptime
        // are stripped.
        assert_eq!(canon.counters.len(), 1);
        assert_eq!(canon.counters[0].name, "richnote_pubs_total");
        assert_eq!(canon.counters[0].value, 7);
        assert_eq!(canon.counters[0].key(), "richnote_pubs_total{shard=\"0\"}");
    }

    #[test]
    fn canonical_json_roundtrips_and_is_stable() {
        let canon = CanonicalSnapshot::build(&sample_spans(), &sample_registry().snapshot());
        let json = canon.to_json();
        let back = CanonicalSnapshot::from_json(&json).unwrap();
        assert_eq!(back, canon);
        assert_eq!(back.to_json(), json, "rendering is byte-stable");
    }

    #[test]
    fn span_order_does_not_change_the_canonical_form() {
        let mut spans = sample_spans();
        let snapshot = sample_registry().snapshot();
        let a = CanonicalSnapshot::build(&spans, &snapshot);
        spans.reverse();
        let b = CanonicalSnapshot::build(&spans, &snapshot);
        assert_eq!(a, b, "canonicalization must erase dump interleaving");
    }
}
