//! Per-publication causal spans.
//!
//! A *trace* follows one publication end to end: the publisher mints a
//! 64-bit trace id at `Publish` time (or the simulator derives one from
//! virtual time + seed), the id rides the wire as an optional frame field,
//! and every pipeline stage the publication passes through appends a
//! [`SpanRecord`] — publish, broker match, shard enqueue, MCKP selection
//! (carrying the decision that the aggregate metrics can't answer: chosen
//! level, realized utility, the gradient that won the knapsack slot, and
//! the budget left at decision time), serialization, and ack. Records
//! carry only *logical* fields — rounds, ids, byte counts — never
//! wall-clock timestamps, so a seeded run dumps byte-identical spans.
//!
//! Spans are the daemon's only trace model: the shard and server trace
//! rings are [`Ring<SpanRecord>`](crate::Ring), and a drain is grouped
//! back into [`SpanTree`]s by trace id for rendering and for the flight
//! recorder. Which finished traces are kept is [`crate::SpanStager`]'s
//! decision.

use serde::{Deserialize, Serialize};

/// Pipeline stage a span record describes.
///
/// Ordered by pipeline position so a sorted span list reads as the
/// publication's causal history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanStage {
    /// Publisher handed the publication to the daemon (trace root).
    Publish,
    /// Broker matched the topic to subscribers.
    Match,
    /// A shard accepted the per-subscriber notification into its queue.
    Queue,
    /// The MCKP selector chose a presentation level.
    Select,
    /// The chosen presentation was packaged for delivery.
    Serialize,
    /// The daemon acked the publish sequence back to the publisher.
    Ack,
    /// The notification was shed (queue overflow or drain refusal)
    /// before selection — always captured regardless of sampling.
    Drop,
}

/// The selection decision attached to a [`SpanStage::Select`] record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanDecision {
    /// Presentation level chosen (0 = suppressed).
    pub level: u8,
    /// Combined utility realized at the chosen level.
    pub utility: f64,
    /// Greedy gradient of the final upgrade into the chosen level (the
    /// adjusted-utility-per-byte slope that won the knapsack slot; 0 for
    /// base selections and non-MCKP baselines).
    pub gradient: f64,
    /// Bytes of the per-round budget still unspent immediately after
    /// this delivery was charged.
    pub budget_remaining: u64,
}

/// One stage of one publication's causal history.
///
/// Only the fields meaningful for the stage are populated; the rest are
/// `None` (encoded as JSON `null`, and tolerated as absent on the read
/// side so older dumps stay loadable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace id minted at publish time (never 0; 0 means "untraced").
    pub trace: u64,
    /// Pipeline stage.
    pub stage: SpanStage,
    /// Shard that ran the stage (None for connection-side stages).
    pub shard: Option<usize>,
    /// Round index at which the stage ran (virtual time).
    pub round: Option<u64>,
    /// Receiving user (per-subscriber stages).
    pub user: Option<u64>,
    /// Content id of the publication.
    pub content: Option<u64>,
    /// Publish sequence number (publish/match/ack stages).
    pub seq: Option<u64>,
    /// Subscribers matched (match stage).
    pub matched: Option<usize>,
    /// Bytes of the chosen presentation (serialize stage).
    pub bytes: Option<u64>,
    /// Selection decision (select stage).
    pub decision: Option<SpanDecision>,
}

impl SpanRecord {
    fn bare(trace: u64, stage: SpanStage) -> Self {
        SpanRecord {
            trace,
            stage,
            shard: None,
            round: None,
            user: None,
            content: None,
            seq: None,
            matched: None,
            bytes: None,
            decision: None,
        }
    }

    /// The trace root, recorded when the daemon accepts a traced publish.
    pub fn publish(trace: u64, seq: u64, content: u64) -> Self {
        SpanRecord {
            seq: Some(seq),
            content: Some(content),
            ..Self::bare(trace, SpanStage::Publish)
        }
    }

    /// Broker matched the publication to `matched` subscribers.
    pub fn matched(trace: u64, seq: u64, matched: usize) -> Self {
        SpanRecord { seq: Some(seq), matched: Some(matched), ..Self::bare(trace, SpanStage::Match) }
    }

    /// A shard enqueued the notification for `user` during `round`.
    pub fn queued(trace: u64, shard: usize, round: u64, user: u64, content: u64) -> Self {
        SpanRecord {
            shard: Some(shard),
            round: Some(round),
            user: Some(user),
            content: Some(content),
            ..Self::bare(trace, SpanStage::Queue)
        }
    }

    /// The selector chose a level for the notification.
    pub fn selected(
        trace: u64,
        shard: usize,
        round: u64,
        user: u64,
        content: u64,
        decision: SpanDecision,
    ) -> Self {
        SpanRecord {
            shard: Some(shard),
            round: Some(round),
            user: Some(user),
            content: Some(content),
            decision: Some(decision),
            ..Self::bare(trace, SpanStage::Select)
        }
    }

    /// The chosen presentation was packaged into the delivery report.
    pub fn serialized(trace: u64, shard: usize, round: u64, content: u64, bytes: u64) -> Self {
        SpanRecord {
            shard: Some(shard),
            round: Some(round),
            content: Some(content),
            bytes: Some(bytes),
            ..Self::bare(trace, SpanStage::Serialize)
        }
    }

    /// The daemon acked the publish sequence back to the publisher.
    pub fn acked(trace: u64, seq: u64) -> Self {
        SpanRecord { seq: Some(seq), ..Self::bare(trace, SpanStage::Ack) }
    }

    /// The notification was shed before selection (anomaly; always kept).
    pub fn dropped(trace: u64, shard: Option<usize>) -> Self {
        SpanRecord { shard, ..Self::bare(trace, SpanStage::Drop) }
    }
}

/// All spans observed for one trace id, in pipeline order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanTree {
    /// The trace id the spans share.
    pub trace: u64,
    /// Span records sorted by [`SpanStage`] (stable within a stage).
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// Groups spans by trace id, preserving first-appearance order of
    /// traces and sorting each tree's spans into pipeline order.
    pub fn assemble(spans: &[SpanRecord]) -> Vec<SpanTree> {
        let mut order: Vec<u64> = Vec::new();
        let mut by_trace: std::collections::HashMap<u64, Vec<SpanRecord>> =
            std::collections::HashMap::new();
        for rec in spans {
            by_trace
                .entry(rec.trace)
                .or_insert_with(|| {
                    order.push(rec.trace);
                    Vec::new()
                })
                .push(rec.clone());
        }
        order
            .into_iter()
            .map(|trace| {
                let mut spans = by_trace.remove(&trace).expect("grouped above");
                spans.sort_by_key(|s| s.stage);
                SpanTree { trace, spans }
            })
            .collect()
    }

    /// The first span at `stage`, if any.
    pub fn stage(&self, stage: SpanStage) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// Whether the full publish→queue→select→serialize→ack path was
    /// captured (match is connection-side and optional for shard-local
    /// assemblies).
    pub fn is_complete(&self) -> bool {
        [
            SpanStage::Publish,
            SpanStage::Queue,
            SpanStage::Select,
            SpanStage::Serialize,
            SpanStage::Ack,
        ]
        .iter()
        .all(|&st| self.stage(st).is_some())
    }

    /// Whether the trace captured an anomaly: a shed notification or a
    /// selection downgraded to level 0–1. Anomalous traces bypass head
    /// sampling so they are always available post-mortem.
    pub fn is_anomalous(&self) -> bool {
        self.spans.iter().any(|s| {
            s.stage == SpanStage::Drop || s.decision.as_ref().is_some_and(|d| d.level <= 1)
        })
    }

    /// Renders the tree as JSON lines, one span per line, in pipeline
    /// order — the byte format compared across seeded runs.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            if let Ok(line) = serde_json::to_string(span) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Derives a deterministic nonzero 64-bit trace id from logical
/// coordinates: a run seed, a virtual-time stamp (any stable integer
/// encoding — round index, `f64::to_bits` of virtual seconds, or a repeat
/// counter), and the content id. No wall clock is involved, so the same
/// seeded simulator or loadgen run always mints the same ids.
///
/// The mixing is a splitmix64-style finalizer, which spreads sequential
/// inputs across the id space well enough for modulo head sampling.
pub fn derive_trace_id(seed: u64, virtual_stamp: u64, content: u64) -> u64 {
    let mut z = seed ^ virtual_stamp.rotate_left(17) ^ content.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 0 is reserved to mean "untraced" in compact encodings.
    if z == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(level: u8) -> SpanDecision {
        SpanDecision { level, utility: 0.5, gradient: 1.0e-5, budget_remaining: 1000 }
    }

    #[test]
    fn derive_is_deterministic_and_nonzero() {
        let a = derive_trace_id(7, 3600, 42);
        let b = derive_trace_id(7, 3600, 42);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(a, derive_trace_id(8, 3600, 42), "seed changes the id");
        assert_ne!(a, derive_trace_id(7, 7200, 42), "virtual time changes the id");
        assert_ne!(a, derive_trace_id(7, 3600, 43), "content changes the id");
    }

    #[test]
    fn assemble_groups_by_trace_and_sorts_stages() {
        let spans = vec![
            SpanRecord::selected(9, 0, 2, 5, 42, decision(3)),
            SpanRecord::publish(9, 1, 42),
            SpanRecord::publish(4, 2, 43),
            SpanRecord::queued(9, 0, 1, 5, 42),
        ];
        let trees = SpanTree::assemble(&spans);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 9, "first-appearance order");
        assert_eq!(
            trees[0].spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![SpanStage::Publish, SpanStage::Queue, SpanStage::Select],
            "pipeline order, not arrival order"
        );
        assert_eq!(trees[1].trace, 4);
        assert!(!trees[0].is_complete(), "serialize and ack missing");
    }

    #[test]
    fn complete_tree_requires_all_five_stages() {
        let spans = vec![
            SpanRecord::publish(1, 1, 42),
            SpanRecord::queued(1, 0, 0, 5, 42),
            SpanRecord::selected(1, 0, 1, 5, 42, decision(4)),
            SpanRecord::serialized(1, 0, 1, 42, 9000),
            SpanRecord::acked(1, 1),
        ];
        let trees = SpanTree::assemble(&spans);
        assert_eq!(trees.len(), 1);
        assert!(trees[0].is_complete());
        assert!(!trees[0].is_anomalous());
        let sel = trees[0].stage(SpanStage::Select).unwrap();
        assert_eq!(sel.decision.as_ref().unwrap().level, 4);
    }

    #[test]
    fn anomaly_flags_drops_and_low_levels() {
        let dropped = SpanTree::assemble(&[SpanRecord::dropped(2, Some(1))]);
        assert!(dropped[0].is_anomalous());
        let low = SpanTree::assemble(&[SpanRecord::selected(3, 0, 1, 5, 42, decision(1))]);
        assert!(low[0].is_anomalous());
        let fine = SpanTree::assemble(&[SpanRecord::selected(4, 0, 1, 5, 42, decision(2))]);
        assert!(!fine[0].is_anomalous());
    }

    #[test]
    fn span_records_roundtrip_as_json() {
        let rec = SpanRecord::acked(11, 3);
        let s = serde_json::to_string(&rec).unwrap();
        let back: SpanRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back, rec);
        let full = SpanRecord::selected(11, 2, 9, 5, 42, decision(5));
        let s = serde_json::to_string(&full).unwrap();
        let back: SpanRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn span_records_tolerate_absent_optional_fields() {
        // A reader of older dumps (or a hand-written probe) may omit the
        // per-stage optionals entirely; they deserialize as None.
        let s = r#"{"trace":5,"stage":"Ack","seq":3}"#;
        let back: SpanRecord = serde_json::from_str(s).unwrap();
        assert_eq!(back, SpanRecord::acked(5, 3));
    }
}
