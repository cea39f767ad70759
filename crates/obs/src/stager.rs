//! Span staging: which finished traces are kept.
//!
//! A publication's early spans (Publish, Queue) exist before anyone knows
//! whether its trace is worth keeping — that is only known when the
//! selector commits a level. A [`SpanStager`] buffers those spans per
//! `(user, content)`, and at selection time appends the Select and
//! Serialize spans and rules on the whole tree: kept when the
//! [`SampleRate`] keeps its id *or* the selection is anomalous (level
//! 0–1), discarded otherwise. The shard worker and the simulator both
//! drive this one implementation, so a trace is sampled the same way
//! wherever it runs.

use crate::sampler::SampleRate;
use crate::span::{SpanDecision, SpanRecord, SpanTree};
use std::collections::HashMap;

/// Bounded staging of in-flight span traces for one shard (the simulator
/// is shard 0).
///
/// Keyed by `(user, content)`: one publication fans out to one
/// notification per matched subscriber, all sharing a content and trace
/// id, and each subscriber's selection finishes its own tree.
#[derive(Debug)]
pub struct SpanStager {
    shard: usize,
    sample: SampleRate,
    cap: usize,
    staged: HashMap<(u64, u64), Vec<SpanRecord>>,
    shed: u64,
}

impl SpanStager {
    /// A stager for `shard` holding at most `cap` in-flight traces.
    /// [`SampleRate::OFF`] stages nothing.
    pub fn new(shard: usize, sample: SampleRate, cap: usize) -> Self {
        SpanStager { shard, sample, cap, staged: HashMap::new(), shed: 0 }
    }

    /// Traces refused because the staging map was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Buffers `spans` (all of one trace) for `user`'s notification of
    /// `content` until [`SpanStager::finish`] rules on the trace. A new
    /// trace arriving at a full map is shed and counted.
    pub fn stage(&mut self, user: u64, content: u64, spans: impl IntoIterator<Item = SpanRecord>) {
        if self.sample.is_off() {
            return;
        }
        let key = (user, content);
        if self.staged.len() >= self.cap && !self.staged.contains_key(&key) {
            self.shed += 1;
            return;
        }
        self.staged.entry(key).or_default().extend(spans);
    }

    /// Finishes the trace staged for `(user, content)`, if any: appends
    /// the Select span carrying `decision` and the Serialize span carrying
    /// `bytes`, then returns the whole tree when the head sampler keeps
    /// its id or the selection is anomalous (level ≤ 1), and `None` when
    /// the trace is sampled away.
    pub fn finish(
        &mut self,
        round: u64,
        user: u64,
        content: u64,
        decision: SpanDecision,
        bytes: u64,
    ) -> Option<SpanTree> {
        let mut spans = self.staged.remove(&(user, content))?;
        let trace = spans.first()?.trace;
        let anomalous = decision.level <= 1;
        if !anomalous && !self.sample.keeps(trace) {
            return None;
        }
        spans.push(SpanRecord::selected(trace, self.shard, round, user, content, decision));
        spans.push(SpanRecord::serialized(trace, self.shard, round, content, bytes));
        Some(SpanTree { trace, spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStage;

    fn decision(level: u8) -> SpanDecision {
        SpanDecision { level, utility: 0.5, gradient: 1.0e-5, budget_remaining: 1000 }
    }

    #[test]
    fn finish_appends_select_and_serialize_to_the_staged_spans() {
        let mut st = SpanStager::new(2, SampleRate::ALL, 8);
        st.stage(5, 42, [SpanRecord::publish(7, 1, 42), SpanRecord::queued(7, 2, 0, 5, 42)]);
        let tree = st.finish(3, 5, 42, decision(4), 9_000).expect("kept at 1/1");
        assert_eq!(tree.trace, 7);
        assert_eq!(
            tree.spans.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![SpanStage::Publish, SpanStage::Queue, SpanStage::Select, SpanStage::Serialize]
        );
        let sel = tree.stage(SpanStage::Select).unwrap();
        assert_eq!((sel.shard, sel.round, sel.user), (Some(2), Some(3), Some(5)));
        assert_eq!(tree.stage(SpanStage::Serialize).unwrap().bytes, Some(9_000));
        assert!(st.finish(3, 5, 42, decision(4), 9_000).is_none(), "a trace finishes once");
    }

    #[test]
    fn a_full_map_sheds_new_traces_and_off_stages_nothing() {
        let mut st = SpanStager::new(0, SampleRate::ALL, 1);
        st.stage(1, 1, [SpanRecord::queued(7, 0, 0, 1, 1)]);
        st.stage(1, 2, [SpanRecord::queued(8, 0, 0, 1, 2)]);
        assert_eq!(st.shed(), 1);
        assert!(st.finish(0, 1, 2, decision(3), 100).is_none(), "the shed trace left nothing");
        assert!(st.finish(0, 1, 1, decision(3), 100).is_some());

        let mut off = SpanStager::new(0, SampleRate::OFF, 8);
        off.stage(1, 1, [SpanRecord::queued(7, 0, 0, 1, 1)]);
        assert_eq!(off.shed(), 0);
        assert!(off.finish(0, 1, 1, decision(1), 100).is_none());
    }
}
