//! Deterministic per-publication span traces for simulator runs.
//!
//! The daemon mints trace ids client-side at publish time; the simulator
//! has no wall clock and no wire, so ids derive purely from logical
//! coordinates — the run seed, the item's virtual arrival time
//! (`f64::to_bits`) and the content id — via
//! [`richnote_obs::derive_trace_id`]. The harness stages a Publish and a
//! Queue span for every arrival, then rides the
//! [`SelectionObserver`] hook of the per-user round loop
//! ([`crate::user::simulate_user_observed`]) to finish each trace with
//! Select (carrying the decision: chosen level, utility, winning
//! gradient, budget remaining) and Serialize spans the moment the MCKP
//! selector commits.
//!
//! Which finished trees are kept is the daemon's own decision — the
//! harness drives the same [`SpanStager`] a shard worker does, so a tree
//! is kept when the [`SampleRate`] keeps its id *or* the trace is
//! anomalous (selection downgraded to level 0–1) and
//! post-mortem-interesting traces survive any sampling rate.
//! Everything recorded is virtual-time only — the
//! same seed and trace always dump byte-identical span trees, which is
//! asserted by test below and makes simulator span dumps diffable
//! artifacts.

use crate::simulator::SimulationConfig;
use crate::user::simulate_user_observed;
use crate::UserMetrics;
use richnote_core::content::ContentItem;
use richnote_core::ids::{ContentId, UserId};
use richnote_core::policy::{SelectDecision, SelectionObserver};
use richnote_obs::{derive_trace_id, SampleRate, SpanDecision, SpanRecord, SpanStager, SpanTree};

/// Mints trace ids and stages each publication's Publish and Queue spans
/// in a [`SpanStager`], then collects the trees the stager keeps.
/// Implements [`SelectionObserver`] so it can ride any policy's round
/// loop.
pub struct SpanHarness {
    user: u64,
    stager: SpanStager,
    finished: Vec<SpanTree>,
}

impl SpanHarness {
    /// A harness for one user's run: mints an id per item and stages its
    /// Publish and Queue spans up front (arrival order, so staging is
    /// deterministic).
    ///
    /// The Queue span's round is the round the arrival falls into
    /// (`arrival / round_secs`), matching the shard's "round at ingest"
    /// semantics.
    pub fn new(
        cfg: &SimulationConfig,
        sample: SampleRate,
        user: UserId,
        items: &[&ContentItem],
    ) -> Self {
        let user = user.value();
        // Every item is staged up front, so the map is sized to hold them all.
        let mut stager = SpanStager::new(0, sample, items.len());
        for (idx, item) in items.iter().enumerate() {
            let content = item.id.value();
            let trace = derive_trace_id(cfg.seed, item.arrival.to_bits(), content);
            let round = (item.arrival / cfg.round_secs).max(0.0) as u64;
            stager.stage(
                user,
                content,
                [
                    SpanRecord::publish(trace, idx as u64, content),
                    SpanRecord::queued(trace, 0, round, user, content),
                ],
            );
        }
        SpanHarness { user, stager, finished: Vec::new() }
    }

    /// Trees finished so far, in selection order.
    pub fn into_trees(self) -> Vec<SpanTree> {
        self.finished
    }
}

impl SelectionObserver for SpanHarness {
    fn on_select(&mut self, round: u64, content: ContentId, decision: &SelectDecision) {
        let span_decision = SpanDecision {
            level: decision.level,
            utility: decision.utility,
            gradient: decision.gradient,
            budget_remaining: decision.budget_remaining,
        };
        self.finished.extend(self.stager.finish(
            round,
            self.user,
            content.value(),
            span_decision,
            decision.size,
        ));
    }
}

/// Runs one user's round loop with span tracing: [`simulate_user_observed`]
/// with a [`SpanHarness`] riding the selection hook. Returns the metrics
/// plus the kept span trees in selection order.
pub fn simulate_user_spans(
    user: UserId,
    items: &[&ContentItem],
    content_utility: &(dyn Fn(&ContentItem) -> f64 + Sync),
    cfg: &SimulationConfig,
    sample: SampleRate,
) -> (UserMetrics, Vec<SpanTree>) {
    let mut harness = SpanHarness::new(cfg, sample, user, items);
    let metrics = simulate_user_observed(user, items, content_utility, cfg, &mut harness);
    (metrics, harness.into_trees())
}

/// Renders trees as JSON lines (one span per line, trees in selection
/// order) — the byte format compared across seeded runs.
pub fn dump_json_lines(trees: &[SpanTree]) -> String {
    trees.iter().map(SpanTree::to_json_lines).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::PolicyKind;
    use richnote_core::content::{ContentFeatures, ContentKind, Interaction};
    use richnote_core::ids::{AlbumId, ArtistId, TrackId};
    use richnote_obs::SpanStage;

    fn item(id: u64, arrival: f64) -> ContentItem {
        ContentItem {
            id: ContentId::new(id),
            recipient: UserId::new(1),
            sender: None,
            kind: ContentKind::FriendFeed,
            track: TrackId::new(id),
            album: AlbumId::new(id),
            artist: ArtistId::new(id),
            arrival,
            track_secs: 276.0,
            features: ContentFeatures::default(),
            interaction: Interaction::Hovered,
        }
    }

    fn cfg(theta_bytes: u64) -> SimulationConfig {
        SimulationConfig {
            policy: PolicyKind::richnote_default(),
            rounds: 24,
            theta_bytes,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn traced_run_captures_the_full_shard_side_path() {
        let items: Vec<ContentItem> = (0..8).map(|i| item(i, i as f64 * 900.0)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.8;
        let (m, trees) =
            simulate_user_spans(UserId::new(1), &refs, &uc, &cfg(1_000_000), SampleRate::ALL);
        assert_eq!(trees.len(), m.delivered, "one kept tree per delivery at 1/1");
        for t in &trees {
            for st in
                [SpanStage::Publish, SpanStage::Queue, SpanStage::Select, SpanStage::Serialize]
            {
                assert!(t.stage(st).is_some(), "tree {:#x} missing {st:?}", t.trace);
            }
            let d = t
                .stage(SpanStage::Select)
                .and_then(|s| s.decision.as_ref())
                .expect("select span carries the decision");
            assert!(d.level >= 1 && d.level <= 6);
            let bytes = t.stage(SpanStage::Serialize).and_then(|s| s.bytes).expect("bytes");
            assert!(bytes > 0);
        }
    }

    #[test]
    fn same_seed_runs_dump_byte_identical_spans() {
        let items: Vec<ContentItem> = (0..12).map(|i| item(i, i as f64 * 700.0)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |i: &ContentItem| 0.3 + 0.05 * (i.id.value() % 10) as f64;
        let run = || {
            let (_, trees) =
                simulate_user_spans(UserId::new(3), &refs, &uc, &cfg(500_000), SampleRate::ALL);
            dump_json_lines(&trees)
        };
        let (a, b) = (run(), run());
        assert!(!a.is_empty());
        assert_eq!(a, b, "seeded span dumps must be byte-identical");

        // A different seed mints different ids, so dumps differ.
        let other = {
            let c = SimulationConfig { seed: 99, ..cfg(500_000) };
            let (_, trees) = simulate_user_spans(UserId::new(3), &refs, &uc, &c, SampleRate::ALL);
            dump_json_lines(&trees)
        };
        assert_ne!(a, other);
    }

    #[test]
    fn anomalous_selections_bypass_head_sampling() {
        let items: Vec<ContentItem> = (0..10).map(|i| item(i, 0.0)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.6;
        // A budget only fit for metadata forces level-1 selections: all
        // anomalous, so every delivery's tree survives a 1-in-a-million
        // sampling rate.
        let rare = SampleRate::one_in(1_000_000);
        let (m, trees) = simulate_user_spans(UserId::new(1), &refs, &uc, &cfg(300), rare);
        assert!(m.delivered > 0);
        assert_eq!(trees.len(), m.delivered);
        assert!(trees.iter().all(|t| t.is_anomalous()));

        // With a roomy budget the selections are healthy and the rare
        // sampler keeps (almost surely) none of them.
        let (m2, trees2) = simulate_user_spans(UserId::new(1), &refs, &uc, &cfg(10_000_000), rare);
        assert!(m2.delivered > 0);
        assert!(trees2.iter().all(|t| t.is_anomalous()), "only forced keeps may survive");
    }

    #[test]
    fn sampling_off_stages_nothing() {
        let items: Vec<ContentItem> = (0..4).map(|i| item(i, 0.0)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.8;
        let (m, trees) =
            simulate_user_spans(UserId::new(1), &refs, &uc, &cfg(1_000_000), SampleRate::OFF);
        assert!(m.delivered > 0);
        assert!(trees.is_empty());
    }
}
