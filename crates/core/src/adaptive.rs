//! Connectivity-aware adaptive delivery: the [`AdaptivePolicy`].
//!
//! The paper's MCKP selection runs against a static per-round budget `θ`,
//! but its own connectivity model (the Sec. V-D3 WiFi/CELL/OFF Markov
//! chain) makes that budget the wrong constant: users on flaky cellular
//! should get metadata-first deliveries while WiFi users get full
//! previews. `AdaptivePolicy` wraps the stock [`RichNoteScheduler`] with an
//! ABR-style shaping layer (cf. volumetric-video rate adaptation):
//!
//! 1. an **EWMA throughput estimator** fed from realized delivery
//!    bytes/latency ([`EwmaThroughput`]);
//! 2. a **one-step connectivity prediction** from the Markov transition
//!    matrix, falling back to the stationary distribution when no state
//!    has ever been observed;
//! 3. per round, the prediction and estimate **scale the data grant** and
//!    **clamp the maximum presentation level** — metadata-only when OFF is
//!    the likely next state, the cell cap on flaky cellular, the full
//!    ladder on stable WiFi.
//!
//! The shaping formulas are specified in DESIGN.md §13. All signals flow
//! through [`NetSignal`] on the [`RoundContext`], so the server shards
//! and the simulator drive the policy through one API.

use crate::ids::ContentId;
use crate::policy::{
    AdaptiveDecision, Policy, PolicyCheckpoint, SelectDecision, SelectionObserver, WrongPolicy,
};
use crate::quality::QualitySample;
use crate::scheduler::{
    DeliveredNotification, NetSignal, QueuedNotification, RichNoteConfig, RichNoteScheduler,
    RoundContext, SchedulerCheckpoint,
};
use richnote_net::{MarkovConnectivity, NetworkState};
use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average of observed link throughput
/// (bytes per second), with the observed extremes retained.
///
/// The estimate is a convex combination of samples, so it is always
/// bounded by the minimum and maximum ever observed, and it responds
/// monotonically to sustained shifts — both properties are pinned by
/// proptests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EwmaThroughput {
    alpha: f64,
    estimate: Option<f64>,
    min_seen: Option<f64>,
    max_seen: Option<f64>,
}

impl EwmaThroughput {
    /// Creates an estimator with smoothing factor `alpha` (the weight of
    /// the newest sample).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1], got {alpha}");
        Self { alpha, estimate: None, min_seen: None, max_seen: None }
    }

    /// Feeds one realized delivery: `bytes` transferred in `secs` seconds.
    /// Ignored when either is non-positive (no transfer happened, or the
    /// link was modeled as instantaneous).
    pub fn observe(&mut self, bytes: u64, secs: f64) {
        if bytes == 0 || secs <= 0.0 || secs.is_nan() {
            return;
        }
        self.observe_rate(bytes as f64 / secs);
    }

    /// Feeds one throughput sample directly (bytes per second).
    pub fn observe_rate(&mut self, rate: f64) {
        if !rate.is_finite() || rate <= 0.0 {
            return;
        }
        self.min_seen = Some(self.min_seen.map_or(rate, |m| m.min(rate)));
        self.max_seen = Some(self.max_seen.map_or(rate, |m| m.max(rate)));
        self.estimate = Some(match self.estimate {
            Some(e) => e + self.alpha * (rate - e),
            None => rate,
        });
    }

    /// The current throughput estimate, bytes per second. `None` before
    /// the first sample.
    pub fn estimate(&self) -> Option<f64> {
        self.estimate
    }

    /// The `(min, max)` of all samples ever observed.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        Some((self.min_seen?, self.max_seen?))
    }
}

/// Configuration of the [`AdaptivePolicy`] shaping layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Inner RichNote scheduler configuration.
    pub richnote: RichNoteConfig,
    /// EWMA smoothing factor for the throughput estimator.
    pub alpha: f64,
    /// Safety factor `β` applied to the sustainable-byte estimate when
    /// scaling the grant (headroom against overprediction).
    pub safety: f64,
    /// Predicted-OFF probability at or above which the round is
    /// metadata-only (level cap 1).
    pub off_threshold: f64,
    /// Predicted-WiFi probability at or above which the full ladder is
    /// allowed.
    pub wifi_threshold: f64,
    /// Level cap applied on predicted flaky-cellular rounds (neither
    /// threshold reached).
    pub cell_level_cap: u8,
    /// Markov transition matrix used for one-step prediction, rows and
    /// columns in `[Wifi, Cell, Off]` order.
    pub matrix: [[f64; 3]; 3],
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            richnote: RichNoteConfig::default(),
            alpha: 0.3,
            safety: 0.9,
            off_threshold: 0.5,
            wifi_threshold: 0.5,
            cell_level_cap: 3,
            matrix: *MarkovConnectivity::paper_default(NetworkState::Cell).matrix(),
        }
    }
}

/// Serializable snapshot of an [`AdaptivePolicy`]'s complete mutable
/// state: the inner scheduler, the throughput estimator and the last
/// observed network state all round-trip, so a restored policy predicts
/// and scales exactly as the checkpointed one would have.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCheckpoint {
    /// Shaping configuration at checkpoint time.
    pub config: AdaptiveConfig,
    /// Inner RichNote scheduler state.
    pub inner: SchedulerCheckpoint,
    /// Throughput estimator state.
    pub ewma: EwmaThroughput,
    /// Last network state observed through [`NetSignal`], if any.
    pub last_state: Option<NetworkState>,
}

/// Builder for [`AdaptivePolicy`];
/// `AdaptivePolicy::builder().build()` yields the defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptivePolicyBuilder {
    cfg: AdaptiveConfig,
}

impl AdaptivePolicyBuilder {
    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: AdaptiveConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builds the policy.
    ///
    /// # Panics
    ///
    /// Panics if the transition matrix is not row-stochastic or the EWMA
    /// alpha is outside `(0, 1]`.
    pub fn build(self) -> AdaptivePolicy {
        AdaptivePolicy::from_parts(
            self.cfg,
            RichNoteScheduler::builder().config(self.cfg.richnote).build(),
            EwmaThroughput::new(self.cfg.alpha),
            None,
        )
    }
}

/// The connectivity-aware adaptive policy (see module docs).
#[derive(Debug)]
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    /// Prediction chain built from `cfg.matrix`; its internal state is
    /// never stepped — only `transition_row` and `stationary` are used.
    chain: MarkovConnectivity,
    inner: RichNoteScheduler,
    ewma: EwmaThroughput,
    last_state: Option<NetworkState>,
}

impl AdaptivePolicy {
    /// A builder starting from the default shaping parameters.
    pub fn builder() -> AdaptivePolicyBuilder {
        AdaptivePolicyBuilder::default()
    }

    fn from_parts(
        cfg: AdaptiveConfig,
        inner: RichNoteScheduler,
        ewma: EwmaThroughput,
        last_state: Option<NetworkState>,
    ) -> Self {
        let chain = MarkovConnectivity::new(cfg.matrix, NetworkState::Cell)
            .expect("adaptive transition matrix must be row-stochastic");
        Self { cfg, chain, inner, ewma, last_state }
    }

    /// The current throughput estimator (for telemetry and tests).
    pub fn ewma(&self) -> &EwmaThroughput {
        &self.ewma
    }

    /// The last network state observed through [`NetSignal`].
    pub fn last_state(&self) -> Option<NetworkState> {
        self.last_state
    }

    /// Captures the policy's complete mutable state.
    pub fn checkpoint_state(&self) -> AdaptiveCheckpoint {
        AdaptiveCheckpoint {
            config: self.cfg,
            inner: self.inner.checkpoint(),
            ewma: self.ewma,
            last_state: self.last_state,
        }
    }

    /// Rebuilds a policy from an [`AdaptiveCheckpoint`].
    pub fn from_checkpoint(ck: AdaptiveCheckpoint) -> Self {
        Self::from_parts(
            ck.config,
            RichNoteScheduler::from_checkpoint(ck.inner),
            ck.ewma,
            ck.last_state,
        )
    }

    /// Computes this round's shaping decision from the context's signals
    /// and the policy's own estimator state (DESIGN.md §13).
    fn shape(&self, ctx: &RoundContext<'_>) -> AdaptiveDecision {
        let basis = ctx.net.and_then(|n| n.state).or(self.last_state);
        let p = match basis {
            Some(s) => self.chain.transition_row(s),
            None => self.chain.stationary(),
        };
        let p_wifi = p[0];
        let p_off = p[2];
        let p_online = (p[0] + p[1]).clamp(0.0, 1.0);

        // Level cap from the prediction, tightened by any cap the driver
        // already imposed.
        let predicted_cap = if p_off >= self.cfg.off_threshold {
            1 // metadata only
        } else if p_wifi >= self.cfg.wifi_threshold {
            u8::MAX // full ladder
        } else {
            self.cfg.cell_level_cap.max(1)
        };
        let level_cap = predicted_cap.min(ctx.level_cap());

        // Grant scaling: cap θ at the bytes the link is predicted to
        // sustain. Without any throughput estimate the grant is left
        // untouched — the policy degrades to stock RichNote until its
        // first realized delivery.
        let throughput = ctx.net.and_then(|n| n.throughput).or(self.ewma.estimate());
        let mut data_grant = ctx.data_grant;
        let mut grant_scaled = false;
        if let Some(t) = throughput {
            let sustainable = (t * ctx.round_secs.max(0.0) * p_online * self.cfg.safety).max(0.0);
            let sustainable =
                if sustainable >= u64::MAX as f64 { u64::MAX } else { sustainable as u64 };
            if sustainable < data_grant {
                data_grant = sustainable;
                grant_scaled = true;
            }
        }

        AdaptiveDecision {
            predicted_offline: p_off,
            predicted_wifi: p_wifi,
            throughput,
            data_grant,
            grant_scaled,
            level_cap,
        }
    }

    /// Opens a round: records the observed network state, shapes the
    /// round, and derives the context the inner scheduler runs under —
    /// the driver's, with the shaped grant and the prediction's signal in
    /// place of its own.
    fn open_round<'a>(&mut self, ctx: &RoundContext<'a>) -> (AdaptiveDecision, RoundContext<'a>) {
        if let Some(s) = ctx.net.and_then(|n| n.state) {
            self.last_state = Some(s);
        }
        let decision = self.shape(ctx);
        let derived = RoundContext {
            data_grant: decision.data_grant,
            net: Some(NetSignal {
                state: self.last_state,
                throughput: decision.throughput,
                level_cap: Some(decision.level_cap),
            }),
            ..*ctx
        };
        (decision, derived)
    }
}

/// Forwards everything to the wrapped observer but rewrites the policy
/// label of quality samples to "Adaptive".
struct RelabelQuality<'o> {
    inner: &'o mut dyn SelectionObserver,
}

impl SelectionObserver for RelabelQuality<'_> {
    fn on_select(&mut self, round: u64, content: ContentId, decision: &SelectDecision) {
        self.inner.on_select(round, content, decision);
    }

    fn on_adapt(&mut self, round: u64, decision: &AdaptiveDecision) {
        self.inner.on_adapt(round, decision);
    }

    fn on_quality(&mut self, round: u64, sample: &QualitySample<'_>) {
        self.inner.on_quality(round, &QualitySample { policy: "Adaptive", ..*sample });
    }
}

impl Policy for AdaptivePolicy {
    fn name(&self) -> &str {
        "Adaptive"
    }

    fn enqueue(&mut self, notification: QueuedNotification) {
        self.inner.enqueue(notification);
    }

    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        let (decision, derived) = self.open_round(ctx);
        obs.on_adapt(ctx.round, &decision);

        // The inner scheduler self-reports quality as "RichNote"; re-label
        // its samples so cohorts are attributed to the policy the driver
        // actually configured.
        let delivered = self.inner.select_round(&derived, &mut RelabelQuality { inner: obs });

        // Feed the estimator from the realized transfer: the pacing model
        // finishes the last delivery at `now + bytes/link_rate`, so the
        // realized rate is total bytes over that span. Instantaneous links
        // (infinite rate) produce a zero span and are skipped.
        if let Some(last) = delivered.last() {
            let bytes: u64 = delivered.iter().map(|d| d.size).sum();
            self.ewma.observe(bytes, last.delivered_at - ctx.now);
        }
        delivered
    }

    /// Under a constant context and with no deliveries to feed the
    /// estimator, every idle round shapes to the same decision: one
    /// `shape`, one `on_adapt` per round, and the inner scheduler's idle
    /// rounds under the derived grant.
    fn idle_rounds(
        &mut self,
        ctx: &RoundContext<'_>,
        rounds: u64,
        obs: &mut dyn SelectionObserver,
    ) {
        if rounds == 0 {
            return;
        }
        let (decision, derived) = self.open_round(ctx);
        for i in 0..rounds {
            obs.on_adapt(ctx.round + i, &decision);
        }
        self.inner.idle_rounds(&derived, rounds, &mut RelabelQuality { inner: obs });
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn backlog_bytes(&self) -> u64 {
        self.inner.backlog_bytes()
    }

    fn checkpoint(&self) -> PolicyCheckpoint {
        PolicyCheckpoint::Adaptive(Box::new(self.checkpoint_state()))
    }

    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy> {
        match ck {
            PolicyCheckpoint::Adaptive(c) => Ok(Self::from_checkpoint(*c)),
            other => Err(WrongPolicy { expected: "Adaptive", found: other.policy_name() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{ContentFeatures, ContentKind, Interaction};
    use crate::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
    use crate::presentation::AudioPresentationSpec;
    use crate::scheduler::LinearCost;
    use std::sync::Arc;

    fn notification(id: u64, content_utility: f64, enqueued_at: f64) -> QueuedNotification {
        QueuedNotification {
            item: crate::content::ContentItem {
                id: ContentId::new(id),
                recipient: UserId::new(1),
                sender: None,
                kind: ContentKind::FriendFeed,
                track: TrackId::new(id),
                album: AlbumId::new(id),
                artist: ArtistId::new(id),
                arrival: enqueued_at,
                track_secs: 276.0,
                features: ContentFeatures::default(),
                interaction: Interaction::Hovered,
            },
            ladder: Arc::new(AudioPresentationSpec::paper_default().ladder()),
            content_utility,
            enqueued_at,
        }
    }

    const COST: LinearCost = LinearCost { fixed: 5.0, per_byte: 5e-4 };

    fn ctx_with_state(round: u64, grant: u64, state: NetworkState) -> RoundContext<'static> {
        RoundContext::builder(&COST)
            .round(round)
            .now(round as f64 * 3600.0)
            .online(state.is_online())
            .link_capacity(10_000_000)
            .data_grant(grant)
            .energy_grant(3_000.0)
            .net(NetSignal::observed(state))
            .build()
    }

    #[test]
    fn ewma_first_sample_is_the_estimate() {
        let mut e = EwmaThroughput::new(0.3);
        assert_eq!(e.estimate(), None);
        e.observe(1000, 2.0);
        assert_eq!(e.estimate(), Some(500.0));
        assert_eq!(e.bounds(), Some((500.0, 500.0)));
    }

    #[test]
    fn ewma_ignores_degenerate_samples() {
        let mut e = EwmaThroughput::new(0.5);
        e.observe(0, 1.0);
        e.observe(100, 0.0);
        e.observe(100, -1.0);
        e.observe_rate(f64::INFINITY);
        e.observe_rate(f64::NAN);
        assert_eq!(e.estimate(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaThroughput::new(0.0);
    }

    #[test]
    fn predicted_off_caps_to_metadata() {
        // Paper matrix: from OFF, P(Off next) = 0.5 ≥ threshold → cap 1.
        let mut p = AdaptivePolicy::builder().build();
        for i in 0..4 {
            p.enqueue(notification(i, 0.9, 0.0));
        }
        let delivered = p.run_round(&ctx_with_state(0, 50_000_000, NetworkState::Off));
        assert!(delivered.is_empty(), "offline round delivers nothing");
        // Next round comes back on cell, but the *last observation* was
        // OFF at the time shaping ran... the new observation (Cell) wins.
        let delivered = p.run_round(&ctx_with_state(1, 50_000_000, NetworkState::Cell));
        assert!(!delivered.is_empty());
        assert!(
            delivered.iter().all(|d| d.level <= 3),
            "flaky-cell rounds are capped at the cell level: {delivered:?}"
        );
    }

    #[test]
    fn stable_wifi_allows_full_ladder() {
        let mut p = AdaptivePolicy::builder().build();
        for i in 0..4 {
            p.enqueue(notification(i, 0.9, 0.0));
        }
        let delivered = p.run_round(&ctx_with_state(0, 50_000_000, NetworkState::Wifi));
        assert!(delivered.iter().any(|d| d.level == 6), "{delivered:?}");
    }

    #[test]
    fn stationary_fallback_when_no_observation() {
        // No NetSignal at all: the paper matrix's stationary distribution
        // is uniform, so P(off) = 1/3 < 0.5 and P(wifi) = 1/3 < 0.5 → the
        // cell cap applies.
        let mut p = AdaptivePolicy::builder().build();
        for i in 0..4 {
            p.enqueue(notification(i, 0.9, 0.0));
        }
        let ctx = RoundContext::builder(&COST)
            .link_capacity(10_000_000)
            .data_grant(50_000_000)
            .energy_grant(3_000.0)
            .build();
        let delivered = p.run_round(&ctx);
        assert!(!delivered.is_empty());
        assert!(delivered.iter().all(|d| d.level <= 3), "{delivered:?}");
        assert_eq!(p.last_state(), None);
    }

    #[test]
    fn deliveries_feed_the_estimator() {
        let mut p = AdaptivePolicy::builder().build();
        p.enqueue(notification(1, 0.9, 0.0));
        assert_eq!(p.ewma().estimate(), None);
        let delivered = p.run_round(&ctx_with_state(0, 50_000_000, NetworkState::Wifi));
        assert!(!delivered.is_empty());
        // link_capacity 10 MB over 3600 s ≈ 2777.8 B/s realized rate.
        let est = p.ewma().estimate().expect("estimator fed");
        assert!((est - 10_000_000.0 / 3_600.0).abs() < 1.0, "{est}");
    }

    #[test]
    fn grant_scales_down_with_low_throughput() {
        // Pre-seed a tiny throughput estimate via the driver signal: the
        // effective grant must drop below θ.
        let p = AdaptivePolicy::builder().build();
        let ctx = RoundContext::builder(&COST)
            .data_grant(1_000_000)
            .net(NetSignal::observed(NetworkState::Cell).with_throughput(10.0))
            .build();
        let d = p.shape(&ctx);
        // 10 B/s · 3600 s · P(online|cell)=0.75 · 0.9 = 24_300 bytes.
        assert!(d.grant_scaled);
        assert_eq!(d.data_grant, 24_300);
        assert_eq!(d.level_cap, 3);
    }

    #[test]
    fn grant_untouched_without_estimate() {
        let p = AdaptivePolicy::builder().build();
        let ctx = RoundContext::builder(&COST)
            .data_grant(1_000_000)
            .net(NetSignal::observed(NetworkState::Wifi))
            .build();
        let d = p.shape(&ctx);
        assert!(!d.grant_scaled);
        assert_eq!(d.data_grant, 1_000_000);
        assert_eq!(d.level_cap, u8::MAX);
    }

    #[test]
    fn driver_level_cap_tightens_prediction() {
        let p = AdaptivePolicy::builder().build();
        let ctx = RoundContext::builder(&COST)
            .data_grant(1_000_000)
            .net(NetSignal::observed(NetworkState::Wifi).with_level_cap(2))
            .build();
        // Prediction says full ladder, driver says ≤ 2: driver wins.
        assert_eq!(p.shape(&ctx).level_cap, 2);
    }

    #[test]
    fn checkpoint_roundtrips_estimator_state() {
        let mut p = AdaptivePolicy::builder().build();
        for i in 0..6 {
            p.enqueue(notification(i, 0.3 + 0.1 * i as f64, 0.0));
        }
        p.run_round(&ctx_with_state(0, 300_000, NetworkState::Cell));
        p.run_round(&ctx_with_state(1, 300_000, NetworkState::Wifi));
        assert!(p.ewma().estimate().is_some());

        let ck = Policy::checkpoint(&p);
        assert_eq!(ck.policy_name(), "Adaptive");
        let json = serde_json::to_string(&ck).unwrap();
        let back: PolicyCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ck, back, "adaptive checkpoint must survive a JSON round trip");

        let mut restored = AdaptivePolicy::restore(back).unwrap();
        assert_eq!(restored.ewma(), p.ewma());
        assert_eq!(restored.last_state(), p.last_state());
        assert_eq!(restored.backlog(), p.backlog());

        // Both continue identically.
        for r in 2..5 {
            let ctx = ctx_with_state(r, 300_000, NetworkState::Cell);
            assert_eq!(p.run_round(&ctx), restored.run_round(&ctx), "diverged at round {r}");
        }
    }

    #[test]
    fn boxed_restore_dispatches_to_adaptive() {
        let p = AdaptivePolicy::builder().build();
        assert_eq!(Policy::checkpoint(&p).restore().name(), "Adaptive");
    }

    #[test]
    fn wrong_policy_fails_loudly() {
        let p = AdaptivePolicy::builder().build();
        let err = RichNoteScheduler::restore(Policy::checkpoint(&p)).unwrap_err();
        assert_eq!(err, WrongPolicy { expected: "RichNote", found: "Adaptive" });
        let rn = RichNoteScheduler::builder().build();
        let err = AdaptivePolicy::restore(Policy::checkpoint(&rn)).unwrap_err();
        assert_eq!(err, WrongPolicy { expected: "Adaptive", found: "RichNote" });
    }

    struct Recorder(Vec<(u64, AdaptiveDecision)>);
    impl SelectionObserver for Recorder {
        fn on_select(&mut self, _: u64, _: ContentId, _: &crate::policy::SelectDecision) {}
        fn on_adapt(&mut self, round: u64, d: &AdaptiveDecision) {
            self.0.push((round, *d));
        }
    }

    /// An emptied policy with a fed estimator and an observed state, so
    /// the idle decision scales the grant and caps the ladder.
    #[test]
    fn idle_rounds_match_select_round_in_state_and_reports() {
        let drained = || {
            let mut p = AdaptivePolicy::builder().build();
            p.enqueue(notification(1, 0.9, 0.0));
            let d = p.run_round(&ctx_with_state(0, 50_000_000, NetworkState::Wifi));
            assert_eq!((d.len(), p.backlog()), (1, 0));
            p
        };
        // With and without a signal on the idle rounds themselves.
        let signalled = ctx_with_state(1, 50_000_000, NetworkState::Cell);
        for ctx in [signalled, RoundContext { net: None, ..signalled }] {
            let (mut fast, mut slow) = (drained(), drained());
            let (mut fast_obs, mut slow_obs) = (Recorder(Vec::new()), Recorder(Vec::new()));
            fast.idle_rounds(&ctx, 40, &mut fast_obs);
            for r in 0..40 {
                let step = RoundContext { round: ctx.round + r, ..ctx };
                assert!(slow.select_round(&step, &mut slow_obs).is_empty());
            }
            assert_eq!(Policy::checkpoint(&fast), Policy::checkpoint(&slow));
            assert_eq!(fast_obs.0, slow_obs.0);
            assert!(fast_obs.0.iter().all(|(_, d)| d.grant_scaled), "{:?}", fast_obs.0[0]);
            // Zero rounds is no round: not even the observed state moves.
            let mut untouched = drained();
            untouched.idle_rounds(&ctx, 0, &mut Recorder(Vec::new()));
            assert_eq!(Policy::checkpoint(&untouched), Policy::checkpoint(&drained()));
        }
    }

    #[test]
    fn on_adapt_reports_the_shaping_decision() {
        let mut p = AdaptivePolicy::builder().build();
        p.enqueue(notification(1, 0.9, 0.0));
        let mut obs = Recorder(Vec::new());
        p.select_round(&ctx_with_state(0, 300_000, NetworkState::Cell), &mut obs);
        assert_eq!(obs.0.len(), 1);
        let (round, d) = obs.0[0];
        assert_eq!(round, 0);
        assert_eq!(d.level_cap, 3);
        assert!((d.predicted_offline - 0.25).abs() < 1e-12);
    }
}
