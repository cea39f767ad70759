//! Round-based notification scheduling policies (Sec. IV, Algorithm 2).
//!
//! Three policies are provided:
//!
//! * [`RichNoteScheduler`] — the paper's contribution: per round, compute
//!   Lyapunov-adjusted utilities for every (item, level) pair, solve the
//!   MCKP under the accumulated data budget, deliver the winners in
//!   descending utility order, and update the queues.
//! * [`FifoScheduler`] — industry baseline: deliver in arrival order at a
//!   *fixed* presentation level (Spotify real-time mode).
//! * [`UtilScheduler`] — industry baseline: deliver in descending utility
//!   order at a fixed level (Spotify batch mode).
//!
//! All three implement [`Policy`] and operate on the same [`RoundContext`],
//! so a driver swaps them freely, and all manage a per-user rolled-over
//! data budget.

use crate::content::ContentItem;
use crate::ids::ContentId;
use crate::lyapunov::{accrue, LyapunovConfig, LyapunovState};
use crate::mckp::{select_greedy_into, GreedyOptions, GreedyScratch, MckpItem};
use crate::policy::{
    FixedLevelCheckpoint, Policy, PolicyCheckpoint, SelectDecision, SelectionObserver, WrongPolicy,
};
use crate::presentation::PresentationLadder;
use crate::quality::{report_suppressed, ConnectivityCohort, QualitySample};
use crate::utility::combined_utility;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Energy-cost model for downloading bytes under the *current* network
/// conditions — the `ρ(i, j)` of the formulation. Implemented by the
/// `richnote-energy` crate; simple closures/constants suffice for tests.
pub trait TransferCost {
    /// Estimated energy in joules to download `bytes` now.
    fn energy(&self, bytes: u64) -> f64;
}

/// A constant per-byte energy cost (plus fixed overhead), for tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    /// Fixed per-transfer overhead (J).
    pub fixed: f64,
    /// Energy per byte (J/B).
    pub per_byte: f64,
}

impl TransferCost for LinearCost {
    fn energy(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.fixed + self.per_byte * bytes as f64
        }
    }
}

/// Connectivity signals attached to a round — the optional, adaptive part
/// of a [`RoundContext`]. Drivers that know (or predict) the user's network
/// state fill this in; policies that don't care ignore it.
///
/// The contract (DESIGN.md §13):
///
/// * `state` is the network state *observed* by the driver for this round
///   (or predicted by an upstream policy for a derived context). `None`
///   means "no observation" — adaptive policies fall back to their
///   stationary prior.
/// * `throughput` is an estimate of sustainable link throughput in
///   bytes/second. `None` means unknown; policies may substitute their own
///   EWMA estimate.
/// * `level_cap` clamps the maximum presentation level any policy may
///   deliver at this round (`Some(1)` = metadata only). Every policy in
///   this crate honors it; `None` leaves the full ladder available.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetSignal {
    /// Observed (or predicted) network state for this round.
    pub state: Option<richnote_net::NetworkState>,
    /// Estimated sustainable throughput, bytes per second.
    pub throughput: Option<f64>,
    /// Maximum presentation level deliverable this round.
    pub level_cap: Option<u8>,
}

impl NetSignal {
    /// A signal carrying only an observed network state.
    pub fn observed(state: richnote_net::NetworkState) -> Self {
        Self { state: Some(state), throughput: None, level_cap: None }
    }

    /// Sets the throughput estimate (bytes/second).
    pub fn with_throughput(mut self, bytes_per_sec: f64) -> Self {
        self.throughput = Some(bytes_per_sec);
        self
    }

    /// Sets the presentation-level cap.
    pub fn with_level_cap(mut self, cap: u8) -> Self {
        self.level_cap = Some(cap);
        self
    }
}

/// Everything a policy may consult during one round.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RoundContext::builder`], which defaults every field a driver does not
/// care about, so future signal fields stop being breaking changes.
#[derive(Clone, Copy)]
#[non_exhaustive]
pub struct RoundContext<'a> {
    /// Round index `t`.
    pub round: u64,
    /// Wall-clock seconds at the start of the round.
    pub now: f64,
    /// Round length in seconds (used to pace downloads over the link).
    pub round_secs: f64,
    /// Whether the device currently has connectivity.
    pub online: bool,
    /// Maximum bytes the link can move this round (bandwidth × round).
    pub link_capacity: u64,
    /// Data budget granted this round (`θ`, possibly scaled by network).
    pub data_grant: u64,
    /// Energy replenishment this round (`e(t)`, from battery state).
    pub energy_grant: f64,
    /// Connectivity signals, if the driver has any (see [`NetSignal`]).
    pub net: Option<NetSignal>,
    /// Energy model for the current network.
    pub cost: &'a dyn TransferCost,
}

impl<'a> RoundContext<'a> {
    /// A builder over the one mandatory field (the energy model). All other
    /// fields default: round 0 at t = 0, one-hour round, online, unlimited
    /// link, zero grants, no connectivity signal.
    pub fn builder(cost: &'a dyn TransferCost) -> RoundContextBuilder<'a> {
        RoundContextBuilder {
            round: 0,
            now: 0.0,
            round_secs: 3_600.0,
            online: true,
            link_capacity: u64::MAX,
            data_grant: 0,
            energy_grant: 0.0,
            net: None,
            cost,
        }
    }

    /// Link rate in bytes per second implied by capacity and round length.
    pub fn link_rate(&self) -> f64 {
        if self.round_secs <= 0.0 {
            return f64::INFINITY;
        }
        self.link_capacity as f64 / self.round_secs
    }

    /// The wall-clock instant at which a download finishes, given the bytes
    /// already transferred this round before it and its own size — the
    /// delivery-queue pacing of Fig. 1.
    pub fn finish_time(&self, bytes_before: u64, size: u64) -> f64 {
        let rate = self.link_rate();
        if rate <= 0.0 || !rate.is_finite() {
            return self.now;
        }
        self.now + (bytes_before + size) as f64 / rate
    }

    /// The effective presentation-level cap this round: the signal's
    /// `level_cap` clamped to at least 1 (metadata is always allowed), or
    /// `u8::MAX` when no cap is set.
    pub fn level_cap(&self) -> u8 {
        self.net.and_then(|n| n.level_cap).unwrap_or(u8::MAX).max(1)
    }
}

/// Builder for [`RoundContext`]; see [`RoundContext::builder`].
#[derive(Clone, Copy)]
pub struct RoundContextBuilder<'a> {
    round: u64,
    now: f64,
    round_secs: f64,
    online: bool,
    link_capacity: u64,
    data_grant: u64,
    energy_grant: f64,
    net: Option<NetSignal>,
    cost: &'a dyn TransferCost,
}

impl<'a> RoundContextBuilder<'a> {
    /// Sets the round index `t`.
    pub fn round(mut self, round: u64) -> Self {
        self.round = round;
        self
    }

    /// Sets the wall-clock seconds at the start of the round.
    pub fn now(mut self, now: f64) -> Self {
        self.now = now;
        self
    }

    /// Sets the round length in seconds.
    pub fn round_secs(mut self, secs: f64) -> Self {
        self.round_secs = secs;
        self
    }

    /// Sets whether the device currently has connectivity.
    pub fn online(mut self, online: bool) -> Self {
        self.online = online;
        self
    }

    /// Sets the link capacity for this round in bytes.
    pub fn link_capacity(mut self, bytes: u64) -> Self {
        self.link_capacity = bytes;
        self
    }

    /// Sets the data grant `θ` for this round in bytes.
    pub fn data_grant(mut self, bytes: u64) -> Self {
        self.data_grant = bytes;
        self
    }

    /// Sets the energy replenishment `e(t)` for this round in joules.
    pub fn energy_grant(mut self, joules: f64) -> Self {
        self.energy_grant = joules;
        self
    }

    /// Attaches connectivity signals.
    pub fn net(mut self, net: NetSignal) -> Self {
        self.net = Some(net);
        self
    }

    /// Builds the context.
    pub fn build(self) -> RoundContext<'a> {
        RoundContext {
            round: self.round,
            now: self.now,
            round_secs: self.round_secs,
            online: self.online,
            link_capacity: self.link_capacity,
            data_grant: self.data_grant,
            energy_grant: self.energy_grant,
            net: self.net,
            cost: self.cost,
        }
    }
}

impl std::fmt::Debug for RoundContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundContext")
            .field("round", &self.round)
            .field("now", &self.now)
            .field("online", &self.online)
            .field("link_capacity", &self.link_capacity)
            .field("data_grant", &self.data_grant)
            .field("energy_grant", &self.energy_grant)
            .field("net", &self.net)
            .finish_non_exhaustive()
    }
}

/// A notification waiting in a policy's scheduling queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedNotification {
    /// The underlying content item.
    pub item: ContentItem,
    /// Its presentation ladder. Shared: every notification minted from
    /// the same spec points at one ladder, so enqueueing never deep-copies
    /// the level table (the dominant per-publication allocation before
    /// the hot-path purge). Serialization is transparent — checkpoints
    /// store the ladder inline exactly as before.
    pub ladder: Arc<PresentationLadder>,
    /// Content utility `Uc(i)` assigned by the utility model.
    pub content_utility: f64,
    /// Broker time at which the notification entered the queue.
    pub enqueued_at: f64,
}

impl QueuedNotification {
    /// Combined utility `U(i, j)` at `level`.
    pub fn utility_at(&self, level: u8) -> f64 {
        combined_utility(self.content_utility, self.ladder.get(level).utility)
    }
}

/// A notification chosen for delivery in some round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveredNotification {
    /// Content identifier.
    pub content: ContentId,
    /// Presentation level it was delivered at.
    pub level: u8,
    /// Bytes transferred.
    pub size: u64,
    /// Combined utility `U(i, j)` realized.
    pub utility: f64,
    /// Energy spent downloading (J).
    pub energy: f64,
    /// When the notification entered the scheduling queue.
    pub enqueued_at: f64,
    /// When it was delivered.
    pub delivered_at: f64,
}

impl DeliveredNotification {
    /// Queuing delay experienced by this notification (seconds).
    pub fn queuing_delay(&self) -> f64 {
        self.delivered_at - self.enqueued_at
    }
}

/// Configuration of the RichNote policy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RichNoteConfig {
    /// Lyapunov controller parameters.
    pub lyapunov: LyapunovConfig,
    /// MCKP greedy options.
    pub greedy: GreedyOptions,
    /// Drop notifications that have waited in the scheduling queue longer
    /// than this many seconds (`None` disables expiry). A stale social
    /// notification — a friend's stream from days ago — has no value, and
    /// expiry bounds the queue even when budgets starve.
    pub max_age_secs: Option<f64>,
}

/// A serializable snapshot of a [`RichNoteScheduler`]'s complete mutable
/// state, used by the delivery daemon's checkpoint/restore machinery.
///
/// Restoring from a checkpoint resumes the round loop *byte-identically*:
/// the queue order, Lyapunov queues and rolled-over budgets are all part of
/// the snapshot, so the same subsequent publications and ticks yield the
/// same selections as an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerCheckpoint {
    /// Policy configuration at checkpoint time.
    pub config: RichNoteConfig,
    /// Lyapunov queues and rolled-over data budget.
    pub lyapunov: LyapunovState,
    /// The scheduling queue, in its exact in-memory order.
    pub queue: Vec<QueuedNotification>,
    /// Notifications dropped by age expiry so far.
    pub expired: u64,
}

/// The RichNote scheduler (Algorithm 2): Lyapunov-adjusted utilities fed to
/// the greedy MCKP each round.
///
/// ```
/// use richnote_core::scheduler::{LinearCost, RichNoteScheduler, RoundContext};
/// use richnote_core::Policy;
///
/// let mut sched = RichNoteScheduler::builder().build();
/// let cost = LinearCost { fixed: 1.0, per_byte: 1e-4 };
/// let ctx = RoundContext::builder(&cost)
///     .data_grant(100_000)
///     .energy_grant(3_000.0)
///     .build();
/// let delivered = sched.run_round(&ctx);
/// assert!(delivered.is_empty()); // nothing queued yet
/// ```
#[derive(Debug)]
pub struct RichNoteScheduler {
    cfg: RichNoteConfig,
    lyap: LyapunovState,
    queue: Vec<QueuedNotification>,
    expired: u64,
    /// Per-round working memory, reused across rounds so the hot path
    /// allocates nothing in steady state. Never checkpointed: a solve's
    /// leftovers carry no policy state.
    scratch: RoundScratch,
}

/// Reusable per-round working memory for [`RichNoteScheduler`]: the MCKP
/// instance, the greedy solver's heap and level vector, and the chosen /
/// removal index vectors. All of it is rebuilt from the queue every
/// round, so it is deliberately excluded from [`SchedulerCheckpoint`].
#[derive(Debug, Default)]
struct RoundScratch {
    items: Vec<MckpItem>,
    greedy: GreedyScratch,
    chosen: Vec<(usize, u8)>,
    indices: Vec<usize>,
}

/// Builder for [`RichNoteScheduler`], mirroring the server's
/// `ServerConfig::builder()` style. `RichNoteScheduler::builder().build()`
/// yields the paper's default parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RichNoteSchedulerBuilder {
    cfg: RichNoteConfig,
}

impl RichNoteSchedulerBuilder {
    /// Replaces the whole configuration at once.
    pub fn config(mut self, cfg: RichNoteConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Builds the scheduler.
    pub fn build(self) -> RichNoteScheduler {
        let cfg = self.cfg;
        RichNoteScheduler {
            lyap: LyapunovState::new(cfg.lyapunov),
            cfg,
            queue: Vec::new(),
            expired: 0,
            scratch: RoundScratch::default(),
        }
    }
}

impl RichNoteScheduler {
    /// A builder starting from the paper's default parameters.
    pub fn builder() -> RichNoteSchedulerBuilder {
        RichNoteSchedulerBuilder::default()
    }

    /// Read-only view of the Lyapunov state (for telemetry).
    pub fn lyapunov(&self) -> &LyapunovState {
        &self.lyap
    }

    /// Notifications dropped by queue expiry so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Captures the scheduler's complete mutable state.
    pub fn checkpoint(&self) -> SchedulerCheckpoint {
        SchedulerCheckpoint {
            config: self.cfg,
            lyapunov: self.lyap.clone(),
            queue: self.queue.clone(),
            expired: self.expired,
        }
    }

    /// Rebuilds a scheduler from a [`SchedulerCheckpoint`], resuming the
    /// round loop exactly where the checkpointed instance left off.
    pub fn from_checkpoint(ck: SchedulerCheckpoint) -> Self {
        Self {
            cfg: ck.config,
            lyap: ck.lyapunov,
            queue: ck.queue,
            expired: ck.expired,
            scratch: RoundScratch::default(),
        }
    }

    /// Drops queue entries older than the configured `max_age_secs`.
    fn expire(&mut self, now: f64) {
        let Some(max_age) = self.cfg.max_age_secs else {
            return;
        };
        let lyap = &mut self.lyap;
        let expired = &mut self.expired;
        self.queue.retain(|n| {
            if now - n.enqueued_at > max_age {
                lyap.on_drop(n.ladder.total_size());
                *expired += 1;
                false
            } else {
                true
            }
        });
    }
}

impl Policy for RichNoteScheduler {
    fn name(&self) -> &str {
        "RichNote"
    }

    fn enqueue(&mut self, notification: QueuedNotification) {
        self.lyap.on_enqueue(notification.ladder.total_size());
        self.queue.push(notification);
    }

    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        self.lyap.begin_round(ctx.data_grant, ctx.energy_grant);
        self.expire(ctx.now);
        let cohort = ConnectivityCohort::from_net(ctx.net);
        if !ctx.online || self.queue.is_empty() {
            report_suppressed(obs, ctx.round, "RichNote", cohort, self.queue.len());
            return Vec::new();
        }

        let budget = (self.lyap.data_budget() as u64).min(ctx.link_capacity);
        let level_cap = ctx.level_cap();

        // Build the MCKP instance with Lyapunov-adjusted utilities (Eq. 7),
        // rewriting last round's scratch items in place. Disjoint field
        // borrows: the queue and Lyapunov state are read, the scratch is
        // written. `deliverable()` is ordered by level starting at 1, so
        // truncating at the cap keeps MCKP level indices aligned with
        // ladder levels.
        let queue = &self.queue;
        let lyap = &self.lyap;
        let scratch = &mut self.scratch;
        scratch.items.truncate(queue.len());
        for (idx, n) in queue.iter().enumerate() {
            let s_total = n.ladder.total_size();
            let levels = n.ladder.deliverable().iter().take(level_cap as usize).map(|p| {
                let rho = ctx.cost.energy(p.size);
                let u = combined_utility(n.content_utility, p.utility);
                (p.size, lyap.adjusted_utility(s_total, rho, u))
            });
            match scratch.items.get_mut(idx) {
                Some(item) => item.reset_with(idx, levels),
                None => scratch.items.push(MckpItem::from_levels_iter(idx, levels)),
            }
        }

        select_greedy_into(&scratch.items, budget, self.cfg.greedy, &mut scratch.greedy);

        // Move winners to the delivery queue, sorted in descending combined
        // utility (Algorithm 2, step 1), and update budgets (step 3).
        scratch.chosen.clear();
        scratch.chosen.extend(scratch.greedy.delivered());
        scratch.chosen.sort_by(|a, b| {
            let ua = queue[a.0].utility_at(a.1);
            let ub = queue[b.0].utility_at(b.1);
            ub.total_cmp(&ua)
        });

        // `with_capacity(0)` does not allocate, so rounds that deliver
        // nothing (the common steady-state case between budget refills)
        // stay allocation-free end to end.
        let mut delivered = Vec::with_capacity(self.scratch.chosen.len());
        let mut bytes_before = 0u64;
        for &(idx, level) in &self.scratch.chosen {
            let n = &self.queue[idx];
            let pres = n.ladder.get(level);
            let energy = ctx.cost.energy(pres.size);
            self.lyap.on_deliver(n.ladder.total_size(), pres.size, energy);
            let delivered_at = ctx.finish_time(bytes_before, pres.size);
            bytes_before += pres.size;
            let utility = n.utility_at(level);
            obs.on_select(
                ctx.round,
                n.item.id,
                &SelectDecision {
                    level,
                    size: pres.size,
                    utility,
                    gradient: self.scratch.items[idx].gradient(level - 1),
                    budget_remaining: budget.saturating_sub(bytes_before),
                },
            );
            obs.on_quality(
                ctx.round,
                &QualitySample::delivered("RichNote", cohort, level, utility, pres.size),
            );
            delivered.push(DeliveredNotification {
                content: n.item.id,
                level,
                size: pres.size,
                utility,
                energy,
                enqueued_at: n.enqueued_at,
                delivered_at,
            });
        }

        // Remove delivered items from the scheduling queue (descending
        // index order keeps the remaining indices valid).
        self.scratch.indices.clear();
        self.scratch.indices.extend(self.scratch.chosen.iter().map(|&(i, _)| i));
        self.scratch.indices.sort_unstable_by(|a, b| b.cmp(a));
        for &idx in &self.scratch.indices {
            self.queue.swap_remove(idx);
        }

        report_suppressed(obs, ctx.round, "RichNote", cohort, self.queue.len());
        delivered
    }

    /// With nothing queued a round is `begin_round` and nothing else:
    /// expiry, the MCKP and the suppression report all see an empty queue.
    fn idle_rounds(&mut self, ctx: &RoundContext<'_>, rounds: u64, _: &mut dyn SelectionObserver) {
        debug_assert!(self.queue.is_empty(), "idle_rounds on a policy with a queue");
        self.lyap.idle_rounds(ctx.data_grant, ctx.energy_grant, rounds);
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn backlog_bytes(&self) -> u64 {
        self.queue.iter().map(|n| n.ladder.total_size()).sum()
    }

    fn checkpoint(&self) -> PolicyCheckpoint {
        PolicyCheckpoint::RichNote(RichNoteScheduler::checkpoint(self))
    }

    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy> {
        match ck {
            PolicyCheckpoint::RichNote(c) => Ok(RichNoteScheduler::from_checkpoint(c)),
            other => Err(WrongPolicy { expected: "RichNote", found: other.policy_name() }),
        }
    }
}

/// Shared machinery of the two fixed-level baselines.
#[derive(Debug)]
struct FixedLevelState {
    fixed_level: u8,
    data_budget: f64,
    queue: VecDeque<QueuedNotification>,
}

impl FixedLevelState {
    fn new(fixed_level: u8) -> Self {
        Self { fixed_level, data_budget: 0.0, queue: VecDeque::new() }
    }

    /// Delivers queued items in the queue's current order at the fixed
    /// level until the budget or capacity is exhausted. Stops at the first
    /// item that does not fit (head-of-line blocking, as deployed systems
    /// that preserve ordering do). Selections are reported through `obs`
    /// with gradient 0 (no knapsack is solved).
    fn drain(
        &mut self,
        policy: &'static str,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        self.data_budget += ctx.data_grant as f64;
        let cohort = ConnectivityCohort::from_net(ctx.net);
        if !ctx.online {
            report_suppressed(obs, ctx.round, policy, cohort, self.queue.len());
            return Vec::new();
        }
        let mut capacity = ctx.link_capacity;
        let mut delivered = Vec::new();
        let mut bytes_before = 0u64;
        let effective_level = self.fixed_level.min(ctx.level_cap());
        while let Some(front) = self.queue.front() {
            let level = front.ladder.clamp_level(effective_level);
            let pres = front.ladder.get(level);
            if pres.size as f64 > self.data_budget || pres.size > capacity {
                break;
            }
            let n = self.queue.pop_front().expect("front exists");
            let energy = ctx.cost.energy(pres.size);
            self.data_budget -= pres.size as f64;
            capacity -= pres.size;
            let delivered_at = ctx.finish_time(bytes_before, pres.size);
            bytes_before += pres.size;
            let utility = n.utility_at(level);
            obs.on_select(
                ctx.round,
                n.item.id,
                &SelectDecision {
                    level,
                    size: pres.size,
                    utility,
                    gradient: 0.0,
                    budget_remaining: (self.data_budget.max(0.0) as u64).min(capacity),
                },
            );
            obs.on_quality(
                ctx.round,
                &QualitySample::delivered(policy, cohort, level, utility, pres.size),
            );
            delivered.push(DeliveredNotification {
                content: n.item.id,
                level,
                size: pres.size,
                utility,
                energy,
                enqueued_at: n.enqueued_at,
                delivered_at,
            });
        }
        report_suppressed(obs, ctx.round, policy, cohort, self.queue.len());
        delivered
    }

    /// `rounds` drains of an empty queue: only the budget rolls over.
    fn idle_rounds(&mut self, data_grant: u64, rounds: u64) {
        debug_assert!(self.queue.is_empty(), "idle_rounds on a policy with a queue");
        self.data_budget = accrue(self.data_budget, data_grant, rounds);
    }

    fn checkpoint(&self) -> FixedLevelCheckpoint {
        FixedLevelCheckpoint {
            fixed_level: self.fixed_level,
            data_budget: self.data_budget,
            queue: self.queue.iter().cloned().collect(),
        }
    }

    fn from_checkpoint(ck: FixedLevelCheckpoint) -> Self {
        Self { fixed_level: ck.fixed_level, data_budget: ck.data_budget, queue: ck.queue.into() }
    }

    fn backlog_bytes(&self) -> u64 {
        self.queue.iter().map(|n| n.ladder.total_size()).sum()
    }
}

/// Builder for the fixed-level baselines ([`FifoScheduler`],
/// [`UtilScheduler`]).
#[derive(Debug, Clone, Copy)]
pub struct FixedLevelBuilder<T> {
    fixed_level: u8,
    _marker: std::marker::PhantomData<T>,
}

impl<T> Default for FixedLevelBuilder<T> {
    fn default() -> Self {
        Self { fixed_level: 1, _marker: std::marker::PhantomData }
    }
}

impl<T> FixedLevelBuilder<T> {
    /// Sets the presentation level delivered at (clamped per item to its
    /// ladder depth). Defaults to 1 (metadata only).
    pub fn fixed_level(mut self, level: u8) -> Self {
        self.fixed_level = level;
        self
    }
}

impl FixedLevelBuilder<FifoScheduler> {
    /// Builds the scheduler.
    pub fn build(self) -> FifoScheduler {
        FifoScheduler { state: FixedLevelState::new(self.fixed_level) }
    }
}

impl FixedLevelBuilder<UtilScheduler> {
    /// Builds the scheduler.
    pub fn build(self) -> UtilScheduler {
        UtilScheduler { state: FixedLevelState::new(self.fixed_level) }
    }
}

/// FIFO baseline: notifications delivered in arrival order at a fixed
/// presentation level (Spotify real-time mode behaviour).
#[derive(Debug)]
pub struct FifoScheduler {
    state: FixedLevelState,
}

impl FifoScheduler {
    /// A builder; `FifoScheduler::builder().fixed_level(n).build()`.
    pub fn builder() -> FixedLevelBuilder<FifoScheduler> {
        FixedLevelBuilder::default()
    }

    /// The configured fixed level.
    pub fn fixed_level(&self) -> u8 {
        self.state.fixed_level
    }
}

impl Policy for FifoScheduler {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn enqueue(&mut self, notification: QueuedNotification) {
        self.state.queue.push_back(notification);
    }

    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        self.state.drain("FIFO", ctx, obs)
    }

    fn idle_rounds(&mut self, ctx: &RoundContext<'_>, rounds: u64, _: &mut dyn SelectionObserver) {
        self.state.idle_rounds(ctx.data_grant, rounds);
    }

    fn backlog(&self) -> usize {
        self.state.queue.len()
    }

    fn backlog_bytes(&self) -> u64 {
        self.state.backlog_bytes()
    }

    fn checkpoint(&self) -> PolicyCheckpoint {
        PolicyCheckpoint::Fifo(self.state.checkpoint())
    }

    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy> {
        match ck {
            PolicyCheckpoint::Fifo(c) => Ok(Self { state: FixedLevelState::from_checkpoint(c) }),
            other => Err(WrongPolicy { expected: "FIFO", found: other.policy_name() }),
        }
    }
}

/// UTIL baseline: notifications delivered in descending utility order at a
/// fixed presentation level (Spotify batch mode behaviour).
#[derive(Debug)]
pub struct UtilScheduler {
    state: FixedLevelState,
}

impl UtilScheduler {
    /// A builder; `UtilScheduler::builder().fixed_level(n).build()`.
    pub fn builder() -> FixedLevelBuilder<UtilScheduler> {
        FixedLevelBuilder::default()
    }

    fn resort(&mut self) {
        let level = self.state.fixed_level;
        self.state.queue.make_contiguous().sort_by(|a, b| {
            let ua = a.utility_at(a.ladder.clamp_level(level));
            let ub = b.utility_at(b.ladder.clamp_level(level));
            ub.total_cmp(&ua)
        });
    }
}

impl Policy for UtilScheduler {
    fn name(&self) -> &str {
        "UTIL"
    }

    fn enqueue(&mut self, notification: QueuedNotification) {
        self.state.queue.push_back(notification);
    }

    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        self.resort();
        self.state.drain("UTIL", ctx, obs)
    }

    fn idle_rounds(&mut self, ctx: &RoundContext<'_>, rounds: u64, _: &mut dyn SelectionObserver) {
        self.state.idle_rounds(ctx.data_grant, rounds);
    }

    fn backlog(&self) -> usize {
        self.state.queue.len()
    }

    fn backlog_bytes(&self) -> u64 {
        self.state.backlog_bytes()
    }

    fn checkpoint(&self) -> PolicyCheckpoint {
        PolicyCheckpoint::Util(self.state.checkpoint())
    }

    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy> {
        match ck {
            PolicyCheckpoint::Util(c) => Ok(Self { state: FixedLevelState::from_checkpoint(c) }),
            other => Err(WrongPolicy { expected: "UTIL", found: other.policy_name() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{ContentFeatures, ContentKind, Interaction};
    use crate::ids::{AlbumId, ArtistId, ContentId, TrackId, UserId};
    use crate::policy::NoopObserver;
    use crate::presentation::AudioPresentationSpec;

    fn notification(id: u64, content_utility: f64, enqueued_at: f64) -> QueuedNotification {
        QueuedNotification {
            item: ContentItem {
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

    fn online_ctx(round: u64, grant: u64) -> RoundContext<'static> {
        RoundContext::builder(&COST)
            .round(round)
            .now(round as f64 * 3600.0)
            .data_grant(grant)
            .energy_grant(3_000.0)
            .build()
    }

    #[test]
    fn richnote_delivers_nothing_when_offline() {
        let mut s = RichNoteScheduler::builder().build();
        s.enqueue(notification(1, 0.9, 0.0));
        let ctx = RoundContext { online: false, ..online_ctx(0, 1_000_000) };
        assert!(s.run_round(&ctx).is_empty());
        // Budget still accrues while offline.
        assert_eq!(s.lyapunov().data_budget(), 1_000_000.0);
    }

    #[test]
    fn richnote_adapts_level_to_budget() {
        // Tiny budget → metadata only; huge budget → full previews.
        let mut small = RichNoteScheduler::builder().build();
        let mut large = RichNoteScheduler::builder().build();
        for i in 0..5 {
            small.enqueue(notification(i, 0.8, 0.0));
            large.enqueue(notification(i, 0.8, 0.0));
        }
        let d_small = small.run_round(&online_ctx(0, 1_500));
        let d_large = large.run_round(&online_ctx(0, 50_000_000));
        assert!(!d_small.is_empty());
        assert!(d_small.iter().all(|d| d.level == 1), "{d_small:?}");
        assert_eq!(d_large.len(), 5);
        assert!(d_large.iter().all(|d| d.level == 6), "{d_large:?}");
    }

    #[test]
    fn richnote_delivery_sorted_by_utility() {
        let mut s = RichNoteScheduler::builder().build();
        s.enqueue(notification(1, 0.2, 0.0));
        s.enqueue(notification(2, 0.9, 0.0));
        s.enqueue(notification(3, 0.5, 0.0));
        let delivered = s.run_round(&online_ctx(0, 50_000_000));
        let utils: Vec<f64> = delivered.iter().map(|d| d.utility).collect();
        for w in utils.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(delivered[0].content, ContentId::new(2));
    }

    #[test]
    fn richnote_queue_drains_and_backlog_tracks() {
        let mut s = RichNoteScheduler::builder().build();
        for i in 0..10 {
            s.enqueue(notification(i, 0.5, 0.0));
        }
        assert_eq!(s.backlog(), 10);
        let ladder_total = AudioPresentationSpec::paper_default().ladder().total_size();
        assert_eq!(s.backlog_bytes(), 10 * ladder_total);
        let delivered = s.run_round(&online_ctx(0, u64::MAX >> 8));
        assert_eq!(delivered.len(), 10);
        assert_eq!(s.backlog(), 0);
        assert_eq!(s.backlog_bytes(), 0);
        assert_eq!(s.lyapunov().q(), 0.0);
    }

    #[test]
    fn richnote_budget_rolls_over_when_offline() {
        let mut s = RichNoteScheduler::builder().build();
        s.enqueue(notification(1, 0.9, 0.0));
        // Three offline rounds bank 3θ...
        for r in 0..3 {
            let ctx = RoundContext { online: false, ..online_ctx(r, 40_000) };
            assert!(s.run_round(&ctx).is_empty());
        }
        // ...enough for a 5-second preview (100_200 B) in round 3 even
        // though a single round's grant (40 kB) is not.
        let delivered = s.run_round(&online_ctx(3, 40_000));
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].level >= 2, "{delivered:?}");
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut s = FifoScheduler::builder().fixed_level(1).build();
        s.enqueue(notification(1, 0.1, 0.0));
        s.enqueue(notification(2, 0.9, 10.0));
        let delivered = s.run_round(&online_ctx(0, 1_000_000));
        let ids: Vec<u64> = delivered.iter().map(|d| d.content.value()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn util_orders_by_utility() {
        let mut s = UtilScheduler::builder().fixed_level(1).build();
        s.enqueue(notification(1, 0.1, 0.0));
        s.enqueue(notification(2, 0.9, 10.0));
        s.enqueue(notification(3, 0.5, 20.0));
        let delivered = s.run_round(&online_ctx(0, 1_000_000));
        let ids: Vec<u64> = delivered.iter().map(|d| d.content.value()).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn baselines_block_on_fixed_level_size() {
        // Level 3 = metadata + 10s preview = 200_200 bytes. Budget for one.
        let mut fifo = FifoScheduler::builder().fixed_level(3).build();
        fifo.enqueue(notification(1, 0.9, 0.0));
        fifo.enqueue(notification(2, 0.9, 0.0));
        let delivered = fifo.run_round(&online_ctx(0, 250_000));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].size, 200_200);
        assert_eq!(fifo.backlog(), 1);
    }

    #[test]
    fn baseline_budget_rolls_over() {
        let mut fifo = FifoScheduler::builder().fixed_level(3).build();
        fifo.enqueue(notification(1, 0.9, 0.0));
        // One round with half the needed budget: nothing delivered.
        assert!(fifo.run_round(&online_ctx(0, 110_000)).is_empty());
        // Next round the rolled-over budget suffices.
        assert_eq!(fifo.run_round(&online_ctx(1, 110_000)).len(), 1);
    }

    #[test]
    fn baseline_clamps_missing_levels() {
        let ladder = crate::presentation::PresentationLadder::new(vec![(200, 0.01)]).unwrap();
        let mut n = notification(1, 0.9, 0.0);
        n.ladder = Arc::new(ladder);
        let mut fifo = FifoScheduler::builder().fixed_level(6).build();
        fifo.enqueue(n);
        let delivered = fifo.run_round(&online_ctx(0, 1_000));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].level, 1);
    }

    #[test]
    fn link_capacity_caps_deliveries() {
        let mut s = RichNoteScheduler::builder().build();
        for i in 0..4 {
            s.enqueue(notification(i, 0.9, 0.0));
        }
        let ctx = RoundContext { link_capacity: 500, ..online_ctx(0, 10_000_000) };
        let delivered = s.run_round(&ctx);
        let bytes: u64 = delivered.iter().map(|d| d.size).sum();
        assert!(bytes <= 500);
    }

    #[test]
    fn queuing_delay_is_measured() {
        let mut s = FifoScheduler::builder().fixed_level(1).build();
        s.enqueue(notification(1, 0.9, 100.0));
        let ctx = online_ctx(2, 1_000_000); // now = 7200
        let delivered = s.run_round(&ctx);
        assert!((delivered[0].queuing_delay() - 7_100.0).abs() < 1e-9);
    }

    #[test]
    fn expiry_drops_stale_items_and_shrinks_q() {
        let cfg = RichNoteConfig { max_age_secs: Some(2.0 * 3600.0), ..RichNoteConfig::default() };
        let mut s = RichNoteScheduler::builder().config(cfg).build();
        s.enqueue(notification(1, 0.9, 0.0));
        s.enqueue(notification(2, 0.9, 9_000.0));
        assert_eq!(s.backlog(), 2);
        // Offline round at t = 3 h: item 1 (age 3 h) expires, item 2 stays.
        let ctx = RoundContext { online: false, now: 3.0 * 3600.0, ..online_ctx(2, 0) };
        assert!(s.run_round(&ctx).is_empty());
        assert_eq!(s.backlog(), 1);
        assert_eq!(s.expired(), 1);
        let remaining_total = AudioPresentationSpec::paper_default().ladder().total_size();
        assert_eq!(s.lyapunov().q(), remaining_total as f64);
    }

    #[test]
    fn expiry_disabled_by_default() {
        let mut s = RichNoteScheduler::builder().build();
        s.enqueue(notification(1, 0.9, 0.0));
        let ctx = RoundContext { online: false, now: 1e9, ..online_ctx(0, 0) };
        assert!(s.run_round(&ctx).is_empty());
        assert_eq!(s.backlog(), 1);
        assert_eq!(s.expired(), 0);
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        // Two schedulers fed identical streams; one is checkpointed and
        // restored mid-run. Subsequent rounds must be identical, and the
        // snapshot itself must survive a JSON round trip unchanged.
        let mut reference = RichNoteScheduler::builder().build();
        let mut victim = RichNoteScheduler::builder().build();
        for i in 0..6 {
            reference.enqueue(notification(i, 0.3 + 0.1 * i as f64, 0.0));
            victim.enqueue(notification(i, 0.3 + 0.1 * i as f64, 0.0));
        }
        assert_eq!(
            reference.run_round(&online_ctx(0, 120_000)),
            victim.run_round(&online_ctx(0, 120_000))
        );

        let ck = victim.checkpoint();
        let json = serde_json::to_string(&ck).unwrap();
        let back: SchedulerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ck, back, "checkpoint must survive a JSON round trip");
        let mut restored = RichNoteScheduler::from_checkpoint(back);

        for r in 1..5 {
            reference.enqueue(notification(100 + r, 0.7, r as f64 * 3600.0));
            restored.enqueue(notification(100 + r, 0.7, r as f64 * 3600.0));
            let ctx = online_ctx(r, 90_000);
            assert_eq!(
                reference.run_round(&ctx),
                restored.run_round(&ctx),
                "selections diverged after restore at round {r}"
            );
        }
        assert_eq!(reference.backlog(), restored.backlog());
        assert_eq!(reference.lyapunov(), restored.lyapunov());
    }

    #[test]
    fn energy_depletion_steers_selection_to_smaller_levels() {
        // Drain the virtual energy queue far below κ: the (P−κ)·ρ term then
        // penalizes big transfers, so RichNote should pick smaller levels
        // than an energy-rich scheduler would under the same data budget.
        let cfg = RichNoteConfig {
            lyapunov: LyapunovConfig { v: 1_000.0, kappa: 3_000.0, initial_energy: 0.0 },
            ..RichNoteConfig::default()
        };
        let mut poor = RichNoteScheduler::builder().config(cfg).build();
        let mut rich = RichNoteScheduler::builder().build();
        for i in 0..3 {
            poor.enqueue(notification(i, 0.9, 0.0));
            rich.enqueue(notification(i, 0.9, 0.0));
        }
        // Strongly energy-costly link.
        let cost = LinearCost { fixed: 50.0, per_byte: 5e-3 };
        let ctx = RoundContext::builder(&cost).data_grant(10_000_000).build();
        let d_poor = poor.run_round(&ctx);
        let ctx_rich = RoundContext { energy_grant: 3_000.0, ..ctx };
        let d_rich = rich.run_round(&ctx_rich);
        let max_poor = d_poor.iter().map(|d| d.level).max().unwrap_or(0);
        let max_rich = d_rich.iter().map(|d| d.level).max().unwrap_or(0);
        assert!(
            max_poor <= max_rich,
            "energy-poor scheduler must not pick richer levels ({max_poor} vs {max_rich})"
        );
    }

    /// Records every on_select call for assertions.
    #[derive(Default)]
    struct RecordingObserver {
        selects: Vec<(u64, ContentId, SelectDecision)>,
    }

    impl SelectionObserver for RecordingObserver {
        fn on_select(&mut self, round: u64, content: ContentId, decision: &SelectDecision) {
            self.selects.push((round, content, *decision));
        }
    }

    #[test]
    fn richnote_observer_sees_one_decision_per_delivery() {
        let mut s = RichNoteScheduler::builder().build();
        for i in 0..8 {
            s.enqueue(notification(i, 0.2 + 0.1 * i as f64, 0.0));
        }
        let mut obs = RecordingObserver::default();
        let delivered = s.select_round(&online_ctx(0, 400_000), &mut obs);
        assert!(!delivered.is_empty());
        assert_eq!(obs.selects.len(), delivered.len(), "one on_select per delivery");
        let mut remaining_prev = u64::MAX;
        for (ev, d) in obs.selects.iter().zip(&delivered) {
            assert_eq!(ev.1, d.content);
            assert_eq!(ev.2.level, d.level);
            assert_eq!(ev.2.size, d.size);
            assert!(ev.2.gradient.is_finite(), "gradient must be a real slope: {ev:?}");
            assert!(
                ev.2.budget_remaining <= remaining_prev,
                "budget remaining must be non-increasing within a round: {ev:?}"
            );
            remaining_prev = ev.2.budget_remaining;
        }
    }

    #[test]
    fn baseline_observer_reports_zero_gradient() {
        let mut fifo = FifoScheduler::builder().fixed_level(1).build();
        fifo.enqueue(notification(1, 0.9, 0.0));
        let mut obs = RecordingObserver::default();
        let d = fifo.select_round(&online_ctx(0, 1_000_000), &mut obs);
        assert_eq!(d.len(), 1);
        assert_eq!(obs.selects.len(), 1);
        assert_eq!(obs.selects[0].2.gradient, 0.0);
    }

    #[test]
    fn policy_checkpoints_roundtrip_for_all_policies() {
        let mut rn = RichNoteScheduler::builder().build();
        let mut fifo = FifoScheduler::builder().fixed_level(3).build();
        let mut util = UtilScheduler::builder().fixed_level(2).build();
        for i in 0..4 {
            rn.enqueue(notification(i, 0.5, 0.0));
            fifo.enqueue(notification(i, 0.5, 0.0));
            util.enqueue(notification(i, 0.5, 0.0));
        }
        // Advance the baselines so rolled-over budget state is nontrivial.
        fifo.run_round(&online_ctx(0, 110_000));
        util.run_round(&online_ctx(0, 110_000));

        for (ck, name) in [
            (Policy::checkpoint(&rn), "RichNote"),
            (Policy::checkpoint(&fifo), "FIFO"),
            (Policy::checkpoint(&util), "UTIL"),
        ] {
            assert_eq!(ck.policy_name(), name);
            let json = serde_json::to_string(&ck).unwrap();
            let back: PolicyCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(ck, back, "{name} checkpoint must survive a JSON round trip");
            assert_eq!(back.restore().name(), name);
        }

        // Restored baselines resume with identical budgets and queues.
        let mut fifo2 = FifoScheduler::restore(Policy::checkpoint(&fifo)).unwrap();
        assert_eq!(fifo2.backlog(), fifo.backlog());
        assert_eq!(fifo2.fixed_level(), 3);
        assert_eq!(
            fifo2.run_round(&online_ctx(1, 110_000)),
            fifo.run_round(&online_ctx(1, 110_000))
        );
    }

    proptest::proptest! {
        /// The baselines' budget roll-over: `idle_rounds` against that many
        /// `select_round` calls on an empty queue, over whole, fractional
        /// and beyond-2⁵³ budgets.
        #[test]
        fn fixed_level_idle_rounds_match_select_round_bit_for_bit(
            kind in 0usize..3,
            whole in 0u64..1 << 40,
            frac in 0.0f64..1.0,
            grant in 0u64..1 << 20,
            rounds in 0u64..3000,
        ) {
            let data_budget = match kind {
                0 => whole as f64,
                1 => whole as f64 + frac,
                _ => 9_007_199_254_740_992.0 * (1.0 + frac) - (whole % 64) as f64,
            };
            let state = FixedLevelCheckpoint { fixed_level: 3, data_budget, queue: Vec::new() };
            let budget_bits = |p: &dyn Policy| match p.checkpoint() {
                PolicyCheckpoint::Fifo(c) | PolicyCheckpoint::Util(c) => c.data_budget.to_bits(),
                other => panic!("not a baseline: {other:?}"),
            };
            let ctx = online_ctx(7, grant);
            for ck in [PolicyCheckpoint::Fifo(state.clone()), PolicyCheckpoint::Util(state)] {
                let (mut fast, mut slow) = (ck.clone().restore(), ck.restore());
                fast.idle_rounds(&ctx, rounds, &mut NoopObserver);
                for r in 0..rounds {
                    let step = RoundContext { round: ctx.round + r, ..ctx };
                    assert!(slow.select_round(&step, &mut NoopObserver).is_empty());
                }
                proptest::prop_assert_eq!(budget_bits(&*fast), budget_bits(&*slow));
            }
        }
    }

    #[test]
    fn restoring_into_the_wrong_policy_fails_loudly() {
        let fifo = FifoScheduler::builder().fixed_level(1).build();
        let err = RichNoteScheduler::restore(Policy::checkpoint(&fifo)).unwrap_err();
        assert_eq!(err, WrongPolicy { expected: "RichNote", found: "FIFO" });
        assert!(err.to_string().contains("FIFO"), "{err}");
        let rn = RichNoteScheduler::builder().build();
        assert!(UtilScheduler::restore(Policy::checkpoint(&rn)).is_err());
    }
}
