//! The [`Policy`] trait: the one interface every scheduling policy is
//! driven through.
//!
//! A policy owns one user's scheduling queue and budgets. A driver — the
//! simulator's per-user loop, a server shard — feeds it with
//! [`Policy::enqueue`] and advances it one round at a time with
//! [`Policy::select_round`] (or [`Policy::run_round`] when nobody is
//! watching). Around that round loop the trait carries
//!
//! * [`Policy::checkpoint`] / [`Policy::restore`] — every policy can be
//!   captured into a serializable, policy-tagged [`PolicyCheckpoint`] and
//!   rebuilt from it; [`PolicyCheckpoint::restore`] rebuilds whichever
//!   policy wrote the checkpoint;
//! * [`SelectionObserver`] — a per-round hook through which the policy
//!   reports each selection (chosen level, realized utility, and the MCKP
//!   gradient that won the knapsack slot), feeding the observability
//!   layer without the policy knowing about registries or trace rings;
//! * [`Policy::idle_rounds`] — a closed form for rounds in which the queue
//!   is empty, so a driver may skip idle users and settle them later.
//!
//! Drivers hold policies as `Box<dyn Policy + Send>`, built by name through
//! [`crate::registry::PolicyName`] or from a configuration of their own.

use crate::adaptive::AdaptivePolicy;
use crate::ids::ContentId;
use crate::scheduler::{
    DeliveredNotification, FifoScheduler, QueuedNotification, RichNoteScheduler, RoundContext,
    SchedulerCheckpoint, UtilScheduler,
};
use serde::{Deserialize, Serialize};

/// The full context of one selection decision, reported through
/// [`SelectionObserver::on_select`].
///
/// This is what per-publication tracing needs to answer "why was this
/// delivered at level 3": the chosen level, the realized utility, the
/// MCKP gradient that won the knapsack slot, and how much of the round's
/// byte budget was left once this delivery was charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectDecision {
    /// Presentation level chosen.
    pub level: u8,
    /// Bytes of the chosen presentation.
    pub size: u64,
    /// Combined utility realized at the chosen level.
    pub utility: f64,
    /// Utility-per-byte slope of the final upgrade into `level` in the
    /// MCKP instance (0 for base selections and for policies that do not
    /// solve a knapsack).
    pub gradient: f64,
    /// Bytes of the per-round budget still unspent immediately after
    /// this delivery was charged.
    pub budget_remaining: u64,
}

/// The per-round shaping decision of an adaptive policy, reported through
/// [`SelectionObserver::on_adapt`] before any selection happens: what the
/// policy predicted about connectivity and how it reshaped the round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveDecision {
    /// Predicted probability the user is offline next round.
    pub predicted_offline: f64,
    /// Predicted probability the user is on WiFi next round.
    pub predicted_wifi: f64,
    /// Throughput estimate driving the grant scaling (bytes/sec), if any.
    pub throughput: Option<f64>,
    /// The effective data grant after scaling (bytes).
    pub data_grant: u64,
    /// Whether the grant was reduced below the driver's grant.
    pub grant_scaled: bool,
    /// The presentation-level cap imposed this round (`u8::MAX` = none).
    pub level_cap: u8,
}

/// Receives per-selection telemetry during [`Policy::select_round`].
///
/// Implementations must be cheap: the RichNote scheduler calls
/// [`SelectionObserver::on_select`] once per delivered notification inside
/// the round loop.
pub trait SelectionObserver {
    /// One notification was chosen for delivery with `decision`.
    fn on_select(&mut self, round: u64, content: ContentId, decision: &SelectDecision);

    /// An adaptive policy reshaped the round (once per round, before
    /// selections). Defaults to a no-op so non-adaptive observers are
    /// unaffected.
    fn on_adapt(&mut self, round: u64, decision: &AdaptiveDecision) {
        let _ = (round, decision);
    }

    /// A delivery-quality event: one delivery's realized utility and
    /// bytes, or a round's suppression tally, keyed by the
    /// `{policy, connectivity, level}` cohort (see [`crate::quality`]).
    /// Called once per delivery plus at most once per round, right after
    /// the matching [`SelectionObserver::on_select`] calls. Defaults to a
    /// no-op so existing observers are unaffected.
    fn on_quality(&mut self, round: u64, sample: &crate::quality::QualitySample<'_>) {
        let _ = (round, sample);
    }
}

/// An observer that ignores everything (what [`Policy::run_round`] runs
/// under).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SelectionObserver for NoopObserver {
    fn on_select(&mut self, _: u64, _: ContentId, _: &SelectDecision) {}
}

/// Serializable state of one fixed-level baseline scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedLevelCheckpoint {
    /// The configured presentation level.
    pub fixed_level: u8,
    /// Rolled-over data budget (bytes, fractional).
    pub data_budget: f64,
    /// The queue in its exact in-memory order.
    pub queue: Vec<QueuedNotification>,
}

/// A policy-tagged checkpoint: which policy wrote it, plus its state.
///
/// The tag is what lets a restarted daemon rebuild the *same* policy the
/// checkpoint came from, and refuse a checkpoint written under another
/// `--policy` instead of silently changing scheduling behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyCheckpoint {
    /// [`crate::scheduler::RichNoteScheduler`] state.
    RichNote(SchedulerCheckpoint),
    /// [`crate::scheduler::FifoScheduler`] state.
    Fifo(FixedLevelCheckpoint),
    /// [`crate::scheduler::UtilScheduler`] state.
    Util(FixedLevelCheckpoint),
    /// [`crate::adaptive::AdaptivePolicy`] state (estimators included).
    /// Boxed: the adaptive checkpoint (config + estimator + inner
    /// scheduler) dwarfs the other variants.
    Adaptive(Box<crate::adaptive::AdaptiveCheckpoint>),
}

impl PolicyCheckpoint {
    /// The policy name the checkpoint belongs to.
    pub fn policy_name(&self) -> &'static str {
        match self {
            PolicyCheckpoint::RichNote(_) => "RichNote",
            PolicyCheckpoint::Fifo(_) => "FIFO",
            PolicyCheckpoint::Util(_) => "UTIL",
            PolicyCheckpoint::Adaptive(_) => "Adaptive",
        }
    }

    /// Rebuilds whichever policy wrote the checkpoint.
    pub fn restore(self) -> Box<dyn Policy + Send> {
        fn boxed<P: Policy + Send + 'static>(ck: PolicyCheckpoint) -> Box<dyn Policy + Send> {
            Box::new(P::restore(ck).expect("dispatched on the checkpoint's own variant"))
        }
        match self {
            PolicyCheckpoint::RichNote(_) => boxed::<RichNoteScheduler>(self),
            PolicyCheckpoint::Fifo(_) => boxed::<FifoScheduler>(self),
            PolicyCheckpoint::Util(_) => boxed::<UtilScheduler>(self),
            PolicyCheckpoint::Adaptive(_) => boxed::<AdaptivePolicy>(self),
        }
    }
}

/// Restore was handed a checkpoint written by a different policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrongPolicy {
    /// The policy asked to restore.
    pub expected: &'static str,
    /// The policy that wrote the checkpoint.
    pub found: &'static str,
}

impl std::fmt::Display for WrongPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot restore a {} checkpoint into a {} policy", self.found, self.expected)
    }
}

impl std::error::Error for WrongPolicy {}

/// The scheduling-policy interface: one user's queue, advanced in rounds.
pub trait Policy {
    /// Short policy name for reports ("RichNote", "FIFO", "UTIL",
    /// "Adaptive"); equals [`PolicyCheckpoint::policy_name`] of the
    /// policy's own checkpoints.
    fn name(&self) -> &str;

    /// Adds a notification to the scheduling queue.
    fn enqueue(&mut self, notification: QueuedNotification);

    /// Runs one round — updates budgets, selects notifications — reporting
    /// each selection through `obs` and returning the deliveries in
    /// delivery order.
    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification>;

    /// [`Policy::select_round`] with nobody watching.
    fn run_round(&mut self, ctx: &RoundContext<'_>) -> Vec<DeliveredNotification> {
        self.select_round(ctx, &mut NoopObserver)
    }

    /// Advances `rounds` consecutive rounds during which this policy's
    /// queue is empty, leaving exactly the state — and reporting through
    /// `obs` exactly what — that many [`Policy::select_round`] calls
    /// would. `ctx` is the context of the first of those rounds; each
    /// later one has `round + 1` and `now + round_secs` and is otherwise
    /// the same.
    ///
    /// This is what lets a driver skip idle users and settle them later
    /// in one step. The obligation is the caller's: the queue is empty,
    /// and grants, link, connectivity signal and cost model are the same
    /// for every skipped round — a driver whose context varies per round
    /// (the simulator's does) must call `select_round` instead.
    ///
    /// The default body is the sequential loop, always correct; policies
    /// override it with a closed form that is bit-identical to it.
    fn idle_rounds(
        &mut self,
        ctx: &RoundContext<'_>,
        rounds: u64,
        obs: &mut dyn SelectionObserver,
    ) {
        for i in 0..rounds {
            let step = RoundContext {
                round: ctx.round + i,
                now: ctx.now + i as f64 * ctx.round_secs,
                ..*ctx
            };
            let delivered = self.select_round(&step, obs);
            debug_assert!(delivered.is_empty(), "idle_rounds on a policy with a queue");
        }
    }

    /// Number of items still queued.
    fn backlog(&self) -> usize;

    /// Bytes still queued, measured as `Σ s(i)` over queued items.
    fn backlog_bytes(&self) -> u64;

    /// Captures the policy's complete mutable state.
    fn checkpoint(&self) -> PolicyCheckpoint;

    /// Rebuilds a policy from a checkpoint written by the same policy.
    ///
    /// # Errors
    ///
    /// Returns [`WrongPolicy`] when `ck` was written by a different
    /// policy.
    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy>
    where
        Self: Sized;
}
