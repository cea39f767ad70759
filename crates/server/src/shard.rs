//! Shard state and the shard worker loop.
//!
//! Each shard owns the scheduler state of the users hashed onto it and
//! advances them in lockstep rounds. Scheduling uses *virtual time* —
//! round `t` runs at `now = t × round_secs` — so selections depend only on
//! the publication stream and the tick sequence, never on wall-clock
//! jitter. Wall-clock [`Instant`]s are kept separately, purely to measure
//! ingest-to-selection latency and per-stage durations.
//!
//! # Policies
//!
//! A shard holds one `Box<dyn Policy + Send>` per user, built by the
//! factory [`ServerConfig::policy`] names
//! ([`richnote_core::PolicyName::factory`]); the round loop knows only the
//! [`Policy`] trait. Checkpoints carry a policy-tagged
//! [`richnote_core::policy::PolicyCheckpoint`], and restoring one written
//! by a different policy than the shard builds fails loudly.
//!
//! # Observability
//!
//! Every shard owns its observability state: a metric [`Registry`]
//! (counters, gauges, log2 histograms, all labeled with the shard index),
//! a bounded [`Ring`] of [`SpanRecord`]s, and the delivery-quality
//! [`CohortLedger`] the simulator keeps too. Recording is a plain field
//! increment — no locks, no hashing — because all of it is owned by the
//! shard thread and only *snapshots* cross threads (via
//! [`ShardMsg::Stats`]). Each number has one owner: what the shard
//! already counts — its lifetime totals, its ledger (and the level mix it
//! yields) and its queue's drop and contention totals — is written into
//! the registry only at the stats cut ([`ShardState::stats`]); per-event
//! registry writes are left to the histograms and the adaptive-decision
//! counters, which nothing else counts. Spans carry only logical fields
//! (rounds, ids, levels, gradients), so a seeded run produces an
//! identical trace across machines; wall-clock numbers go to histograms
//! instead.
//!
//! # Failure containment
//!
//! The worker wraps every message in `catch_unwind`: a panic (organic or
//! injected via [`crate::FaultPlan::shard_panic`]) kills only that shard.
//! The dying worker closes and drains its queue first, so a requester
//! blocked on a reply channel sees a disconnect immediately instead of
//! deadlocking, and the server surfaces the failure as a typed error.
//! The shard's flight recorder is a [`FlightRecorder`] the worker shares
//! with the server, so its last span trees outlive the worker and land in
//! the incident bundle the failed request writes.

use crate::checkpoint::{ShardCheckpoint, UserCheckpoint};
use crate::config::ServerConfig;
use crate::error::{ServerError, ServerResult};
use crate::queue::BoundedQueue;
use crate::wire::Delivery;
use richnote_core::presentation::AudioPresentationSpec;
use richnote_core::quality::{
    CohortLedger, QualitySample, DELIVERED_BYTES_FAMILY, DELIVERED_BYTES_HELP, SUPPRESSED_FAMILY,
    SUPPRESSED_HELP, UTILITY_FAMILY, UTILITY_HELP,
};
use richnote_core::scheduler::{QueuedNotification, RoundContext};
use richnote_core::{
    AdaptiveDecision, ContentId, ContentItem, NoopObserver, Policy, PresentationLadder,
    SelectDecision, SelectionObserver, UserId,
};
use richnote_obs::rsrc::alloc_counting_active;
use richnote_obs::{
    alloc_counts, AllocCounts, CounterHandle, CpuClock, GaugeHandle, HistogramHandle, Registry,
    RegistrySnapshot, Ring, SampleRate, SpanDecision, SpanRecord, SpanStager, SpanTree,
    ThreadCpuClock, FLIGHT_CAPACITY,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Content utility `Uc(i)` used by the daemon: a deterministic popularity
/// blend standing in for the paper's trained random-forest model (the
/// daemon ships no training data; weights follow the feature importance
/// ordering reported in the paper's Table III).
///
/// A NaN blend (the binary codec carries any f64) scores 0.0: `clamp` keeps
/// NaN, which would outrank every real gradient and poison utility sums.
pub fn content_utility(item: &ContentItem) -> f64 {
    let f = &item.features;
    let u = 0.5 * f.track_popularity + 0.3 * f.artist_popularity + 0.2 * f.album_popularity;
    if u.is_nan() {
        0.0
    } else {
        u.clamp(0.0, 1.0)
    }
}

/// A shard's flight recorder: the ring of its last span trees, shared by
/// the worker that fills it and the server that reads it, so the trees
/// outlive a worker that dies.
pub type FlightRecorder = Arc<Mutex<Ring<SpanTree>>>;

/// A recorder holding [`FLIGHT_CAPACITY`] trees when tracing is on, a
/// disabled ring otherwise.
fn flight_recorder(trace_capacity: usize) -> FlightRecorder {
    let ring = if trace_capacity > 0 { Ring::new(FLIGHT_CAPACITY) } else { Ring::disabled() };
    Arc::new(Mutex::new(ring))
}

/// Highest deliverable presentation level in the paper's audio ladder
/// (metadata + five preview durations); level 0 means "not delivered".
const MAX_LEVEL: u8 = 6;

/// Per-shard observability: a metric registry, a span ring and a
/// delivery-quality ledger, all owned by the shard thread (lock-free
/// recording).
///
/// # Causal spans
///
/// Traced ingests (those carrying a publish-minted trace id) stage their
/// Queue span in the [`SpanStager`] until the selection round that
/// delivers them. At that point the trace *finishes*: the stager rules
/// on it (head sampling, anomalies always kept), and a kept trace emits
/// its spans into the trace ring and its [`SpanTree`] into the flight
/// recorder — the one lock a kept trace takes, shared with the server's
/// readers. Staging overflow is counted in `richnote_trace_shed_total`.
///
/// # Delivery quality
///
/// Quality samples fold into a [`CohortLedger`], the simulator's tally:
/// a delivery costs an index computation and three adds. A stats cut
/// writes the ledger's non-empty cells into the registry as the
/// `{connectivity, level, policy, shard}` cohort families, and the
/// `richnote_level_total` counters as its deliveries per level.
struct ShardObs {
    shard: usize,
    registry: Registry,
    ring: Ring<SpanRecord>,
    flight: FlightRecorder,
    stager: SpanStager,
    pubs: CounterHandle,
    queue_dropped: CounterHandle,
    selected: CounterHandle,
    rounds: CounterHandle,
    bytes_spent: CounterHandle,
    bytes_budgeted: CounterHandle,
    trace_shed: CounterHandle,
    /// Adaptive-policy decisions made (one per user-round under the
    /// adaptive policy; zero under static policies).
    adapt_rounds: CounterHandle,
    /// Decisions that scaled the data grant below the configured θ.
    adapt_grant_scaled: CounterHandle,
    /// Decisions that clamped the presentation ladder.
    adapt_capped: CounterHandle,
    /// Decisions that predicted an offline round (metadata-only cap).
    adapt_offline_predicted: CounterHandle,
    /// Sum of shaped per-user data grants, bytes.
    adapt_grant_bytes: CounterHandle,
    /// Delivery counters by chosen level, indexed 0..=[`MAX_LEVEL`]; a
    /// level never chosen exports 0.
    levels: Vec<CounterHandle>,
    backlog: GaugeHandle,
    users: GaugeHandle,
    /// Users with something queued: what a round's cost scales with.
    active_users: GaugeHandle,
    /// Users whose scheduler state came from a checkpoint at start-up.
    restored_users: GaugeHandle,
    round_duration: HistogramHandle,
    selection_latency: HistogramHandle,
    stage_dequeue: HistogramHandle,
    stage_select: HistogramHandle,
    /// Per-thread CPU clock.
    clock: Box<dyn CpuClock>,
    /// Thread allocation counters at first sample, so the export reflects
    /// this shard's work rather than whatever the thread did before.
    alloc_base: Option<AllocCounts>,
    cpu_us: CounterHandle,
    round_cpu: HistogramHandle,
    allocs: CounterHandle,
    alloc_bytes: CounterHandle,
    queue_contended: CounterHandle,
    /// Delivery-quality accounting by `{policy, connectivity, level}`.
    quality: CohortLedger,
}

impl ShardObs {
    /// Registers the shard's metric vocabulary. `trace_capacity = 0`
    /// disables the span ring, span staging, and the flight recorder;
    /// `sample` gates which completed traces are kept.
    fn new(shard: usize, trace_capacity: usize, sample: SampleRate) -> Self {
        let mut registry = Registry::new();
        let s = shard.to_string();
        let l = &[("shard", s.as_str())][..];
        let stage = |st: &'static str| {
            let v: Vec<(&str, &str)> = vec![("shard", s.as_str()), ("stage", st)];
            v
        };
        let pubs = registry.counter("richnote_pubs_total", "Publications ingested", l);
        let queue_dropped = registry.counter(
            "richnote_queue_dropped_total",
            "Ingest-queue messages shed by backpressure",
            l,
        );
        let selected =
            registry.counter("richnote_selected_total", "Notifications selected for delivery", l);
        let rounds = registry.counter("richnote_rounds_total", "Selection rounds completed", l);
        let bytes_spent =
            registry.counter("richnote_bytes_spent_total", "Bytes of selected presentations", l);
        let bytes_budgeted = registry.counter(
            "richnote_bytes_budgeted_total",
            "Sum of per-user data grants over completed rounds",
            l,
        );
        let backlog =
            registry.gauge("richnote_backlog", "Notifications queued across schedulers", l);
        let users = registry.gauge("richnote_users", "Users with scheduler state", l);
        let active_users = registry.gauge(
            "richnote_active_users",
            "Users with a non-empty scheduling queue (the users a round visits)",
            l,
        );
        let restored_users = registry.gauge(
            "richnote_restored_users",
            "Users whose scheduler state was restored from a checkpoint at start-up",
            l,
        );
        let round_duration = registry.histogram(
            "richnote_round_duration_us",
            "Wall-clock duration of one selection round",
            l,
        );
        let selection_latency = registry.histogram(
            "richnote_selection_latency_us",
            "Wall-clock ingest-to-selection latency",
            l,
        );
        let stage_dequeue = registry.histogram(
            "richnote_stage_duration_us",
            "Wall-clock duration per pipeline stage",
            &stage("dequeue"),
        );
        let stage_select = registry.histogram(
            "richnote_stage_duration_us",
            "Wall-clock duration per pipeline stage",
            &stage("select"),
        );
        let trace_shed = registry.counter(
            "richnote_trace_shed_total",
            "Traced publications whose spans were shed by staging overflow",
            l,
        );
        let adapt_rounds = registry.counter(
            "richnote_adaptive_rounds_total",
            "Adaptive-policy shaping decisions made",
            l,
        );
        let adapt_grant_scaled = registry.counter(
            "richnote_adaptive_grant_scaled_total",
            "Adaptive decisions that scaled the data grant below θ",
            l,
        );
        let adapt_capped = registry.counter(
            "richnote_adaptive_capped_total",
            "Adaptive decisions that clamped the presentation ladder",
            l,
        );
        let adapt_offline_predicted = registry.counter(
            "richnote_adaptive_offline_predicted_total",
            "Adaptive decisions that predicted an offline round",
            l,
        );
        let adapt_grant_bytes = registry.counter(
            "richnote_adaptive_grant_bytes_total",
            "Sum of adaptively shaped per-user data grants (bytes)",
            l,
        );
        let cpu_us = registry.counter(
            "richnote_cpu_us_total",
            "Thread CPU time consumed by this shard worker (µs)",
            l,
        );
        let round_cpu =
            registry.histogram("richnote_round_cpu_us", "Thread CPU time per selection round", l);
        let allocs = registry.counter(
            "richnote_allocs_total",
            "Heap allocations on this shard thread (counting allocator)",
            l,
        );
        let alloc_bytes = registry.counter(
            "richnote_alloc_bytes_total",
            "Heap bytes allocated on this shard thread (counting allocator)",
            l,
        );
        let queue_contended = registry.counter(
            "richnote_queue_contended_total",
            "Ingest-queue lock acquisitions that found the lock held",
            l,
        );
        let levels = (0..=MAX_LEVEL)
            .map(|lv| {
                let lvs = lv.to_string();
                registry.counter(
                    "richnote_level_total",
                    "Deliveries by chosen presentation level",
                    &[("shard", s.as_str()), ("level", lvs.as_str())][..],
                )
            })
            .collect();
        let tracing = trace_capacity > 0;
        ShardObs {
            shard,
            registry,
            ring: if tracing { Ring::new(trace_capacity) } else { Ring::disabled() },
            flight: flight_recorder(trace_capacity),
            stager: SpanStager::new(
                shard,
                if tracing { sample } else { SampleRate::OFF },
                4 * trace_capacity.max(256),
            ),
            pubs,
            queue_dropped,
            selected,
            rounds,
            bytes_spent,
            bytes_budgeted,
            trace_shed,
            adapt_rounds,
            adapt_grant_scaled,
            adapt_capped,
            adapt_offline_predicted,
            adapt_grant_bytes,
            levels,
            backlog,
            users,
            active_users,
            restored_users,
            round_duration,
            selection_latency,
            stage_dequeue,
            stage_select,
            clock: Box::new(ThreadCpuClock),
            alloc_base: None,
            cpu_us,
            round_cpu,
            allocs,
            alloc_bytes,
            queue_contended,
            quality: CohortLedger::new(),
        }
    }

    /// Replaces the CPU clock with a scripted one, for determinism.
    #[cfg(test)]
    fn set_clock(&mut self, clock: Box<dyn CpuClock>) {
        self.clock = clock;
    }

    /// CPU reading at round start; `None` when the platform clock is
    /// unavailable.
    fn cpu_begin(&self) -> Option<u64> {
        self.clock.thread_cpu_us()
    }

    /// Folds the round's CPU delta into the histogram and refreshes the
    /// absolute per-thread CPU counter.
    fn cpu_end(&mut self, begin: Option<u64>) {
        let Some(b) = begin else { return };
        if let Some(now) = self.clock.thread_cpu_us() {
            self.registry.observe_us(self.round_cpu, now.saturating_sub(b));
            self.registry.set_counter(self.cpu_us, now);
        }
    }

    /// Refreshes the allocation counters from this thread's counting-
    /// allocator tallies (no-op unless the binary installed one).
    fn sample_allocs(&mut self) {
        if !alloc_counting_active() {
            return;
        }
        let now = alloc_counts();
        let base = *self.alloc_base.get_or_insert(now);
        let d = now.since(base);
        self.registry.set_counter(self.allocs, d.allocs);
        self.registry.set_counter(self.alloc_bytes, d.bytes);
    }

    /// Refreshes the absolute CPU counter outside the round loop (stats
    /// replies between rounds should not report stale CPU).
    fn sample_cpu(&mut self) {
        if let Some(now) = self.clock.thread_cpu_us() {
            self.registry.set_counter(self.cpu_us, now);
        }
    }

    /// Drains up to `max` spans from the trace ring (oldest first) plus
    /// the evicted count; the remainder stays buffered for the next dump
    /// so no single reply outgrows a wire frame.
    fn drain_spans(&mut self, max: usize) -> (Vec<SpanRecord>, u64) {
        self.ring.drain_up_to(max)
    }

    /// Finishes the trace staged for `user`'s notification of `content`,
    /// if any, and pushes a kept tree into the ring and the flight
    /// recorder.
    fn finish_trace(&mut self, round: u64, user: u64, content: u64, d: &SelectDecision) {
        let decision = SpanDecision {
            level: d.level,
            utility: d.utility,
            gradient: d.gradient,
            budget_remaining: d.budget_remaining,
        };
        let Some(tree) = self.stager.finish(round, user, content, decision, d.size) else {
            return;
        };
        for s in &tree.spans {
            self.ring.push(s.clone());
        }
        self.flight.lock().unwrap_or_else(PoisonError::into_inner).push(tree);
    }

    /// Writes the quality ledger into the registry: one
    /// `richnote_utility_total` gauge and `richnote_delivered_bytes_total`
    /// counter per non-empty `{connectivity, level}` cell, one
    /// `richnote_suppressed_total` counter per cohort that withheld
    /// anything, and each `richnote_level_total` counter as the cells'
    /// deliveries at that level, summed over connectivity. Label keys are
    /// registered in a fixed order (`connectivity`, `level`, `policy`,
    /// `shard`) so the daemon's vocabulary matches the simulator's byte for
    /// byte; registering an existing series returns its handle.
    fn export_quality(&mut self) {
        let s = self.shard.to_string();
        let policy = self.quality.policy();
        let mut per_level = [0u64; MAX_LEVEL as usize + 1];
        for cell in self.quality.cells() {
            if let Some(n) = per_level.get_mut(cell.level as usize) {
                *n += cell.delivered;
            }
            let lv = cell.level.to_string();
            let labels = [
                ("connectivity", cell.connectivity.as_str()),
                ("level", lv.as_str()),
                ("policy", policy),
                ("shard", s.as_str()),
            ];
            let u = self.registry.gauge(UTILITY_FAMILY, UTILITY_HELP, &labels);
            self.registry.set_gauge(u, cell.utility);
            let b = self.registry.counter(DELIVERED_BYTES_FAMILY, DELIVERED_BYTES_HELP, &labels);
            self.registry.set_counter(b, cell.bytes);
        }
        for (cohort, count) in self.quality.suppressed_cells() {
            let labels = [("connectivity", cohort.as_str()), ("policy", policy), ("shard", &s)];
            let h = self.registry.counter(SUPPRESSED_FAMILY, SUPPRESSED_HELP, &labels);
            self.registry.set_counter(h, count);
        }
        for (&h, n) in self.levels.iter().zip(per_level) {
            self.registry.set_counter(h, n);
        }
    }

    /// Folds one adaptive shaping decision into the
    /// `richnote_adaptive_*` families.
    fn record_adapt(&mut self, decision: &AdaptiveDecision) {
        self.registry.inc(self.adapt_rounds, 1);
        self.registry.inc(self.adapt_grant_bytes, decision.data_grant);
        if decision.grant_scaled {
            self.registry.inc(self.adapt_grant_scaled, 1);
        }
        if decision.level_cap < u8::MAX {
            self.registry.inc(self.adapt_capped, 1);
        }
        if decision.level_cap <= 1 {
            self.registry.inc(self.adapt_offline_predicted, 1);
        }
    }
}

/// Reports one user's selections into the shard's quality ledger, adaptive
/// counters and span stager.
struct SelectObserver<'a> {
    obs: &'a mut ShardObs,
    user: u64,
}

impl SelectionObserver for SelectObserver<'_> {
    fn on_select(&mut self, round: u64, content: ContentId, decision: &SelectDecision) {
        self.obs.finish_trace(round, self.user, content.value(), decision);
    }

    fn on_adapt(&mut self, _round: u64, decision: &AdaptiveDecision) {
        self.obs.record_adapt(decision);
    }

    fn on_quality(&mut self, _round: u64, sample: &QualitySample<'_>) {
        self.obs.quality.record(sample);
    }
}

/// Result of one [`ShardState::run_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Round index that just ran.
    pub round: u64,
    /// Notifications selected this round, in delivery order per user.
    pub selected: Vec<(UserId, ContentId, u8)>,
    /// Bytes of selected presentations.
    pub bytes: u64,
}

/// One user's scheduler and how far the shard has advanced it.
struct Slot {
    policy: Box<dyn Policy + Send>,
    /// The first round `policy` has not been advanced through. A queued
    /// user is visited every round, so this equals the shard's round; an
    /// idle user falls behind and is settled by [`Policy::idle_rounds`]
    /// when next ingested into or checkpointed.
    next_round: u64,
    /// The policy's queue length: `+1` per ingest, re-read from
    /// `policy.backlog()` at every visit (deliveries and age expiry shrink
    /// it). The user is in [`ShardState::active`] exactly while this is
    /// non-zero.
    queued: usize,
}

/// The per-shard schedulers plus their counters.
///
/// A round costs what the backlog costs: it visits only the users with
/// something queued, in ascending id order — determinism requires a
/// stable order, and hash-map order varies per process. A user with an
/// empty queue only accrues budget, which [`Policy::idle_rounds`] settles
/// bit-identically later because the shard's [`RoundContext`] is built
/// from [`ServerConfig`] alone and so is the same for every round.
pub struct ShardState {
    shard: usize,
    cfg: ServerConfig,
    /// Shared per-publication: `ingest` hands each queued notification an
    /// `Arc` of this one ladder instead of deep-copying the level table.
    ladder: Arc<PresentationLadder>,
    /// Every user's slot, in first-seen order.
    slots: Vec<Slot>,
    /// User → index into `slots`; ordered, so a checkpoint lists users by
    /// ascending id.
    by_user: BTreeMap<UserId, usize>,
    /// The queued users with their slot indices: pushed on the idle →
    /// queued edge, sorted at the start of a round, pruned as queues empty.
    active: Vec<(UserId, usize)>,
    /// Notifications queued across all slots (the sum of `Slot::queued`).
    backlog: usize,
    /// Builds a fresh scheduler for a user seen for the first time.
    factory: fn() -> Box<dyn Policy + Send>,
    /// Wall-clock ingest instants for latency measurement only; not
    /// checkpointed (a restored process has fresh wall clocks anyway).
    ingest_at: HashMap<(UserId, ContentId), Instant>,
    round: u64,
    ingested: u64,
    selected: u64,
    bytes_budgeted: u64,
    bytes_spent: u64,
    obs: ShardObs,
}

/// The context of round `round`. Everything but the round index and its
/// virtual time comes from the configuration, which is what makes idle
/// rounds skippable.
fn round_ctx(cfg: &ServerConfig, round: u64) -> RoundContext<'_> {
    RoundContext::builder(&cfg.cost)
        .round(round)
        .now(round as f64 * cfg.round_secs)
        .round_secs(cfg.round_secs)
        .link_capacity(cfg.link_capacity)
        .data_grant(cfg.data_grant)
        .energy_grant(cfg.energy_grant)
        .build()
}

impl ShardState {
    /// An empty shard running the policy `cfg.policy` names.
    pub fn new(shard: usize, cfg: ServerConfig) -> Self {
        let factory = cfg.policy.factory();
        ShardState::with_policy(shard, cfg, factory)
    }

    /// Rebuilds a shard running the policy `cfg.policy` names from its
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// See [`ShardState::load`].
    pub fn restore(shard: usize, cfg: ServerConfig, ck: ShardCheckpoint) -> ServerResult<Self> {
        ShardState::new(shard, cfg).load(ck)
    }

    /// An empty shard whose schedulers are built by `factory` instead of
    /// the registry's: the seam for a policy configured other than by
    /// default, or a test double.
    pub fn with_policy(
        shard: usize,
        cfg: ServerConfig,
        factory: fn() -> Box<dyn Policy + Send>,
    ) -> Self {
        let obs = ShardObs::new(shard, cfg.trace_capacity, cfg.trace_sample);
        ShardState {
            shard,
            cfg,
            ladder: Arc::new(AudioPresentationSpec::paper_default().ladder()),
            slots: Vec::new(),
            by_user: BTreeMap::new(),
            active: Vec::new(),
            backlog: 0,
            factory,
            ingest_at: HashMap::new(),
            round: 0,
            ingested: 0,
            selected: 0,
            bytes_budgeted: 0,
            bytes_spent: 0,
            obs,
        }
    }

    /// Loads a checkpoint into a freshly built shard.
    ///
    /// Lifetime totals (ingested, selected, rounds, bytes) are restored
    /// into the shard's fields, which the stats cut exports, so `Stats`
    /// survives a restart; wall-clock histograms (round duration, stage
    /// durations, selection latency) and the quality ledger restart from
    /// zero because a new process has fresh clocks — mixing pre- and
    /// post-restart wall-clock samples would corrupt the percentiles.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Checkpoint`] when the checkpoint belongs to
    /// a different shard index or a user's state was written by a
    /// different policy than this shard's factory builds.
    pub fn load(mut self, ck: ShardCheckpoint) -> ServerResult<Self> {
        if ck.shard != self.shard {
            return Err(ServerError::Checkpoint {
                path: String::new(),
                detail: format!(
                    "shard checkpoint index {} restored onto shard {}",
                    ck.shard, self.shard
                ),
            });
        }
        self.round = ck.round;
        self.ingested = ck.ingested;
        self.selected = ck.selected;
        self.bytes_budgeted = ck.bytes_budgeted;
        self.bytes_spent = ck.bytes_spent;
        self.obs.registry.set_gauge(self.obs.restored_users, ck.users.len() as f64);
        // What this shard will build for new users; restored users must
        // have been written by the same policy. A checkpoint revives
        // whichever policy wrote it, so the name guard is what keeps a
        // `--policy` switch from silently mixing scheduler states.
        let probe = (self.factory)();
        let expected = probe.name();
        for u in ck.users {
            if u.scheduler.policy_name() != expected {
                return Err(ServerError::Checkpoint {
                    path: String::new(),
                    detail: format!(
                        "user {}: checkpoint written by the {} policy but this shard runs {expected}",
                        u.user.value(),
                        u.scheduler.policy_name()
                    ),
                });
            }
            let policy = u.scheduler.restore();
            let slot = Slot { queued: policy.backlog(), policy, next_round: ck.round };
            // A user listed twice keeps the later entry.
            match self.by_user.entry(u.user) {
                Entry::Occupied(e) => self.slots[*e.get()] = slot,
                Entry::Vacant(e) => {
                    e.insert(self.slots.len());
                    self.slots.push(slot);
                }
            }
        }
        self.backlog = self.slots.iter().map(|s| s.queued).sum();
        let slots = &self.slots;
        self.active = self
            .by_user
            .iter()
            .filter(|(_, &i)| slots[i].queued > 0)
            .map(|(&u, &i)| (u, i))
            .collect();
        Ok(self)
    }

    /// Serializes this shard's full scheduling state at the current round
    /// boundary. A user the rounds have been skipping is settled on a copy
    /// first (its queue is empty, so the copy is small): the checkpoint is
    /// the one a shard that visited every user every round would write.
    pub fn checkpoint(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            shard: self.shard,
            round: self.round,
            ingested: self.ingested,
            selected: self.selected,
            bytes_budgeted: self.bytes_budgeted,
            bytes_spent: self.bytes_spent,
            users: self
                .by_user
                .iter()
                .map(|(&user, &i)| {
                    let slot = &self.slots[i];
                    let mut scheduler = slot.policy.checkpoint();
                    if slot.next_round < self.round {
                        let mut settled = scheduler.restore();
                        settled.idle_rounds(
                            &round_ctx(&self.cfg, slot.next_round),
                            self.round - slot.next_round,
                            &mut NoopObserver,
                        );
                        scheduler = settled.checkpoint();
                    }
                    UserCheckpoint { user, scheduler }
                })
                .collect(),
        }
    }

    /// Enqueues `item` on `user`'s scheduler, creating it on first sight.
    ///
    /// `received` is the wall-clock instant ingest began (at the socket),
    /// so the latency histogram includes queueing ahead of the shard.
    /// A `Some` trace id stages the publication's Queue span; the trace
    /// finishes (and the sampler rules on it) when a later round selects
    /// the item.
    pub fn ingest(
        &mut self,
        user: UserId,
        item: ContentItem,
        received: Instant,
        trace: Option<u64>,
    ) {
        let t0 = Instant::now();
        if let Some(t) = trace {
            // Buffered, not yet in the ring: the stager rules on the trace
            // when a round selects the item.
            let (u, c) = (user.value(), item.id.value());
            self.obs.stager.stage(u, c, [SpanRecord::queued(t, self.shard, self.round, u, c)]);
        }
        let i = *self.by_user.entry(user).or_insert_with(|| {
            self.slots.push(Slot { policy: (self.factory)(), next_round: self.round, queued: 0 });
            self.slots.len() - 1
        });
        let slot = &mut self.slots[i];
        if slot.next_round < self.round {
            // Settle the rounds that skipped this user before anything is
            // queued: `idle_rounds` needs the queue empty.
            let mut ob = SelectObserver { obs: &mut self.obs, user: user.value() };
            let ctx = round_ctx(&self.cfg, slot.next_round);
            slot.policy.idle_rounds(&ctx, self.round - slot.next_round, &mut ob);
            slot.next_round = self.round;
        }
        let uc = content_utility(&item);
        self.ingest_at.insert((user, item.id), received);
        // Virtual enqueue time: the start of the round the item lands in.
        slot.policy.enqueue(QueuedNotification {
            enqueued_at: self.round as f64 * self.cfg.round_secs,
            ladder: Arc::clone(&self.ladder),
            content_utility: uc,
            item,
        });
        if slot.queued == 0 {
            self.active.push((user, i));
        }
        slot.queued += 1;
        self.backlog += 1;
        self.ingested += 1;
        let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.obs.registry.observe_us(self.obs.stage_dequeue, us);
    }

    /// Runs one round: every user is granted budget, and the users with
    /// something queued are visited, in ascending id order.
    pub fn run_round(&mut self) -> RoundOutcome {
        let t0 = Instant::now();
        let cpu0 = self.obs.cpu_begin();
        let ctx = round_ctx(&self.cfg, self.round);
        let mut outcome = RoundOutcome { round: self.round, selected: Vec::new(), bytes: 0 };
        let mut select_us = 0u64;
        self.bytes_budgeted += self.cfg.data_grant * self.slots.len() as u64;
        self.active.sort_unstable_by_key(|&(user, _)| user);
        self.active.retain(|&(user, i)| {
            let slot = &mut self.slots[i];
            let mut ob = SelectObserver { obs: &mut self.obs, user: user.value() };
            let ts = Instant::now();
            let delivered = slot.policy.select_round(&ctx, &mut ob);
            select_us += ts.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            for d in delivered {
                if let Some(received) = self.ingest_at.remove(&(user, d.content)) {
                    let us = received.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    self.obs.registry.observe_us(self.obs.selection_latency, us);
                }
                self.bytes_spent += d.size;
                outcome.bytes += d.size;
                outcome.selected.push((user, d.content, d.level));
            }
            // Deliveries and age expiry both shrink the queue.
            let queued = slot.policy.backlog();
            self.backlog = self.backlog - slot.queued + queued;
            slot.queued = queued;
            slot.next_round = ctx.round + 1;
            queued > 0
        });
        self.selected += outcome.selected.len() as u64;
        self.round += 1;
        self.obs.registry.observe_us(self.obs.stage_select, select_us);
        let round_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.obs.registry.observe_us(self.obs.round_duration, round_us);
        self.obs.cpu_end(cpu0);
        self.obs.sample_allocs();
        outcome
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Notifications still queued across this shard's schedulers.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Writes the ingest queue's drop and contention totals into the
    /// registry: the queue keeps them, the cut exports them.
    fn sync_queue(&mut self, dropped: u64, contended: u64) {
        self.obs.registry.set_counter(self.obs.queue_dropped, dropped);
        self.obs.registry.set_counter(self.obs.queue_contended, contended);
    }

    /// The stats cut: writes the shard's own tallies into the registry
    /// and snapshots it.
    pub fn stats(&mut self) -> RegistrySnapshot {
        let obs = &mut self.obs;
        obs.registry.set_counter(obs.pubs, self.ingested);
        obs.registry.set_counter(obs.selected, self.selected);
        obs.registry.set_counter(obs.rounds, self.round);
        obs.registry.set_counter(obs.bytes_spent, self.bytes_spent);
        obs.registry.set_counter(obs.bytes_budgeted, self.bytes_budgeted);
        obs.registry.set_gauge(obs.backlog, self.backlog as f64);
        obs.registry.set_gauge(obs.users, self.slots.len() as f64);
        obs.registry.set_gauge(obs.active_users, self.active.len() as f64);
        obs.registry.set_counter(obs.trace_shed, obs.stager.shed());
        obs.export_quality();
        obs.sample_cpu();
        obs.sample_allocs();
        obs.registry.snapshot()
    }

    /// The shard's observability state (trace ring + registry).
    fn obs_mut(&mut self) -> &mut ShardObs {
        &mut self.obs
    }
}

/// What a shard reports back after a tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickDone {
    /// Rounds completed so far on this shard.
    pub rounds: u64,
    /// Items selected during this tick.
    pub selected: u64,
    /// Per-delivery log of the tick; empty unless `collect` was requested.
    pub deliveries: Vec<Delivery>,
}

/// Messages a shard worker consumes from its ingest queue.
pub enum ShardMsg {
    /// A matched publication for one of this shard's users.
    Ingest {
        /// Receiving user.
        user: UserId,
        /// Payload.
        item: ContentItem,
        /// Wall-clock instant the publication was read off the socket.
        received: Instant,
        /// Causal trace id minted at publish time; `None` = untraced.
        trace: Option<u64>,
    },
    /// Run `rounds` rounds, then report the tick outcome.
    Tick {
        /// Rounds to run.
        rounds: u32,
        /// Whether to collect the per-delivery log (costly at scale).
        collect: bool,
        /// Reply channel.
        reply: mpsc::Sender<TickDone>,
    },
    /// Report a registry snapshot (gauges refreshed at reply time).
    Stats {
        /// Reply channel.
        reply: mpsc::Sender<RegistrySnapshot>,
    },
    /// Drain up to `max` spans from the shard's trace ring; the rest
    /// stays buffered for the next dump.
    TraceDump {
        /// Most spans to return in this reply (frame-size budget).
        max: usize,
        /// Reply channel carrying `(spans, evicted-count)`.
        reply: mpsc::Sender<(Vec<SpanRecord>, u64)>,
    },
    /// Report this shard's checkpoint at the current round boundary.
    Checkpoint {
        /// Reply channel.
        reply: mpsc::Sender<ShardCheckpoint>,
    },
    /// Drain: run one final round over whatever is queued, then report the
    /// post-drain checkpoint. The worker keeps running (the server stops
    /// it explicitly once the drain checkpoint is written).
    Drain {
        /// Reply channel.
        reply: mpsc::Sender<ShardCheckpoint>,
    },
    /// Exit the worker loop.
    Shutdown,
}

impl ShardMsg {
    /// Whether backpressure may shed this message (only raw ingests).
    pub fn droppable(msg: &ShardMsg) -> bool {
        matches!(msg, ShardMsg::Ingest { .. })
    }
}

/// A running shard worker: its ingest queue, its flight recorder and the
/// thread driving it.
pub struct ShardWorker {
    /// Bounded ingest queue, shared with connection threads.
    pub queue: Arc<BoundedQueue<ShardMsg>>,
    /// The shard's flight recorder, readable after the worker died.
    pub flight: FlightRecorder,
    handle: JoinHandle<()>,
}

/// One message's verdict in the worker loop.
enum Flow {
    Continue,
    Stop,
}

fn handle_msg(state: &mut ShardState, queue: &BoundedQueue<ShardMsg>, msg: ShardMsg) -> Flow {
    match msg {
        ShardMsg::Ingest { user, item, received, trace } => {
            state.ingest(user, item, received, trace);
        }
        ShardMsg::Tick { rounds, collect, reply } => {
            let mut done = TickDone { rounds: 0, selected: 0, deliveries: Vec::new() };
            for _ in 0..rounds {
                if state.cfg.faults.should_panic(state.shard, state.rounds()) {
                    panic!(
                        "injected shard panic: shard {} at round {}",
                        state.shard,
                        state.rounds()
                    );
                }
                let out = state.run_round();
                done.selected += out.selected.len() as u64;
                if collect {
                    done.deliveries.extend(out.selected.iter().map(|&(user, content, level)| {
                        Delivery { round: out.round, user, content, level }
                    }));
                }
            }
            done.rounds = state.rounds();
            // The requester may have hung up; that's fine.
            let _ = reply.send(done);
        }
        ShardMsg::Stats { reply } => {
            state.sync_queue(queue.dropped(), queue.contended());
            let _ = reply.send(state.stats());
        }
        ShardMsg::TraceDump { max, reply } => {
            let _ = reply.send(state.obs_mut().drain_spans(max));
        }
        ShardMsg::Checkpoint { reply } => {
            let _ = reply.send(state.checkpoint());
        }
        ShardMsg::Drain { reply } => {
            state.run_round();
            let _ = reply.send(state.checkpoint());
        }
        ShardMsg::Shutdown => return Flow::Stop,
    }
    Flow::Continue
}

impl ShardWorker {
    /// Spawns the worker thread for shard `shard` running the policy
    /// `cfg.policy` names, optionally seeded with restored state.
    pub fn spawn(shard: usize, cfg: ServerConfig, restored: Option<ShardCheckpoint>) -> Self {
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity, ShardMsg::droppable));
        let q = Arc::clone(&queue);
        let flight = flight_recorder(cfg.trace_capacity);
        let recorder = Arc::clone(&flight);
        let handle = std::thread::Builder::new()
            .name(format!("richnote-shard-{shard}"))
            .spawn(move || {
                let mut state = match restored {
                    Some(ck) => {
                        ShardState::restore(shard, cfg, ck).expect("shard checkpoint mismatch")
                    }
                    None => ShardState::new(shard, cfg),
                };
                state.obs.flight = recorder;
                while let Some(msg) = q.pop() {
                    match catch_unwind(AssertUnwindSafe(|| handle_msg(&mut state, &q, msg))) {
                        Ok(Flow::Continue) => {}
                        Ok(Flow::Stop) => break,
                        Err(_) => {
                            // Contain the panic to this shard: close the
                            // queue and drop everything still queued, so
                            // requesters blocked on reply channels see a
                            // disconnect instead of deadlocking. The flight
                            // recorder stays with the server.
                            q.close();
                            while q.pop().is_some() {}
                            break;
                        }
                    }
                }
            })
            .expect("spawn shard worker");
        ShardWorker { queue, flight, handle }
    }

    /// Whether the worker thread has exited (e.g. died to a contained
    /// panic).
    #[cfg(test)]
    fn is_dead(&self) -> bool {
        self.handle.is_finished()
    }

    /// Closes the queue and joins the worker thread.
    pub fn join(self) {
        self.queue.push(ShardMsg::Shutdown);
        self.queue.close();
        let _ = self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, ShardPanicFault};
    use richnote_core::content::{ContentFeatures, ContentKind, Interaction, SocialTie};
    use richnote_core::scheduler::{FifoScheduler, UtilScheduler};
    use richnote_core::{PolicyCheckpoint, PolicyName};
    use richnote_obs::SpanStage;

    fn item(id: u64, recipient: u64, arrival: f64) -> ContentItem {
        ContentItem {
            id: ContentId::new(id),
            recipient: UserId::new(recipient),
            sender: None,
            kind: ContentKind::FriendFeed,
            track: richnote_core::TrackId::new(id),
            album: richnote_core::AlbumId::new(1),
            artist: richnote_core::ArtistId::new(1),
            arrival,
            track_secs: 180.0,
            features: ContentFeatures {
                tie: SocialTie::Mutual,
                track_popularity: 0.9,
                album_popularity: 0.5,
                artist_popularity: 0.7,
                weekend: false,
                night: false,
            },
            interaction: Interaction::NoActivity,
        }
    }

    fn trees(recorder: &FlightRecorder) -> Vec<SpanTree> {
        recorder.lock().unwrap().iter().cloned().collect()
    }

    fn tick(worker: &ShardWorker, rounds: u32) -> TickDone {
        let (tx, rx) = mpsc::channel();
        worker.queue.push(ShardMsg::Tick { rounds, collect: false, reply: tx });
        rx.recv().unwrap()
    }

    #[test]
    fn ingest_then_round_selects() {
        let mut shard = ShardState::new(0, ServerConfig::default());
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.ingest(UserId::new(2), item(2, 2, 0.0), Instant::now(), None);
        let out = shard.run_round();
        assert_eq!(out.round, 0);
        assert!(!out.selected.is_empty());
        assert!(out.bytes > 0);
        assert_eq!(shard.rounds(), 1);
        assert_eq!(shard.backlog(), 2 - out.selected.len());
        assert_eq!(shard.stats().gauge_total("richnote_users"), 2.0);
    }

    #[test]
    fn registry_tracks_the_round_loop() {
        let mut shard = ShardState::new(0, ServerConfig::default());
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.ingest(UserId::new(2), item(2, 2, 0.0), Instant::now(), None);
        let out = shard.run_round();
        let stats = shard.stats();
        assert_eq!(stats.counter_total("richnote_pubs_total"), 2);
        assert_eq!(stats.counter_total("richnote_rounds_total"), 1);
        assert_eq!(stats.counter_total("richnote_selected_total"), out.selected.len() as u64);
        assert_eq!(stats.counter_total("richnote_bytes_spent_total"), out.bytes);
        let rd = stats.histogram_merged("richnote_round_duration_us");
        assert_eq!(rd.count(), 1);
        let stages = stats.histogram_merged("richnote_stage_duration_us");
        // One dequeue observation per ingest, one select per round.
        assert_eq!(stages.count(), 3);
        let lat = stats.histogram_merged("richnote_selection_latency_us");
        assert_eq!(lat.count(), out.selected.len() as u64);
    }

    #[test]
    fn quality_families_account_utility_per_cohort() {
        let mut shard = ShardState::new(0, ServerConfig::default());
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.ingest(UserId::new(2), item(2, 2, 0.0), Instant::now(), None);
        let out = shard.run_round();
        let stats = shard.stats();
        let fam = stats.family("richnote_utility_total").expect("utility family registered");
        // Server rounds carry no NetSignal, so every cohort is "unknown";
        // the policy label names the running scheduler.
        assert!(fam.series.iter().all(|s| {
            s.labels.contains(&("connectivity".to_string(), "unknown".to_string()))
                && s.labels.contains(&("policy".to_string(), "RichNote".to_string()))
        }));
        assert!(
            stats.gauge_total("richnote_utility_total") > 0.0,
            "delivered rounds must accumulate utility"
        );
        assert_eq!(stats.counter_total("richnote_delivered_bytes_total"), out.bytes);
    }

    /// Every series of `family` as `labels → value`: a gauge's value is its
    /// `to_bits()`, so a comparison is bit for bit.
    fn series_bits(stats: &RegistrySnapshot, family: &str) -> Vec<(String, u64)> {
        let Some(fam) = stats.family(family) else { return Vec::new() };
        fam.series
            .iter()
            .map(|s| {
                let labels: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let value = match &s.value {
                    richnote_obs::MetricValue::Counter(c) => *c,
                    richnote_obs::MetricValue::Gauge(g) => g.to_bits(),
                    richnote_obs::MetricValue::Histogram(h) => h.count(),
                };
                (labels.join(","), value)
            })
            .collect()
    }

    /// The quality families of a seeded run under a binding grant, pinned
    /// bit for bit: several presentation levels, suppressions, idle users
    /// settled at their next ingest, and utility sums in sample order.
    #[test]
    fn quality_series_are_pinned_bit_for_bit() {
        let cfg = ServerConfig { data_grant: 3_000, ..ServerConfig::default() };
        let mut shard = ShardState::new(3, cfg);
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut content = 0u64;
        for round in 0..240u64 {
            // Sparse bursts: a user idle for a while has banked enough
            // budget for a preview, and a burst past the round's budget
            // leaves notifications suppressed.
            if next() % 12 == 0 {
                let user = 1 + next() % 6;
                for _ in 0..1 + next() % 25 {
                    content += 1;
                    let mut it = item(content, user, round as f64);
                    it.features.track_popularity = (next() % 1000) as f64 / 1000.0;
                    it.features.album_popularity = (next() % 1000) as f64 / 1000.0;
                    it.features.artist_popularity = (next() % 1000) as f64 / 1000.0;
                    shard.ingest(UserId::new(user), it, Instant::now(), None);
                }
            }
            shard.run_round();
        }
        let stats = shard.stats();
        let cell = |level: u8, value: u64| {
            (format!("connectivity=unknown,level={level},policy=RichNote,shard=3"), value)
        };
        assert_eq!(
            series_bits(&stats, "richnote_utility_total"),
            [
                cell(1, 4_608_928_644_519_534_046),
                cell(2, 4_610_823_270_455_623_285),
                cell(3, 4_608_894_546_717_214_905),
            ]
        );
        assert_eq!(
            series_bits(&stats, "richnote_delivered_bytes_total"),
            [cell(1, 59_600), cell(2, 1_002_000), cell(3, 800_800)]
        );
        assert_eq!(
            series_bits(&stats, "richnote_suppressed_total"),
            [("connectivity=unknown,policy=RichNote,shard=3".to_string(), 12)]
        );
    }

    #[test]
    fn starved_rounds_count_suppressions() {
        // A grant below the metadata size delivers nothing, so every
        // queued notification counts one suppressed notification-round.
        let cfg = ServerConfig { data_grant: 100, ..ServerConfig::default() };
        let mut shard = ShardState::new(0, cfg);
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.ingest(UserId::new(2), item(2, 2, 0.0), Instant::now(), None);
        let out = shard.run_round();
        assert!(out.selected.is_empty());
        let stats = shard.stats();
        assert_eq!(stats.counter_total("richnote_suppressed_total"), 2);
        assert_eq!(stats.counter_total("richnote_delivered_bytes_total"), 0);
    }

    #[test]
    fn cost_accounting_tracks_round_cpu_deterministically() {
        let mut shard = ShardState::new(0, ServerConfig::default());
        // Scripted clock: round 1 reads (1_000, 3_500) → 2_500 µs of CPU;
        // the stats refresh then reads 4_000.
        shard
            .obs_mut()
            .set_clock(Box::new(richnote_obs::ManualCpuClock::new(vec![1_000, 3_500, 4_000])));
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.run_round();
        shard.sync_queue(2, 7);
        let stats = shard.stats();
        let cpu = stats.histogram_merged("richnote_round_cpu_us");
        assert_eq!(cpu.count(), 1);
        assert_eq!(cpu.sum_us(), 2_500);
        assert_eq!(stats.counter_total("richnote_cpu_us_total"), 4_000);
        assert_eq!(stats.counter_total("richnote_queue_dropped_total"), 2);
        assert_eq!(stats.counter_total("richnote_queue_contended_total"), 7);
    }

    #[test]
    fn rounds_visit_users_in_id_order() {
        let mut shard = ShardState::new(0, ServerConfig::default());
        for uid in [5u64, 1, 3] {
            shard.ingest(UserId::new(uid), item(uid, uid, 0.0), Instant::now(), None);
        }
        let out = shard.run_round();
        let users: Vec<u64> = out.selected.iter().map(|(u, _, _)| u.value()).collect();
        let mut sorted = users.clone();
        sorted.sort_unstable();
        assert_eq!(users, sorted);
    }

    #[test]
    fn worker_round_trip() {
        let worker = ShardWorker::spawn(0, ServerConfig::default(), None);
        worker.queue.push(ShardMsg::Ingest {
            user: UserId::new(1),
            item: item(1, 1, 0.0),
            received: Instant::now(),
            trace: None,
        });
        let done = tick(&worker, 1);
        assert_eq!(done.rounds, 1);
        assert!(done.selected > 0);
        let (tx, rx) = mpsc::channel();
        worker.queue.push(ShardMsg::Stats { reply: tx });
        let stats = rx.recv().unwrap();
        assert_eq!(stats.counter_total("richnote_pubs_total"), 1);
        worker.join();
    }

    #[test]
    fn shard_runs_baseline_policies_generically() {
        let mut fifo = ShardState::with_policy(0, ServerConfig::default(), || {
            Box::new(FifoScheduler::builder().fixed_level(2).build())
        });
        let mut util = ShardState::with_policy(0, ServerConfig::default(), || {
            Box::new(UtilScheduler::builder().fixed_level(2).build())
        });
        fifo.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        util.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        let f = fifo.run_round();
        let u = util.run_round();
        assert_eq!(f.selected.len(), 1);
        assert_eq!(u.selected.len(), 1);
        assert!(f.selected.iter().all(|&(_, _, level)| level == 2));
        // A FIFO checkpoint cannot restore into a RichNote shard.
        let err = match ShardState::restore(0, ServerConfig::default(), fifo.checkpoint()) {
            Ok(_) => panic!("FIFO checkpoint restored into a RichNote shard"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("FIFO"), "{err}");
    }

    /// `new` and `restore` build the policy the configuration names.
    #[test]
    fn new_and_restore_honour_the_configured_policy() {
        let cfg = ServerConfig { policy: PolicyName::Fifo, ..ServerConfig::default() };
        let mut shard = ShardState::new(0, cfg.clone());
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        let ck = shard.checkpoint();
        assert!(matches!(ck.users[0].scheduler, PolicyCheckpoint::Fifo(_)), "{ck:?}");
        let restored = ShardState::restore(0, cfg, ck.clone()).expect("same-policy restore");
        assert_eq!(restored.checkpoint(), ck);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let cfg = ServerConfig::default();
        let mut reference = ShardState::new(0, cfg.clone());
        let mut victim = ShardState::new(0, cfg.clone());
        for uid in 1..=4u64 {
            for (s, now) in [(&mut reference, Instant::now()), (&mut victim, Instant::now())] {
                for k in 0..3u64 {
                    s.ingest(UserId::new(uid), item(uid * 10 + k, uid, 0.0), now, None);
                }
            }
        }
        assert_eq!(reference.run_round(), victim.run_round());

        let ck = victim.checkpoint();
        let json = serde_json::to_string(&ck).unwrap();
        let back: ShardCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ck, back, "shard checkpoint must JSON-roundtrip exactly");
        let mut restored = ShardState::restore(0, cfg, back).unwrap();
        assert_eq!(restored.stats().gauge_total("richnote_restored_users"), 4.0);

        for _ in 0..4 {
            assert_eq!(reference.run_round(), restored.run_round());
        }
        assert_eq!(reference.backlog(), restored.backlog());
    }

    #[test]
    fn restore_seeds_counters_and_zeroes_wall_clock_histograms() {
        let cfg = ServerConfig::default();
        let mut shard = ShardState::new(0, cfg.clone());
        for uid in 1..=3u64 {
            shard.ingest(UserId::new(uid), item(uid, uid, 0.0), Instant::now(), None);
        }
        shard.run_round();
        let before = shard.stats();
        assert!(before.histogram_merged("richnote_round_duration_us").count() > 0);

        let mut restored = ShardState::restore(0, cfg, shard.checkpoint()).unwrap();
        let after = restored.stats();
        // Lifetime counters survive the restart...
        assert_eq!(
            after.counter_total("richnote_pubs_total"),
            before.counter_total("richnote_pubs_total")
        );
        assert_eq!(
            after.counter_total("richnote_selected_total"),
            before.counter_total("richnote_selected_total")
        );
        assert_eq!(after.counter_total("richnote_rounds_total"), 1);
        // ...wall-clock histograms restart from zero (fresh process clock).
        assert_eq!(after.histogram_merged("richnote_round_duration_us").count(), 0);
        assert_eq!(after.histogram_merged("richnote_selection_latency_us").count(), 0);
        assert_eq!(after.gauge_total("richnote_restored_users"), 3.0);
    }

    #[test]
    fn restore_rejects_wrong_shard_index() {
        let cfg = ServerConfig::default();
        let shard = ShardState::new(2, cfg.clone());
        let ck = shard.checkpoint();
        assert!(ShardState::restore(1, cfg, ck).is_err());
    }

    #[test]
    fn tick_report_collects_delivery_log() {
        let worker = ShardWorker::spawn(0, ServerConfig::default(), None);
        worker.queue.push(ShardMsg::Ingest {
            user: UserId::new(1),
            item: item(1, 1, 0.0),
            received: Instant::now(),
            trace: None,
        });
        let (tx, rx) = mpsc::channel();
        worker.queue.push(ShardMsg::Tick { rounds: 1, collect: true, reply: tx });
        let done = rx.recv().unwrap();
        assert_eq!(done.deliveries.len() as u64, done.selected);
        assert!(done.deliveries.iter().all(|d| d.round == 0));
        worker.join();
    }

    /// Rounds, selections and chosen levels are registry families; the ring
    /// holds the traced selection's spans and nothing else, and the
    /// finished tree also lands in the flight recorder.
    #[test]
    fn traced_round_counts_in_stats_and_leaves_one_span_tree() {
        let cfg = ServerConfig { trace_capacity: 64, ..ServerConfig::default() };
        let mut shard = ShardState::new(2, cfg);
        shard.ingest(UserId::new(9), item(1, 9, 0.0), Instant::now(), Some(0xABCD));
        let out = shard.run_round();
        assert_eq!(out.selected.len(), 1);
        let stats = shard.stats();
        assert_eq!(stats.counter_total("richnote_rounds_total"), 1);
        assert_eq!(stats.counter_total("richnote_selected_total"), 1);
        let level = out.selected[0].2.to_string();
        assert_eq!(stats.value_where("richnote_level_total", "level", &level), Some(1.0));
        assert_eq!(stats.counter_total("richnote_level_total"), 1);

        let (spans, dropped) = shard.obs_mut().drain_spans(usize::MAX);
        assert_eq!(dropped, 0);
        let stages: Vec<_> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![SpanStage::Queue, SpanStage::Select, SpanStage::Serialize]);
        assert!(spans.iter().all(|s| s.trace == 0xABCD));
        let sel = &spans[1];
        let d = sel.decision.as_ref().expect("select span carries the decision");
        assert!(d.level >= 1);
        assert!(d.utility > 0.0);
        assert_eq!((sel.shard, sel.user), (Some(2), Some(9)));
        // Ring is reset after a drain; the flight recorder is not.
        assert!(shard.obs_mut().drain_spans(usize::MAX).0.is_empty());
        assert_eq!(trees(&shard.obs.flight).iter().map(|t| t.trace).collect::<Vec<_>>(), [0xABCD]);
    }

    /// One publication matched to two subscribers on the same shard arrives
    /// as two ingests sharing a content and trace id; each subscriber's
    /// selection must finish its own trace and time its own latency.
    #[test]
    fn fan_out_on_one_shard_keeps_every_subscribers_select_span() {
        let cfg = ServerConfig { trace_capacity: 64, ..ServerConfig::default() };
        let mut shard = ShardState::new(0, cfg);
        for user in [9, 10] {
            shard.ingest(UserId::new(user), item(1, user, 0.0), Instant::now(), Some(0xFA));
        }
        let out = shard.run_round();
        assert_eq!(out.selected.len(), 2, "both subscribers are delivered");
        let latency = shard.stats().histogram_merged("richnote_selection_latency_us");
        assert_eq!(latency.count(), 2, "one latency sample per subscriber");
        let select_users = |spans: &[SpanRecord]| -> Vec<Option<u64>> {
            spans.iter().filter(|s| s.stage == SpanStage::Select).map(|s| s.user).collect()
        };
        let (spans, _) = shard.obs_mut().drain_spans(usize::MAX);
        assert_eq!(select_users(&spans), vec![Some(9), Some(10)]);
        assert_eq!(spans.iter().filter(|s| s.stage == SpanStage::Serialize).count(), 2);
        let flight: Vec<SpanRecord> =
            trees(&shard.obs.flight).into_iter().flat_map(|t| t.spans).collect();
        assert_eq!(select_users(&flight), vec![Some(9), Some(10)]);
    }

    #[test]
    fn sampler_discards_unlucky_traces_but_keeps_anomalies() {
        let rate = richnote_obs::SampleRate::one_in(1_000_000);
        let unlucky = (1u64..).find(|&t| !rate.keeps(t)).unwrap();
        // One traced publication on a real shard at 1/1M under `data_grant`.
        let run = |data_grant: u64| {
            let cfg = ServerConfig {
                trace_capacity: 64,
                trace_sample: rate,
                data_grant,
                ..ServerConfig::default()
            };
            let mut shard = ShardState::new(0, cfg);
            shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), Some(unlucky));
            let level = shard.run_round().selected[0].2;
            let (spans, dropped) = shard.obs_mut().drain_spans(usize::MAX);
            (level, spans, dropped, trees(&shard.obs.flight))
        };
        // Roomy budget → a high level → a normal trace → sampled away.
        let (level, spans, dropped, flight) = run(400_000);
        assert!(level > 1);
        assert!(spans.is_empty(), "a sampled-out normal trace must leave no spans");
        assert_eq!((dropped, flight.len()), (0, 0));
        // Starvation budget (metadata fits, no preview) → level 1 →
        // anomalous → kept in ring and flight despite the rate.
        let (level, spans, _, flight) = run(300);
        let stages: Vec<_> = spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![SpanStage::Queue, SpanStage::Select, SpanStage::Serialize]);
        assert!(spans.iter().all(|s| s.trace == unlucky));
        assert_eq!((level, spans[1].decision.as_ref().map(|d| d.level)), (1, Some(1)));
        assert_eq!(flight.len(), 1);
        assert!(flight[0].is_anomalous());
    }

    #[test]
    fn flight_recorder_outlives_a_panicked_worker() {
        let cfg = ServerConfig {
            trace_capacity: 64,
            faults: FaultPlan {
                shard_panic: Some(ShardPanicFault { shard: 0, round: 1 }),
                ..FaultPlan::none()
            },
            ..ServerConfig::default()
        };
        let worker = ShardWorker::spawn(0, cfg, None);
        worker.queue.push(ShardMsg::Ingest {
            user: UserId::new(1),
            item: item(1, 1, 0.0),
            received: Instant::now(),
            trace: Some(77),
        });
        // Round 0 completes the trace; round 1 trips the injected panic.
        tick(&worker, 1);
        let (tx, rx) = mpsc::channel();
        worker.queue.push(ShardMsg::Tick { rounds: 1, collect: false, reply: tx });
        assert!(rx.recv().is_err(), "the panicking tick never replies");
        for _ in 0..200 {
            if worker.is_dead() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(worker.is_dead());
        assert_eq!(trees(&worker.flight).iter().map(|t| t.trace).collect::<Vec<_>>(), [77]);
    }

    /// A NaN popularity (the binary codec carries any bit pattern) must
    /// neither outrank a real item nor poison the utility sum.
    #[test]
    fn nan_popularity_scores_zero() {
        let cfg = ServerConfig { data_grant: 300, ..ServerConfig::default() };
        let mut shard = ShardState::new(0, cfg);
        let mut nan = item(2, 1, 0.0);
        nan.features.track_popularity = f64::NAN;
        assert_eq!(content_utility(&nan), 0.0);
        shard.ingest(UserId::new(1), item(1, 1, 0.0), Instant::now(), None);
        shard.ingest(UserId::new(1), nan, Instant::now(), None);
        let out = shard.run_round();
        let picked: Vec<u64> = out.selected.iter().map(|&(_, c, _)| c.value()).collect();
        assert_eq!(picked, vec![1], "the finite item wins the one slot");
        assert!(shard.stats().gauge_total("richnote_utility_total").is_finite());
    }

    #[test]
    fn injected_panic_is_contained() {
        let cfg = ServerConfig {
            faults: FaultPlan {
                shard_panic: Some(ShardPanicFault { shard: 0, round: 0 }),
                ..FaultPlan::none()
            },
            ..ServerConfig::default()
        };
        let worker = ShardWorker::spawn(0, cfg, None);
        let (tx, rx) = mpsc::channel();
        worker.queue.push(ShardMsg::Tick { rounds: 1, collect: false, reply: tx });
        // The worker dies before replying; the sender is dropped, so recv
        // errors out instead of hanging.
        assert!(rx.recv().is_err());
        // Give the thread a moment to finish unwinding.
        for _ in 0..100 {
            if worker.is_dead() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(worker.is_dead());
    }
}
