//! A round visits only the users with something queued, and settles the
//! others later through [`Policy::idle_rounds`]. That must be invisible:
//! the reference here is the shard as it used to be — a plain map of
//! policies, every one of which runs `select_round` every round — and a
//! [`ShardState`] driven through the same random interleaving of ingests,
//! rounds, long idle stretches, checkpoints and restarts has to produce
//! the same [`RoundOutcome`] every round, byte-identical checkpoints, the
//! same backlog, and (once every user has been settled) the same
//! deterministic counters.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use richnote_core::adaptive::{AdaptiveConfig, AdaptivePolicy};
use richnote_core::content::{ContentFeatures, ContentKind, Interaction, SocialTie};
use richnote_core::presentation::AudioPresentationSpec;
use richnote_core::quality::QualitySample;
use richnote_core::scheduler::{
    DeliveredNotification, LinearCost, QueuedNotification, RichNoteConfig, RichNoteScheduler,
    RoundContext,
};
use richnote_core::{
    AdaptiveDecision, AlbumId, ArtistId, ContentId, ContentItem, Policy, PolicyCheckpoint,
    PolicyName, PresentationLadder, SelectDecision, SelectionObserver, TrackId, UserId,
    WrongPolicy,
};
use richnote_server::checkpoint::UserCheckpoint;
use richnote_server::shard::{content_utility, RoundOutcome};
use richnote_server::{RegistrySnapshot, ServerConfig, ShardCheckpoint, ShardState};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn item(id: u64, recipient: UserId, popularity: f64) -> ContentItem {
    ContentItem {
        id: ContentId::new(id),
        recipient,
        sender: None,
        kind: ContentKind::FriendFeed,
        track: TrackId::new(id),
        album: AlbumId::new(1),
        artist: ArtistId::new(1),
        arrival: 0.0,
        track_secs: 180.0,
        features: ContentFeatures {
            tie: SocialTie::Mutual,
            track_popularity: popularity,
            album_popularity: 0.5,
            artist_popularity: 0.7,
            weekend: false,
            night: false,
        },
        interaction: Interaction::NoActivity,
    }
}

/// The telemetry a policy can emit on a round in which its queue is empty
/// or stays blocked: what the shard exports as `richnote_adaptive_*` and
/// `richnote_suppressed_total`. Neither is checkpointed, so both sides
/// restart these from zero.
#[derive(Debug, Default, PartialEq)]
struct Telemetry {
    adapt_rounds: u64,
    adapt_grant_bytes: u64,
    adapt_grant_scaled: u64,
    adapt_capped: u64,
    adapt_offline_predicted: u64,
    suppressed: u64,
}

impl Telemetry {
    fn of(stats: &RegistrySnapshot) -> Self {
        Telemetry {
            adapt_rounds: stats.counter_total("richnote_adaptive_rounds_total"),
            adapt_grant_bytes: stats.counter_total("richnote_adaptive_grant_bytes_total"),
            adapt_grant_scaled: stats.counter_total("richnote_adaptive_grant_scaled_total"),
            adapt_capped: stats.counter_total("richnote_adaptive_capped_total"),
            adapt_offline_predicted: stats
                .counter_total("richnote_adaptive_offline_predicted_total"),
            suppressed: stats.counter_total("richnote_suppressed_total"),
        }
    }
}

impl SelectionObserver for Telemetry {
    fn on_select(&mut self, _: u64, _: ContentId, _: &SelectDecision) {}

    fn on_adapt(&mut self, _: u64, d: &AdaptiveDecision) {
        self.adapt_rounds += 1;
        self.adapt_grant_bytes += d.data_grant;
        self.adapt_grant_scaled += u64::from(d.grant_scaled);
        self.adapt_capped += u64::from(d.level_cap < u8::MAX);
        self.adapt_offline_predicted += u64::from(d.level_cap <= 1);
    }

    fn on_quality(&mut self, _: u64, sample: &QualitySample<'_>) {
        self.suppressed += sample.suppressed;
    }
}

/// What a shard builds its users' policies with.
type Factory = fn() -> Box<dyn Policy + Send>;

/// The visit-everyone shard: what `ShardState` must be indistinguishable
/// from.
struct Reference {
    cfg: ServerConfig,
    ladder: Arc<PresentationLadder>,
    factory: Factory,
    users: BTreeMap<UserId, Box<dyn Policy + Send>>,
    round: u64,
    ingested: u64,
    selected: u64,
    bytes_budgeted: u64,
    bytes_spent: u64,
    telemetry: Telemetry,
}

impl Reference {
    fn new(cfg: ServerConfig, factory: Factory) -> Self {
        Reference {
            cfg,
            ladder: Arc::new(AudioPresentationSpec::paper_default().ladder()),
            factory,
            users: BTreeMap::new(),
            round: 0,
            ingested: 0,
            selected: 0,
            bytes_budgeted: 0,
            bytes_spent: 0,
            telemetry: Telemetry::default(),
        }
    }

    fn ingest(&mut self, user: UserId, item: ContentItem) {
        self.users.entry(user).or_insert_with(self.factory).enqueue(QueuedNotification {
            enqueued_at: self.round as f64 * self.cfg.round_secs,
            ladder: Arc::clone(&self.ladder),
            content_utility: content_utility(&item),
            item,
        });
        self.ingested += 1;
    }

    fn run_round(&mut self) -> RoundOutcome {
        let ctx = RoundContext::builder(&self.cfg.cost)
            .round(self.round)
            .now(self.round as f64 * self.cfg.round_secs)
            .round_secs(self.cfg.round_secs)
            .link_capacity(self.cfg.link_capacity)
            .data_grant(self.cfg.data_grant)
            .energy_grant(self.cfg.energy_grant)
            .build();
        let mut outcome = RoundOutcome { round: self.round, selected: Vec::new(), bytes: 0 };
        for (&user, policy) in &mut self.users {
            self.bytes_budgeted += self.cfg.data_grant;
            for d in policy.select_round(&ctx, &mut self.telemetry) {
                outcome.bytes += d.size;
                outcome.selected.push((user, d.content, d.level));
            }
        }
        self.bytes_spent += outcome.bytes;
        self.selected += outcome.selected.len() as u64;
        self.round += 1;
        outcome
    }

    fn backlog(&self) -> usize {
        self.users.values().map(|p| p.backlog()).sum()
    }

    fn checkpoint(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            shard: 0,
            round: self.round,
            ingested: self.ingested,
            selected: self.selected,
            bytes_budgeted: self.bytes_budgeted,
            bytes_spent: self.bytes_spent,
            users: self
                .users
                .iter()
                .map(|(&user, p)| UserCheckpoint { user, scheduler: p.checkpoint() })
                .collect(),
        }
    }

    /// A restart: policies come back from the checkpoint, the telemetry
    /// that no checkpoint carries starts over.
    fn restart_from(&mut self, ck: ShardCheckpoint) {
        self.users = ck.users.into_iter().map(|u| (u.user, u.scheduler.restore())).collect();
        self.telemetry = Telemetry::default();
    }
}

/// One seeded case: `steps` random operations against both models.
fn differential(factory: Factory, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Grants that starve (a queue waits, and ages, until the roll-over
    // reaches a metadata's size), bind (metadata fits, previews wait) and
    // flow; a link slow enough that the adaptive policy scales the largest
    // grant down; an energy grant whose inexact adds take many rounds to
    // lift `P(t)` back over `κ`; a cost steep enough that deliveries push
    // `P(t)` under it.
    let cfg = ServerConfig::builder()
        .shards(1)
        .round_secs([0.25, 1.0, 3_600.0][rng.gen_range(0..3)])
        .data_grant([100, 300, 6_000, 150_000][rng.gen_range(0..4)])
        .link_capacity([40_000, 10_000_000][rng.gen_range(0..2)])
        .energy_grant([0.0, 0.1, 3_000.0][rng.gen_range(0..3)])
        .cost(LinearCost { fixed: 50.0, per_byte: 5e-3 })
        .build()
        .unwrap();
    let users = rng.gen_range(3..14u64);
    let mut shard = ShardState::with_policy(0, cfg.clone(), factory);
    let mut reference = Reference::new(cfg.clone(), factory);
    let mut next_id = 0u64;
    let publish = |shard: &mut ShardState,
                   reference: &mut Reference,
                   user: UserId,
                   id: u64,
                   popularity: f64| {
        shard.ingest(user, item(id, user, popularity), Instant::now(), None);
        reference.ingest(user, item(id, user, popularity));
    };
    let round = |shard: &mut ShardState, reference: &mut Reference| {
        assert_eq!(shard.run_round(), reference.run_round(), "seed {seed}");
        assert_eq!(shard.backlog(), reference.backlog(), "seed {seed}");
    };

    for _ in 0..rng.gen_range(20..50) {
        match rng.gen_range(0..10) {
            // A burst; sometimes one publication fanned out to two users.
            0..=3 => {
                for _ in 0..rng.gen_range(1..6) {
                    next_id += 1;
                    let popularity = rng.gen_range(0.05..1.0);
                    let user = UserId::new(rng.gen_range(0..users));
                    publish(&mut shard, &mut reference, user, next_id, popularity);
                    if rng.gen_bool(0.2) {
                        let other = UserId::new((user.value() + 1) % users);
                        publish(&mut shard, &mut reference, other, next_id, popularity);
                    }
                }
                assert_eq!(shard.backlog(), reference.backlog(), "seed {seed}");
            }
            4..=6 => round(&mut shard, &mut reference),
            // A stretch in which whoever has nothing queued idles.
            7 => {
                for _ in 0..rng.gen_range(0..500) {
                    round(&mut shard, &mut reference);
                }
            }
            8 => {
                let (ck, expected) = (shard.checkpoint(), reference.checkpoint());
                assert_eq!(
                    serde_json::to_string(&ck).unwrap(),
                    serde_json::to_string(&expected).unwrap(),
                    "seed {seed}: checkpoint at round {}",
                    expected.round
                );
            }
            // Kill and restart from what the shard itself wrote.
            _ => {
                let ck = shard.checkpoint();
                assert_eq!(ck, reference.checkpoint(), "seed {seed}");
                reference.restart_from(ck.clone());
                shard = ShardState::with_policy(0, cfg.clone(), factory).load(ck).unwrap();
                assert_eq!(shard.backlog(), reference.backlog(), "seed {seed}");
            }
        }
        let queued = reference.users.values().filter(|p| p.backlog() > 0).count();
        let stats = shard.stats();
        assert_eq!(stats.gauge_total("richnote_active_users"), queued as f64, "seed {seed}");
        assert_eq!(stats.gauge_total("richnote_backlog"), reference.backlog() as f64);
        assert_eq!(stats.gauge_total("richnote_users"), reference.users.len() as f64);
    }

    // An ingest settles its user, so one each settles everyone: from here
    // the deferred telemetry has to have caught up with the reference's.
    for u in 0..users {
        next_id += 1;
        publish(&mut shard, &mut reference, UserId::new(u), next_id, 0.5);
    }
    let stats = shard.stats();
    assert_eq!(Telemetry::of(&stats), reference.telemetry, "seed {seed}");
    assert_eq!(
        stats.counter_total("richnote_bytes_budgeted_total"),
        reference.bytes_budgeted,
        "seed {seed}"
    );
    round(&mut shard, &mut reference);
    assert_eq!(shard.checkpoint(), reference.checkpoint(), "seed {seed}");
}

const SEEDS_PER_POLICY: u64 = 40;

fn differential_cases(factory: Factory, salt: u64) {
    for seed in 0..SEEDS_PER_POLICY {
        differential(factory, salt << 32 | seed);
    }
}

// Six policies × 40 seeds = 240 cases: the four the registry builds, which
// are the ones the daemon runs, and two configured with queue expiry.

#[test]
fn registry_richnote_matches_the_visit_everyone_model() {
    differential_cases(PolicyName::RichNote.factory(), 1);
}

#[test]
fn registry_fifo_matches_the_visit_everyone_model() {
    differential_cases(PolicyName::Fifo.factory(), 2);
}

#[test]
fn registry_util_matches_the_visit_everyone_model() {
    differential_cases(PolicyName::Util.factory(), 3);
}

#[test]
fn registry_adaptive_matches_the_visit_everyone_model() {
    differential_cases(PolicyName::Adaptive.factory(), 4);
}

/// Queues that starve also age out: expiry runs inside the policy, on
/// visited users only, and has to keep the shard's backlog count honest.
fn expiring() -> RichNoteConfig {
    RichNoteConfig { max_age_secs: Some(40.0), ..RichNoteConfig::default() }
}

#[test]
fn richnote_with_expiry_matches_the_visit_everyone_model() {
    differential_cases(|| Box::new(RichNoteScheduler::builder().config(expiring()).build()), 5);
}

#[test]
fn adaptive_with_expiry_matches_the_visit_everyone_model() {
    differential_cases(
        || {
            let cfg = AdaptiveConfig { richnote: expiring(), ..AdaptiveConfig::default() };
            Box::new(AdaptivePolicy::builder().config(cfg).build())
        },
        6,
    );
}

static SELECT_ROUNDS: AtomicU64 = AtomicU64::new(0);
static BACKLOG_CALLS: AtomicU64 = AtomicU64::new(0);

/// RichNote, counting the calls whose number a round's cost is made of.
/// `idle_rounds` is left to the trait's default body — the sequential
/// loop — so this double also holds that body to the closed forms.
struct Counting(RichNoteScheduler);

impl Policy for Counting {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn enqueue(&mut self, n: QueuedNotification) {
        self.0.enqueue(n);
    }
    fn select_round(
        &mut self,
        ctx: &RoundContext<'_>,
        obs: &mut dyn SelectionObserver,
    ) -> Vec<DeliveredNotification> {
        SELECT_ROUNDS.fetch_add(1, Ordering::Relaxed);
        self.0.select_round(ctx, obs)
    }
    fn backlog(&self) -> usize {
        BACKLOG_CALLS.fetch_add(1, Ordering::Relaxed);
        self.0.backlog()
    }
    fn backlog_bytes(&self) -> u64 {
        self.0.backlog_bytes()
    }
    fn checkpoint(&self) -> PolicyCheckpoint {
        Policy::checkpoint(&self.0)
    }
    fn restore(ck: PolicyCheckpoint) -> Result<Self, WrongPolicy> {
        RichNoteScheduler::restore(ck).map(Counting)
    }
}

/// The complexity claim as a count: a round calls `select_round` once per
/// queued user, whatever the number of idle ones, and the per-tick stats
/// cut asks no policy for its backlog. The statics are this test's alone.
#[test]
fn a_round_costs_the_queued_users_and_stats_costs_none() {
    const USERS: u64 = 10_003;
    let cfg = ServerConfig::default();
    let mut shard = ShardState::with_policy(0, cfg.clone(), || {
        Box::new(Counting(RichNoteScheduler::builder().build()))
    });
    let mut plain = ShardState::new(0, cfg);
    for u in 0..USERS {
        put(&mut shard, u, u);
        put(&mut plain, u, u);
    }
    // The default grant delivers every single item: all users go idle.
    assert_eq!(shard.run_round().selected.len() as u64, USERS);
    assert_eq!(plain.run_round().selected.len() as u64, USERS);
    for _ in 0..5 {
        assert_eq!(shard.run_round(), plain.run_round());
    }

    for u in [17, 4_000, 9_999] {
        put(&mut shard, u, USERS + u);
        put(&mut plain, u, USERS + u);
    }
    SELECT_ROUNDS.store(0, Ordering::Relaxed);
    let out = shard.run_round();
    assert_eq!(SELECT_ROUNDS.load(Ordering::Relaxed), 3, "one select_round per queued user");
    assert_eq!(out, plain.run_round());
    assert_eq!(out.selected.len(), 3);

    BACKLOG_CALLS.store(0, Ordering::Relaxed);
    let stats = shard.stats();
    assert_eq!(BACKLOG_CALLS.load(Ordering::Relaxed), 0, "stats() walks no policy");
    assert_eq!(stats.gauge_total("richnote_users"), USERS as f64);
    assert_eq!(stats.gauge_total("richnote_active_users"), 0.0);
    assert_eq!(shard.backlog(), 0);
    // An ingest settles its user through the policy's own `idle_rounds`:
    // the default sequential body and RichNote's closed form agree on all
    // 10 000 skipped users.
    for u in 0..USERS {
        put(&mut shard, u, 2 * USERS + u);
        put(&mut plain, u, 2 * USERS + u);
    }
    assert_eq!(shard.checkpoint(), plain.checkpoint());
}

fn put(shard: &mut ShardState, user: u64, id: u64) {
    let user = UserId::new(user);
    shard.ingest(user, item(id, user, 0.8), Instant::now(), None);
}
