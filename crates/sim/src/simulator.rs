//! Population-level simulation: run every user's round loop, in parallel,
//! and aggregate.
//!
//! The paper notes its solution "can potentially scale to a much larger
//! user base using a backend parallel platform since it can work in
//! rounds and independently for each user" — we exploit exactly that
//! independence with thread-parallel user simulation.

use crate::metrics::{AggregateMetrics, UserMetrics};
use crate::user::simulate_user;
use richnote_core::adaptive::{AdaptiveConfig, AdaptivePolicy};
use richnote_core::content::ContentItem;
use richnote_core::ids::UserId;
use richnote_core::lyapunov::LyapunovConfig;
use richnote_core::paper;
use richnote_core::presentation::AudioPresentationSpec;
use richnote_core::scheduler::{FifoScheduler, RichNoteConfig, RichNoteScheduler, UtilScheduler};
use richnote_core::Policy;
use richnote_energy::battery::BatteryTraceConfig;
use richnote_net::connectivity::LinkProfile;
use richnote_trace::generator::Trace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Which scheduling policy a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The RichNote Lyapunov + MCKP scheduler.
    RichNote(RichNoteConfig),
    /// FIFO at a fixed presentation level.
    Fifo {
        /// Fixed presentation level.
        level: u8,
    },
    /// Highest-utility-first at a fixed presentation level.
    Util {
        /// Fixed presentation level.
        level: u8,
    },
    /// Connectivity-aware adaptive RichNote: scales the data grant by a
    /// per-user EWMA throughput estimate and clamps the presentation
    /// ladder on predicted-offline / flaky-cell rounds.
    Adaptive(AdaptiveConfig),
}

impl PolicyKind {
    /// RichNote with the paper's default parameters.
    pub fn richnote_default() -> Self {
        PolicyKind::RichNote(RichNoteConfig::default())
    }

    /// RichNote with a specific Lyapunov `V` and `κ`.
    pub fn richnote_with(v: f64, kappa: f64) -> Self {
        PolicyKind::RichNote(RichNoteConfig {
            lyapunov: LyapunovConfig { v, kappa, initial_energy: kappa },
            ..RichNoteConfig::default()
        })
    }

    /// Adaptive with default estimator/threshold parameters.
    pub fn adaptive_default() -> Self {
        PolicyKind::Adaptive(AdaptiveConfig::default())
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::RichNote(_) => "RichNote".to_string(),
            PolicyKind::Fifo { level } => format!("FIFO(L{level})"),
            PolicyKind::Util { level } => format!("UTIL(L{level})"),
            PolicyKind::Adaptive(_) => "Adaptive".to_string(),
        }
    }

    /// Instantiates the policy behind the unified [`Policy`] interface.
    ///
    /// This is the single place the simulator maps configuration onto
    /// concrete schedulers; the per-user round loop is policy-agnostic.
    pub fn build(&self) -> Box<dyn Policy + Send> {
        match *self {
            PolicyKind::RichNote(rn_cfg) => {
                Box::new(RichNoteScheduler::builder().config(rn_cfg).build())
            }
            PolicyKind::Fifo { level } => {
                Box::new(FifoScheduler::builder().fixed_level(level).build())
            }
            PolicyKind::Util { level } => {
                Box::new(UtilScheduler::builder().fixed_level(level).build())
            }
            PolicyKind::Adaptive(a_cfg) => {
                Box::new(AdaptivePolicy::builder().config(a_cfg).build())
            }
        }
    }
}

/// Which connectivity model drives rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetworkKind {
    /// Always-on cellular.
    CellAlways,
    /// Sporadic cellular with the given per-round availability.
    CellSporadic(f64),
    /// The paper's WiFi/Cell/Off Markov chain (Sec. V-D3).
    Markov,
    /// A synthesized diurnal rhythm (overnight off, office/home WiFi,
    /// commute cellular) with per-user phase shifts.
    Diurnal,
    /// Scenario-pack rhythm: flaky cellular during commute windows, cell
    /// workdays, home WiFi evenings, overnight radio silence.
    CommuteFlaky,
    /// Scenario-pack rhythm: sporadic daytime cellular with a stable
    /// evening WiFi window (the whole cohort surges online at once).
    EveningWifi,
    /// Scenario-pack rhythm: all-day cellular with a congested mass-event
    /// window in the evening where most rounds draw Off.
    MassEvent,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Connectivity model.
    pub network: NetworkKind,
    /// Number of rounds (paper: 168 hourly rounds over one week).
    pub rounds: u64,
    /// Round length in seconds.
    pub round_secs: f64,
    /// Data grant per round, θ, bytes.
    pub theta_bytes: u64,
    /// Per-round energy budget κ, joules (drives `e(t)` grants).
    pub kappa: f64,
    /// Link bandwidth profile.
    pub link: LinkProfile,
    /// Battery trace configuration.
    pub battery: BatteryTraceConfig,
    /// Presentation ladder specification.
    pub presentation: AudioPresentationSpec,
    /// Per-user taste heterogeneity: the duration-utility slope is scaled
    /// by `exp(spread · z_u)` for a standard-normal per-user draw `z_u`,
    /// so some users value long previews more than others ("personalized
    /// for the user", Sec. I). Zero disables personalization.
    pub taste_spread: f64,
    /// Record the per-round backlog into
    /// [`crate::metrics::UserMetrics::backlog_series`] (costs memory
    /// proportional to rounds; used by the queue-stability experiment).
    pub record_backlog: bool,
    /// Base seed for per-user randomness.
    pub seed: u64,
}

impl SimulationConfig {
    /// One week of hourly rounds with the given weekly budget (MB) and
    /// policy, everything else at paper defaults.
    pub fn weekly(policy: PolicyKind, weekly_budget_mb: u64) -> Self {
        Self {
            policy,
            theta_bytes: paper::theta_bytes_per_round(weekly_budget_mb),
            ..Self::default()
        }
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            policy: PolicyKind::richnote_default(),
            network: NetworkKind::CellAlways,
            rounds: paper::ROUNDS_PER_WEEK,
            round_secs: paper::ROUND_SECS,
            theta_bytes: paper::theta_bytes_per_round(20),
            kappa: paper::KAPPA_JOULES_PER_ROUND,
            link: LinkProfile::paper_default(),
            battery: BatteryTraceConfig::default(),
            presentation: AudioPresentationSpec::paper_default(),
            taste_spread: 0.0,
            record_backlog: false,
            seed: 7,
        }
    }
}

/// Shared content-utility function type.
pub type UtilityFn = Arc<dyn Fn(&ContentItem) -> f64 + Send + Sync>;

/// A population simulation bound to a trace and a utility model.
pub struct PopulationSim {
    trace: Arc<Trace>,
    /// Each recipient's indices into `trace.items`, in arrival order.
    by_user: HashMap<UserId, Vec<usize>>,
    utility: UtilityFn,
    cfg: SimulationConfig,
}

impl PopulationSim {
    /// Creates a simulation over `trace` using `utility` for `Uc(i)`, and
    /// indexes the trace's items by recipient once for every [`Self::run`].
    pub fn new(trace: Arc<Trace>, utility: UtilityFn, cfg: SimulationConfig) -> Self {
        let mut by_user: HashMap<UserId, Vec<usize>> = HashMap::new();
        for (i, item) in trace.items.iter().enumerate() {
            by_user.entry(item.recipient).or_default().push(i);
        }
        Self { trace, by_user, utility, cfg }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.cfg
    }

    /// Runs the simulation for the given users in parallel and returns
    /// aggregate plus per-user metrics (per-user results in input order).
    pub fn run(&self, users: &[UserId]) -> (AggregateMetrics, Vec<UserMetrics>) {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let chunk = users.len().div_ceil(threads.max(1)).max(1);
        let cfg = &self.cfg;
        let utility = &self.utility;

        let mut per_user: Vec<UserMetrics> = Vec::with_capacity(users.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for batch in users.chunks(chunk) {
                handles.push(scope.spawn(move || {
                    batch
                        .iter()
                        .map(|&u| {
                            let items: Vec<&ContentItem> =
                                self.by_user.get(&u).map_or_else(Vec::new, |idx| {
                                    idx.iter().map(|&i| &self.trace.items[i]).collect()
                                });
                            simulate_user(u, &items, &**utility, cfg)
                        })
                        .collect::<Vec<UserMetrics>>()
                }));
            }
            for h in handles {
                per_user.extend(h.join().expect("user simulation thread panicked"));
            }
        });

        (AggregateMetrics::from_users(&per_user), per_user)
    }
}

/// Builds a utility function from a trained random forest over the paper's
/// feature vector.
pub fn forest_utility(forest: Arc<richnote_forest::forest::RandomForest>) -> UtilityFn {
    Arc::new(move |item: &ContentItem| forest.content_utility(&item.features.to_array()))
}

/// A constant-utility function (null model).
pub fn constant_utility(value: f64) -> UtilityFn {
    Arc::new(move |_: &ContentItem| value)
}

/// An oracle utility reading the ground truth (upper bound).
pub fn oracle_utility() -> UtilityFn {
    Arc::new(|item: &ContentItem| if item.interaction.is_click() { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use richnote_trace::generator::{TraceConfig, TraceGenerator};

    fn small_trace() -> Arc<Trace> {
        Arc::new(TraceGenerator::new(TraceConfig::small(3)).generate())
    }

    #[test]
    fn population_run_covers_requested_users() {
        let trace = small_trace();
        let users = trace.top_users(10);
        let sim = PopulationSim::new(
            trace.clone(),
            constant_utility(0.7),
            SimulationConfig { rounds: 48, theta_bytes: 1_000_000, ..SimulationConfig::default() },
        );
        let (agg, per_user) = sim.run(&users);
        assert_eq!(per_user.len(), 10);
        assert_eq!(agg.users, 10);
        let arrived: usize = users.iter().map(|&u| trace.items_for(u).count()).sum();
        assert_eq!(agg.arrived, arrived);
        assert!(agg.delivered > 0);
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let trace = small_trace();
        let users = trace.top_users(8);
        let cfg = SimulationConfig { rounds: 48, ..SimulationConfig::default() };
        let sim = PopulationSim::new(trace.clone(), constant_utility(0.5), cfg);
        let (a, ua) = sim.run(&users);
        let (b, ub) = sim.run(&users);
        assert_eq!(a, b);
        assert_eq!(ua, ub);
    }

    #[test]
    fn unknown_user_yields_empty_metrics() {
        let trace = small_trace();
        let sim = PopulationSim::new(
            trace,
            constant_utility(0.5),
            SimulationConfig { rounds: 24, ..SimulationConfig::default() },
        );
        let (agg, per_user) = sim.run(&[UserId::new(999_999)]);
        assert_eq!(per_user[0].arrived, 0);
        assert_eq!(agg.delivered, 0);
    }

    #[test]
    fn weekly_config_sets_theta() {
        let cfg = SimulationConfig::weekly(PolicyKind::Fifo { level: 2 }, 168);
        assert_eq!(cfg.theta_bytes, 1_000_000);
        assert_eq!(cfg.rounds, 168);
    }

    #[test]
    fn richnote_beats_baselines_on_utility_in_a_seeded_scenario() {
        let trace = small_trace();
        let users = trace.top_users(12);
        let budget_mb = 5;
        let mut utilities = Vec::new();
        for policy in [
            PolicyKind::richnote_default(),
            PolicyKind::Fifo { level: 3 },
            PolicyKind::Util { level: 3 },
        ] {
            let sim = PopulationSim::new(
                trace.clone(),
                constant_utility(0.6),
                SimulationConfig { rounds: 48, ..SimulationConfig::weekly(policy, budget_mb) },
            );
            let (agg, _) = sim.run(&users);
            utilities.push(agg.total_utility);
        }
        assert!(
            utilities[0] > utilities[1] && utilities[0] > utilities[2],
            "RichNote {} vs FIFO {} vs UTIL {}",
            utilities[0],
            utilities[1],
            utilities[2]
        );
    }
}
