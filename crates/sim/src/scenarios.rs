//! Deterministic scenario pack: named connectivity/battery regimes that
//! stress the adaptive delivery path, each emitting a machine-readable
//! report with utility-per-MB and shed-rate.
//!
//! Four scenarios ship with the pack:
//!
//! * `commute-flaky` — flaky cellular during commute windows, cell
//!   workdays, home WiFi evenings; the regime where predicting flaky
//!   rounds and capping the ladder pays off most.
//! * `evening-wifi` — sporadic daytime cellular followed by a stable
//!   evening WiFi window; the whole cohort surges online at once and
//!   drains its backlog.
//! * `mass-event` — all-day cellular with a congested evening event
//!   window where most rounds draw Off.
//! * `battery-critical` — the paper's Markov network, but a cohort with
//!   heavy drain and a short overnight charge window, so energy grants
//!   (not data) bind selection.
//!
//! Every scenario is fully deterministic given its seed: same seed, same
//! report bytes. The `scenario-smoke` CI step relies on that.

use crate::experiments::{EnvConfig, ExperimentEnv};
use crate::metrics::{AggregateMetrics, MAX_LEVEL};
use crate::simulator::{NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
use rand::Rng;
use richnote_core::paper;
use richnote_energy::battery::BatteryTraceConfig;
use richnote_net::connectivity::ScheduleFromTrace;
use richnote_net::markov::NetworkState;
use serde::{Deserialize, Serialize};

/// Names of every scenario in the pack, in canonical order.
pub const SCENARIO_NAMES: [&str; 4] =
    ["commute-flaky", "evening-wifi", "mass-event", "battery-critical"];

/// Static description of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Canonical name (accepted by `simulate --scenario`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Connectivity regime.
    pub network: NetworkKind,
    /// Battery regime.
    pub battery: BatteryTraceConfig,
    /// Weekly data budget in MB (kept binding for the simulated cohort).
    pub budget_mb: u64,
}

/// Looks up a scenario by name.
pub fn spec(name: &str) -> Option<ScenarioSpec> {
    let base_battery = BatteryTraceConfig::default();
    match name {
        "commute-flaky" => Some(ScenarioSpec {
            name: "commute-flaky",
            description: "flaky cell commutes, cell workday, WiFi evenings",
            network: NetworkKind::CommuteFlaky,
            battery: base_battery,
            budget_mb: 100,
        }),
        "evening-wifi" => Some(ScenarioSpec {
            name: "evening-wifi",
            description: "sporadic daytime cell, stable evening WiFi surge",
            network: NetworkKind::EveningWifi,
            battery: base_battery,
            budget_mb: 100,
        }),
        "mass-event" => Some(ScenarioSpec {
            name: "mass-event",
            description: "all-day cell, congested evening event window",
            network: NetworkKind::MassEvent,
            battery: base_battery,
            budget_mb: 100,
        }),
        "battery-critical" => Some(ScenarioSpec {
            name: "battery-critical",
            description: "Markov network, heavy drain, short charge window",
            network: NetworkKind::Markov,
            battery: BatteryTraceConfig {
                charge_start_hour: 2.0,
                charge_end_hour: 5.0,
                drain_per_hour: 0.15,
                ..base_battery
            },
            budget_mb: 10,
        }),
        _ => None,
    }
}

/// Environment scale for a scenario run. Quick mode trades cohort size
/// and horizon for runtime and is what CI smoke uses.
fn env_config(quick: bool) -> EnvConfig {
    if quick {
        EnvConfig {
            seed: 2015,
            n_users: 60,
            top_users: 24,
            mean_notifications_per_user_day: 60.0,
            days: 2,
        }
    } else {
        EnvConfig {
            seed: 2015,
            n_users: 150,
            top_users: 60,
            mean_notifications_per_user_day: 60.0,
            days: 7,
        }
    }
}

/// Builds the [`SimulationConfig`] for a scenario/policy pair.
fn simulation_config(s: &ScenarioSpec, policy: PolicyKind, quick: bool) -> SimulationConfig {
    let env = env_config(quick);
    SimulationConfig {
        policy,
        network: s.network,
        rounds: env.days * 24,
        theta_bytes: paper::theta_bytes_per_round(s.budget_mb),
        battery: s.battery,
        ..SimulationConfig::default()
    }
}

/// Machine-readable result of one scenario run — the regression surface
/// diffed by the `scenario-smoke` CI step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// Whether quick mode was used.
    pub quick: bool,
    /// Users simulated.
    pub users: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Notifications arrived.
    pub arrived: usize,
    /// Notifications delivered.
    pub delivered: usize,
    /// Bytes delivered.
    pub bytes_delivered: u64,
    /// Total delivered utility.
    pub total_utility: f64,
    /// Utility per delivered megabyte — the adaptive headline metric.
    pub utility_per_mb: f64,
    /// Fraction of arrived notifications never delivered (shed).
    pub shed_rate: f64,
    /// Mean queuing delay, seconds.
    pub mean_delay_secs: f64,
    /// Fraction of arrivals delivered at each ladder level (index 0 =
    /// never delivered).
    pub level_mix: [f64; MAX_LEVEL],
    /// Per-connectivity-cohort quality slices, in canonical cohort order
    /// (only cohorts that saw any deliveries or suppressions appear).
    pub cohorts: Vec<CohortReport>,
}

/// One connectivity cohort's slice of a scenario run, summed over
/// presentation levels — the simulator's counterpart of the daemon's
/// `richnote_utility_total` / `richnote_delivered_bytes_total` /
/// `richnote_suppressed_total` series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortReport {
    /// Cohort label (`unknown` / `offline` / `cell` / `wifi`).
    pub connectivity: String,
    /// Deliveries into this cohort.
    pub delivered: u64,
    /// Bytes delivered into this cohort.
    pub bytes: u64,
    /// Combined utility delivered into this cohort.
    pub utility: f64,
    /// Utility per delivered megabyte within the cohort (0 when no bytes).
    pub utility_per_mb: f64,
    /// Notification-rounds suppressed while the cohort applied (queued
    /// but nothing deliverable).
    pub suppressed: u64,
}

impl ScenarioReport {
    /// Derives a report from aggregate metrics.
    fn from_aggregate(
        scenario: &str,
        policy: &PolicyKind,
        quick: bool,
        rounds: u64,
        agg: &AggregateMetrics,
    ) -> Self {
        let mb = agg.bytes_delivered as f64 / 1e6;
        Self {
            scenario: scenario.to_string(),
            policy: policy.name(),
            quick,
            users: agg.users,
            rounds,
            arrived: agg.arrived,
            delivered: agg.delivered,
            bytes_delivered: agg.bytes_delivered,
            total_utility: agg.total_utility,
            utility_per_mb: if mb > 0.0 { agg.total_utility / mb } else { 0.0 },
            shed_rate: if agg.arrived > 0 {
                agg.final_backlog as f64 / agg.arrived as f64
            } else {
                0.0
            },
            mean_delay_secs: agg.mean_delay_secs(),
            level_mix: agg.level_mix(),
            cohorts: cohort_reports(agg),
        }
    }
}

/// Collapses the aggregate's quality ledger to per-cohort rows.
fn cohort_reports(agg: &AggregateMetrics) -> Vec<CohortReport> {
    use richnote_core::quality::ConnectivityCohort;
    let suppressed: Vec<(ConnectivityCohort, u64)> = agg.quality.suppressed_cells().collect();
    ConnectivityCohort::ALL
        .into_iter()
        .filter_map(|cohort| {
            let mut r = CohortReport {
                connectivity: cohort.as_str().to_string(),
                delivered: 0,
                bytes: 0,
                utility: 0.0,
                utility_per_mb: 0.0,
                suppressed: suppressed.iter().find(|(c, _)| *c == cohort).map_or(0, |(_, n)| *n),
            };
            for cell in agg.quality.cells().filter(|c| c.connectivity == cohort) {
                r.delivered += cell.delivered;
                r.bytes += cell.bytes;
                r.utility += cell.utility;
            }
            if r.bytes > 0 {
                r.utility_per_mb = r.utility / (r.bytes as f64 / 1e6);
            }
            (r.delivered > 0 || r.suppressed > 0).then_some(r)
        })
        .collect()
}

/// Runs one named scenario under `policy` and returns its report, or
/// `None` for an unknown scenario name.
pub fn run_scenario(name: &str, policy: PolicyKind, quick: bool) -> Option<ScenarioReport> {
    let s = spec(name)?;
    let env_cfg = env_config(quick);
    let env = ExperimentEnv::build(env_cfg);
    let cfg = simulation_config(&s, policy, quick);
    let rounds = cfg.rounds;
    let sim = PopulationSim::new(env.trace.clone(), env.utility(), cfg);
    let (agg, _) = sim.run(&env.users);
    Some(ScenarioReport::from_aggregate(s.name, &policy, quick, rounds, &agg))
}

/// Runs the whole pack under `policy` in canonical order.
pub fn run_all(policy: PolicyKind, quick: bool) -> Vec<ScenarioReport> {
    SCENARIO_NAMES
        .iter()
        .map(|n| run_scenario(n, policy, quick).expect("pack names are valid"))
        .collect()
}

// --- Per-user connectivity synthesis for the scenario network kinds ---
//
// Each synthesizer produces a replayable per-round state trace from the
// user's seeded RNG, so runs are deterministic per (seed, user).

fn hour_of(round: u64, phase_hours: f64) -> f64 {
    ((round as f64 + phase_hours) % 24.0 + 24.0) % 24.0
}

/// Commute flaky-cell: overnight Off, flaky cellular in both commute
/// windows, moderately flaky cellular across the workday, WiFi evenings.
pub fn commute_flaky_trace<R: Rng>(
    rng: &mut R,
    rounds: u64,
    phase_hours: f64,
) -> ScheduleFromTrace {
    let states = (0..rounds)
        .map(|r| {
            let h = hour_of(r, phase_hours);
            if h < 6.0 {
                NetworkState::Off
            } else if h < 9.0 || (17.0..19.0).contains(&h) {
                // Commute: tunnels and dead zones — 40% of rounds drop.
                if rng.gen_bool(0.4) {
                    NetworkState::Off
                } else {
                    NetworkState::Cell
                }
            } else if h < 17.0 {
                // Mobile workday on cellular with occasional outages.
                if rng.gen_bool(0.15) {
                    NetworkState::Off
                } else {
                    NetworkState::Cell
                }
            } else {
                // Evening at home: WiFi, rare fallback to cellular.
                if rng.gen_bool(0.05) {
                    NetworkState::Cell
                } else {
                    NetworkState::Wifi
                }
            }
        })
        .collect();
    ScheduleFromTrace::new(states, NetworkState::Cell)
}

/// Evening-WiFi surge: overnight Off, sporadic daytime cellular, then a
/// stable WiFi window every evening.
pub fn evening_wifi_trace<R: Rng>(rng: &mut R, rounds: u64, phase_hours: f64) -> ScheduleFromTrace {
    let states = (0..rounds)
        .map(|r| {
            let h = hour_of(r, phase_hours);
            if !(7.0..23.0).contains(&h) {
                NetworkState::Off
            } else if h < 18.0 {
                if rng.gen_bool(0.7) {
                    NetworkState::Cell
                } else {
                    NetworkState::Off
                }
            } else {
                NetworkState::Wifi
            }
        })
        .collect();
    ScheduleFromTrace::new(states, NetworkState::Cell)
}

/// Mass-event congestion: always-on cellular except a nightly event
/// window where the cell is congested and most rounds draw Off.
pub fn mass_event_trace<R: Rng>(rng: &mut R, rounds: u64, phase_hours: f64) -> ScheduleFromTrace {
    let states = (0..rounds)
        .map(|r| {
            let h = hour_of(r, phase_hours);
            let p_off = if (18.0..22.0).contains(&h) { 0.7 } else { 0.05 };
            if rng.gen_bool(p_off) {
                NetworkState::Off
            } else {
                NetworkState::Cell
            }
        })
        .collect();
    ScheduleFromTrace::new(states, NetworkState::Cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_json;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn every_spec_resolves_and_unknown_does_not() {
        for name in SCENARIO_NAMES {
            let s = spec(name).expect("pack name must resolve");
            assert_eq!(s.name, name);
        }
        assert!(spec("rush-hour").is_none());
    }

    #[test]
    fn traces_cover_the_horizon_and_follow_the_rhythm() {
        let mut rng = SmallRng::seed_from_u64(9);
        let commute = commute_flaky_trace(&mut rng, 48, 0.0);
        assert_eq!(commute.len(), 48);
        let evening = evening_wifi_trace(&mut rng, 48, 0.0);
        // Hours 18..23 are always WiFi in the evening-wifi rhythm.
        for r in [18u64, 19, 20, 42, 43] {
            assert_eq!(evening.peek(r), NetworkState::Wifi, "round {r}");
        }
        for r in [0u64, 3, 24, 26] {
            assert_eq!(evening.peek(r), NetworkState::Off, "round {r}");
        }
        let event = mass_event_trace(&mut rng, 168, 0.0);
        let event_off = (0..168u64)
            .filter(|&r| (18.0..22.0).contains(&hour_of(r, 0.0)))
            .filter(|&r| event.peek(r) == NetworkState::Off)
            .count();
        assert!(event_off > 10, "event window should be mostly congested, {event_off} off");
    }

    #[test]
    fn same_seed_scenario_reports_are_byte_identical() {
        let a = run_scenario("commute-flaky", PolicyKind::adaptive_default(), true).unwrap();
        let b = run_scenario("commute-flaky", PolicyKind::adaptive_default(), true).unwrap();
        assert_eq!(to_json(&a), to_json(&b));
    }

    #[test]
    fn adaptive_beats_static_richnote_on_commute_utility_per_mb() {
        let adaptive = run_scenario("commute-flaky", PolicyKind::adaptive_default(), true).unwrap();
        let fixed = run_scenario("commute-flaky", PolicyKind::richnote_default(), true).unwrap();
        assert!(
            adaptive.utility_per_mb >= fixed.utility_per_mb,
            "adaptive {} must be at least static {}",
            adaptive.utility_per_mb,
            fixed.utility_per_mb
        );
    }

    #[test]
    fn whole_pack_runs_under_both_policies() {
        for policy in [PolicyKind::richnote_default(), PolicyKind::adaptive_default()] {
            let reports = run_all(policy, true);
            assert_eq!(reports.len(), SCENARIO_NAMES.len());
            for r in &reports {
                assert!(r.arrived > 0, "{}/{} produced no arrivals", r.scenario, r.policy);
                assert!(r.delivered > 0, "{}/{} delivered nothing", r.scenario, r.policy);
                assert!((0.0..=1.0).contains(&r.shed_rate), "{}", r.shed_rate);
                assert!(!r.cohorts.is_empty(), "{}/{} has no cohort rows", r.scenario, r.policy);
                let delivered: u64 = r.cohorts.iter().map(|c| c.delivered).sum();
                assert_eq!(delivered, r.delivered as u64, "cohorts must cover every delivery");
                let bytes: u64 = r.cohorts.iter().map(|c| c.bytes).sum();
                assert_eq!(bytes, r.bytes_delivered, "cohorts must cover every byte");
            }
        }
    }

    #[test]
    fn battery_critical_binds_energy() {
        let s = spec("battery-critical").unwrap();
        // Three-hour charge window and 15%/h drain: most of the day runs
        // below the 80% full-grant threshold.
        assert!(s.battery.drain_per_hour > BatteryTraceConfig::default().drain_per_hour);
    }
}
