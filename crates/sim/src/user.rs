//! The single-user round loop: Algorithm 2 driven end-to-end for one user
//! over the evaluation horizon, as a merge walk of the user's
//! arrival-sorted items with the round ticks. For one user those are the
//! only events, so no event queue is needed.

use crate::cost::EnergyCost;
use crate::metrics::{UserMetrics, MAX_LEVEL};
use crate::simulator::{NetworkKind, SimulationConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use richnote_core::content::ContentItem;
use richnote_core::ids::{ContentId, UserId};
use richnote_core::quality::CohortLedger;
use richnote_core::scheduler::{NetSignal, QueuedNotification, RoundContext};
use richnote_core::utility::DurationUtility;
use richnote_core::Policy;
use richnote_energy::battery::{energy_grant, BatteryTrace, BatteryTraceConfig};
use richnote_energy::model::NetworkEnergyModel;
use richnote_net::connectivity::{CellOnly, ConnectivitySchedule};
use richnote_net::diurnal::DiurnalConfig;
use richnote_net::markov::{MarkovConnectivity, NetworkState};
use std::collections::HashMap;

/// Simulates one user through all rounds and returns their metrics.
///
/// `items` must all belong to `user` and be sorted by arrival time (as
/// [`richnote_trace::generator::Trace::items`] is); `content_utility`
/// supplies `Uc(i)` (e.g. a trained random forest). The user's
/// [`CohortLedger`] observes every round and lands in
/// [`UserMetrics::quality`].
pub(crate) fn simulate_user(
    user: UserId,
    items: &[&ContentItem],
    content_utility: &(dyn Fn(&ContentItem) -> f64 + Sync),
    cfg: &SimulationConfig,
) -> UserMetrics {
    debug_assert!(
        items.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "simulate_user needs items sorted by arrival"
    );
    let mut metrics = UserMetrics::new(user);
    metrics.arrived = items.len();
    metrics.clicked_total = items.iter().filter(|i| i.interaction.is_click()).count();

    // Per-user deterministic randomness: connectivity, battery phase and
    // (optionally) personalized taste.
    let user_seed = cfg.seed ^ user.value().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SmallRng::seed_from_u64(user_seed);

    let ladder = if cfg.taste_spread > 0.0 {
        // Scale the duration-utility slope by a per-user lognormal factor.
        let z = {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let factor = (cfg.taste_spread * z).exp();
        let mut spec = cfg.presentation.clone();
        spec.duration_utility = match spec.duration_utility {
            DurationUtility::Logarithmic { a, b } => {
                DurationUtility::Logarithmic { a: a * factor, b: b * factor }
            }
            DurationUtility::Polynomial { a, b, d_max } => {
                DurationUtility::Polynomial { a: a * factor, b, d_max }
            }
            DurationUtility::RisingPolynomial { a, b, d_max } => {
                DurationUtility::RisingPolynomial { a: a * factor, b, d_max }
            }
        };
        spec.ladder()
    } else {
        cfg.presentation.ladder()
    };
    // One shared ladder per user; each arrival enqueues an `Arc` handle.
    let ladder = std::sync::Arc::new(ladder);
    let mut scheduler = cfg.policy.build();

    let battery = BatteryTrace::synthesize(
        &BatteryTraceConfig { phase_hours: (user.value() % 24) as f64, ..cfg.battery },
        cfg.rounds,
    );
    let mut cell_only = CellOnly::sporadic(match cfg.network {
        NetworkKind::CellSporadic(p) => p,
        _ => 1.0,
    });
    let mut markov = MarkovConnectivity::paper_default(NetworkState::Cell);
    let mut diurnal =
        DiurnalConfig { phase_hours: (user.value() % 5) as f64 - 2.0, ..DiurnalConfig::default() }
            .synthesize(&mut rng, cfg.rounds);
    // Scenario-pack rhythms are synthesized only for their own network
    // kind so the RNG stream of the existing kinds is untouched.
    let scenario_phase = (user.value() % 5) as f64 - 2.0;
    let mut scenario = match cfg.network {
        NetworkKind::CommuteFlaky => {
            Some(crate::scenarios::commute_flaky_trace(&mut rng, cfg.rounds, scenario_phase))
        }
        NetworkKind::EveningWifi => {
            Some(crate::scenarios::evening_wifi_trace(&mut rng, cfg.rounds, scenario_phase))
        }
        NetworkKind::MassEvent => {
            Some(crate::scenarios::mass_event_trace(&mut rng, cfg.rounds, scenario_phase))
        }
        _ => None,
    };

    let click_time: HashMap<ContentId, f64> =
        items.iter().filter_map(|i| i.interaction.click_time().map(|t| (i.id, t))).collect();

    let enqueue = |scheduler: &mut dyn Policy, item: &ContentItem| {
        let uc = content_utility(item).clamp(0.0, 1.0);
        scheduler.enqueue(QueuedNotification {
            item: item.clone(),
            ladder: ladder.clone(),
            content_utility: uc,
            enqueued_at: item.arrival,
        });
    };

    // Round r fires at the *end* of its window, `(r + 1) · round_secs`,
    // and every item that has arrived by then, the closing instant
    // included, is queued before it selects.
    let mut ledger = CohortLedger::new();
    let mut pending = items.iter().peekable();
    for round in 0..cfg.rounds {
        let now = (round + 1) as f64 * cfg.round_secs;
        while let Some(item) = pending.next_if(|i| i.arrival <= now) {
            enqueue(&mut *scheduler, item);
        }
        let state = match cfg.network {
            NetworkKind::Markov => markov.state_for_round(round, &mut rng),
            NetworkKind::Diurnal => diurnal.state_for_round(round, &mut rng),
            NetworkKind::CommuteFlaky | NetworkKind::EveningWifi | NetworkKind::MassEvent => {
                scenario
                    .as_mut()
                    .expect("scenario trace synthesized for its kind")
                    .state_for_round(round, &mut rng)
            }
            _ => cell_only.state_for_round(round, &mut rng),
        };
        let model = match state {
            NetworkState::Wifi => NetworkEnergyModel::wifi(),
            _ => NetworkEnergyModel::cellular(),
        };
        let cost = EnergyCost(model);
        let grant = energy_grant(battery.fraction_at(round), cfg.kappa);
        let link_capacity = cfg.link.capacity(state, cfg.round_secs);
        let ctx = RoundContext::builder(&cost)
            .round(round)
            .now(now)
            .round_secs(cfg.round_secs)
            .online(state.is_online())
            .link_capacity(link_capacity)
            .data_grant(cfg.theta_bytes)
            .energy_grant(grant)
            .net(NetSignal::observed(state))
            .build();
        let delivered = scheduler.select_round(&ctx, &mut ledger);

        let mut round_bytes = 0u64;
        for d in &delivered {
            metrics.delivered += 1;
            metrics.bytes_delivered += d.size;
            round_bytes += d.size;
            metrics.total_utility += d.utility;
            metrics.energy_joules += d.energy;
            let delay = d.queuing_delay();
            metrics.delay_sum_secs += delay;
            metrics.delay_histogram.record_us((delay * 1e6) as u64);
            let lvl = (d.level as usize).min(MAX_LEVEL - 1);
            metrics.level_histogram[lvl] += 1;
            if let Some(&t) = click_time.get(&d.content) {
                metrics.clicked_utility += d.utility;
                if d.delivered_at <= t {
                    metrics.delivered_before_click += 1;
                }
            }
        }
        metrics.session_energy_joules += model.session_energy(round_bytes);
        if cfg.record_backlog {
            metrics.backlog_series.push(scheduler.backlog());
        }
    }
    // Items arriving after the last round stay queued as backlog.
    for item in pending {
        enqueue(&mut *scheduler, item);
    }

    metrics.final_backlog = scheduler.backlog();
    metrics.level_histogram[0] = metrics.arrived.saturating_sub(metrics.delivered);
    metrics.quality = ledger;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{PolicyKind, SimulationConfig};
    use richnote_core::content::{ContentFeatures, ContentKind, Interaction};
    use richnote_core::ids::{AlbumId, ArtistId, TrackId};

    fn item(id: u64, arrival: f64, clicked: bool) -> ContentItem {
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
            interaction: if clicked {
                Interaction::Clicked { at: arrival + 7_200.0 }
            } else {
                Interaction::Hovered
            },
        }
    }

    fn base_cfg(policy: PolicyKind) -> SimulationConfig {
        SimulationConfig {
            policy,
            rounds: 24,
            theta_bytes: 1_000_000,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn generous_budget_delivers_everything() {
        let items: Vec<ContentItem> =
            (0..10).map(|i| item(i, i as f64 * 1_000.0, i % 2 == 0)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = base_cfg(PolicyKind::richnote_default());
        let uc = |_: &ContentItem| 0.8;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.arrived, 10);
        assert_eq!(m.delivered, 10);
        assert_eq!(m.final_backlog, 0);
        assert!(m.total_utility > 0.0);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_delivers_nothing() {
        let items: Vec<ContentItem> = (0..5).map(|i| item(i, 100.0, false)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = SimulationConfig { theta_bytes: 0, rounds: 24, ..SimulationConfig::default() };
        let uc = |_: &ContentItem| 0.8;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.final_backlog, 5);
        assert_eq!(m.level_histogram[0], 5);
    }

    #[test]
    fn recall_counts_only_pre_click_deliveries() {
        // One clicked item, delivered within the first round (click is two
        // hours after arrival, delivery at the end of the first hour).
        let items = [item(0, 10.0, true)];
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = base_cfg(PolicyKind::Fifo { level: 1 });
        let uc = |_: &ContentItem| 0.5;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.clicked_total, 1);
        assert_eq!(m.delivered_before_click, 1);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(), 1.0);
    }

    #[test]
    fn delays_are_at_least_the_round_remainder() {
        let items = [item(0, 1_800.0, false)];
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = base_cfg(PolicyKind::Util { level: 1 });
        let uc = |_: &ContentItem| 0.5;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 1);
        // Arrived mid-round, delivered at the 3600 s tick plus the paced
        // transfer time of the 200-byte metadata payload.
        assert!(m.mean_delay_secs() >= 1_800.0);
        assert!(m.mean_delay_secs() < 1_801.0, "{}", m.mean_delay_secs());
    }

    #[test]
    fn fixed_level_histogram_is_concentrated() {
        let items: Vec<ContentItem> = (0..6).map(|i| item(i, 0.0, false)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = base_cfg(PolicyKind::Util { level: 3 });
        let uc = |_: &ContentItem| 0.5;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.level_histogram[3], m.delivered);
    }

    #[test]
    fn diurnal_network_blocks_overnight_rounds() {
        // A single item arriving at 01:00 (inside the sleep window) cannot
        // be delivered until the device comes back online around 07:00.
        let items = [item(0, 3_600.0, false)];
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = SimulationConfig {
            network: NetworkKind::Diurnal,
            rounds: 24,
            theta_bytes: 1_000_000,
            ..SimulationConfig::default()
        };
        let uc = |_: &ContentItem| 0.9;
        // User 2 has diurnal phase 0 (sleep window covers hours 0–7); the
        // run is fully deterministic given the user seed.
        let m = simulate_user(UserId::new(2), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 1);
        // Delay spans the remaining sleep window (several hours), far more
        // than the sub-hour delay of an always-on link.
        assert!(
            m.mean_delay_secs() > 2.0 * 3_600.0,
            "delay {} should span the sleep window",
            m.mean_delay_secs()
        );
    }

    #[test]
    fn taste_spread_diversifies_per_user_utilities() {
        let items: Vec<ContentItem> = (0..20).map(|i| item(i, 0.0, false)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.8;
        let run = |spread: f64, user: u64| {
            let cfg = SimulationConfig {
                taste_spread: spread,
                rounds: 24,
                theta_bytes: 100_000_000,
                ..SimulationConfig::default()
            };
            simulate_user(UserId::new(user), &refs, &uc, &cfg).total_utility
        };
        // Without personalization every user realizes identical utility.
        assert_eq!(run(0.0, 1), run(0.0, 2));
        // With personalization, users differ.
        assert_ne!(run(0.4, 1), run(0.4, 2));
    }

    #[test]
    fn session_energy_is_bounded_by_item_energy() {
        let items: Vec<ContentItem> = (0..8).map(|i| item(i, 0.0, false)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = base_cfg(PolicyKind::richnote_default());
        let uc = |_: &ContentItem| 0.9;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert!(m.delivered > 0);
        assert!(m.session_energy_joules <= m.energy_joules + 1e-9);
    }

    #[test]
    fn arrival_at_the_closing_instant_makes_the_round() {
        let cfg = base_cfg(PolicyKind::Fifo { level: 1 });
        let items = [item(0, cfg.round_secs, false)];
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.5;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 1);
        // Round 0 closes at `round_secs` and delivers it at once; round 1
        // would have added a whole round of queuing delay.
        assert!(m.mean_delay_secs() < 1.0, "{}", m.mean_delay_secs());
    }

    #[test]
    fn arrivals_after_the_last_round_are_backlog() {
        let cfg = base_cfg(PolicyKind::richnote_default());
        let horizon = cfg.rounds as f64 * cfg.round_secs;
        let items = [item(0, 10.0, false), item(1, horizon + 1.0, false)];
        let refs: Vec<&ContentItem> = items.iter().collect();
        let uc = |_: &ContentItem| 0.8;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.arrived, 2);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.final_backlog, 1);
        assert_eq!(m.level_histogram[0], 1);
    }

    #[test]
    fn zero_rounds_leave_everything_queued() {
        let items: Vec<ContentItem> = (0..4).map(|i| item(i, i as f64 * 10.0, false)).collect();
        let refs: Vec<&ContentItem> = items.iter().collect();
        let cfg = SimulationConfig { rounds: 0, ..base_cfg(PolicyKind::richnote_default()) };
        let uc = |_: &ContentItem| 0.8;
        let m = simulate_user(UserId::new(1), &refs, &uc, &cfg);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.final_backlog, 4);
        assert_eq!(m.level_histogram[0], 4);
    }
}
