//! Cross-crate property-based tests (proptest) on the core invariants:
//! MCKP budget safety and near-optimality, ladder monotonicity after
//! Pareto pruning, Lyapunov queue boundedness, energy monotonicity and
//! Markov row-stochasticity.

use proptest::prelude::*;
use richnote::core::lyapunov::{LyapunovConfig, LyapunovState};
use richnote::core::mckp::{
    select_exact, select_fractional, select_greedy_with, GreedyOptions, MckpItem,
};
use richnote::core::presentation::{pareto_frontier, CandidatePresentation, PresentationLadder};
use richnote::energy::model::NetworkEnergyModel;
use richnote::net::markov::{MarkovConnectivity, NetworkState};

/// Strategy: a small MCKP item with strictly increasing sizes and
/// monotone concave-ish utilities.
fn mckp_item(id: usize) -> impl Strategy<Value = MckpItem> {
    (1usize..=4, 1u64..20, 0.01f64..1.0).prop_map(move |(levels, step, base)| {
        let mut size = 0u64;
        let mut util = 0.0f64;
        let pairs: Vec<(u64, f64)> = (0..levels)
            .map(|l| {
                size += step + l as u64;
                util += base / (l + 1) as f64;
                (size, util)
            })
            .collect();
        MckpItem::new(id, pairs)
    })
}

fn mckp_items() -> impl Strategy<Value = Vec<MckpItem>> {
    prop::collection::vec(0usize..1, 1..6).prop_flat_map(|slots| {
        slots.into_iter().enumerate().map(|(i, _)| mckp_item(i)).collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn greedy_never_exceeds_budget(items in mckp_items(), budget in 0u64..200) {
        for stop in [true, false] {
            let sel = select_greedy_with(
                &items,
                budget,
                GreedyOptions { stop_at_first_overflow: stop, ..Default::default() },
            );
            prop_assert!(sel.total_size <= budget);
            prop_assert!(sel.total_utility >= 0.0);
        }
    }

    #[test]
    fn greedy_matches_exact_within_one_upgrade(items in mckp_items(), budget in 0u64..120) {
        let greedy = select_greedy_with(
            &items,
            budget,
            GreedyOptions { stop_at_first_overflow: false, ..Default::default() },
        );
        let exact = select_exact(&items, budget);
        let frac = select_fractional(&items, budget);
        // Exact dominates greedy; the fractional bound dominates exact.
        prop_assert!(exact.total_utility + 1e-9 >= greedy.total_utility);
        prop_assert!(frac.utility_upper_bound() + 1e-9 >= exact.total_utility);
        // Greedy is within the last fractional upgrade of optimal
        // (Sec. IV's argument) for these monotone-concave instances.
        let gap_bound = frac.fractional.map_or(0.0, |f| f.utility / f.fraction.max(1e-12));
        prop_assert!(
            greedy.total_utility + gap_bound + 1e-6 >= exact.total_utility,
            "greedy {} + bound {} < exact {}", greedy.total_utility, gap_bound, exact.total_utility
        );
    }

    #[test]
    fn greedy_is_monotone_in_budget(items in mckp_items(), budget in 0u64..150) {
        let opts = GreedyOptions { stop_at_first_overflow: false, ..Default::default() };
        let a = select_greedy_with(&items, budget, opts);
        let b = select_greedy_with(&items, budget + 10, opts);
        prop_assert!(b.total_utility + 1e-12 >= a.total_utility);
    }

    #[test]
    fn pareto_frontier_is_strictly_monotone(
        raw in prop::collection::vec((1u64..10_000, 0.0f64..5.0), 0..40)
    ) {
        let cands: Vec<CandidatePresentation> = raw
            .iter()
            .enumerate()
            .map(|(i, &(size, utility))| CandidatePresentation { size, utility, label_id: i })
            .collect();
        let frontier = pareto_frontier(&cands);
        for w in frontier.windows(2) {
            prop_assert!(w[1].size > w[0].size);
            prop_assert!(w[1].utility > w[0].utility);
        }
        // No survivor is dominated by any original candidate.
        for f in &frontier {
            for c in &cands {
                let dominates = (c.size < f.size && c.utility >= f.utility)
                    || (c.size <= f.size && c.utility > f.utility);
                prop_assert!(!dominates, "{c:?} dominates {f:?}");
            }
        }
        // A frontier with >= 1 entry forms a valid ladder.
        if !frontier.is_empty() {
            let ladder = PresentationLadder::new(
                frontier.iter().map(|c| (c.size, c.utility.max(1e-9))).collect(),
            );
            prop_assert!(ladder.is_ok(), "{ladder:?}");
        }
    }

    #[test]
    fn lyapunov_queue_is_bounded_under_bounded_arrivals(
        arrivals in prop::collection::vec(0u64..5_000, 1..200),
        theta in 10_000u64..50_000,
    ) {
        // Each round: bounded arrivals, then a drain of up to θ bytes —
        // mimicking the scheduler delivering within its grant. Q must stay
        // below (max arrival burst + θ) once arrivals ≤ drain capacity.
        let mut state = LyapunovState::new(LyapunovConfig::paper_default());
        let max_burst = *arrivals.iter().max().unwrap_or(&0);
        for &nu in &arrivals {
            state.begin_round(theta, 3_000.0);
            state.on_enqueue(nu);
            // Drain up to θ bytes of backlog.
            let drain = (state.q() as u64).min(theta);
            state.on_deliver(drain, drain, 1.0);
        }
        prop_assert!(state.q() <= (max_burst.max(theta)) as f64 + 5_000.0);
        prop_assert!(state.p() >= 0.0);
    }

    #[test]
    fn energy_model_is_monotone_and_positive(bytes in 1u64..100_000_000) {
        for model in [NetworkEnergyModel::cellular(), NetworkEnergyModel::wifi()] {
            let e = model.transfer_energy(bytes);
            let e2 = model.transfer_energy(bytes + 1_000);
            prop_assert!(e > 0.0);
            prop_assert!(e2 > e);
        }
    }

    #[test]
    fn markov_occupancy_matches_state_space(seed in 0u64..500, steps in 1usize..300) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut chain = MarkovConnectivity::paper_default(NetworkState::Off);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            let s = chain.step(&mut rng);
            prop_assert!(matches!(
                s,
                NetworkState::Wifi | NetworkState::Cell | NetworkState::Off
            ));
        }
        let pi = chain.stationary();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ewma_estimate_bounded_by_observed_extremes(
        alpha in 0.01f64..=1.0,
        rates in prop::collection::vec(1.0f64..1e9, 1..60),
    ) {
        use richnote::core::adaptive::EwmaThroughput;
        let mut e = EwmaThroughput::new(alpha);
        for &r in &rates {
            e.observe_rate(r);
        }
        let (lo, hi) = e.bounds().expect("samples were fed");
        let est = e.estimate().expect("samples were fed");
        // A convex combination of samples can never escape the observed
        // extremes (tolerance for accumulated rounding).
        prop_assert!(est >= lo * (1.0 - 1e-12), "estimate {est} below min {lo}");
        prop_assert!(est <= hi * (1.0 + 1e-12), "estimate {est} above max {hi}");
    }

    #[test]
    fn ewma_monotone_response_to_sustained_shift(
        alpha in 0.01f64..=1.0,
        base in 10.0f64..1e6,
        factor in 1.5f64..50.0,
        warmup in 1usize..10,
        sustained in 1usize..40,
    ) {
        use richnote::core::adaptive::EwmaThroughput;
        let mut e = EwmaThroughput::new(alpha);
        for _ in 0..warmup {
            e.observe_rate(base);
        }
        // A sustained shift to a higher rate must move the estimate toward
        // it monotonically, without overshooting.
        let target = base * factor;
        let mut prev = e.estimate().expect("warmed up");
        for _ in 0..sustained {
            e.observe_rate(target);
            let cur = e.estimate().expect("fed");
            prop_assert!(cur >= prev * (1.0 - 1e-12), "estimate regressed: {prev} -> {cur}");
            prop_assert!(cur <= target * (1.0 + 1e-12), "estimate overshot {target}: {cur}");
            prev = cur;
        }
    }
}
