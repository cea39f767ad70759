//! Differential property tests of the production greedy MCKP path.
//!
//! `RichNoteScheduler` solves every round through `mckp::select_greedy_into`
//! with one `GreedyScratch` that it keeps across rounds, so the reused
//! working memory must never leak one solve into the next. And the
//! fractional relaxation's integral part is documented as the greedy
//! solution under the paper's default options; these props hold both to
//! `select_greedy_with`, the allocating reference.

use proptest::prelude::*;
use richnote::core::mckp::{
    select_fractional, select_greedy, select_greedy_into, select_greedy_with, GreedyOptions,
    GreedyScratch, MckpItem,
};

/// Strategy: a small MCKP item with strictly increasing sizes and
/// monotone utilities.
fn mckp_item(id: usize) -> impl Strategy<Value = MckpItem> {
    (1usize..=4, 1u64..25, 0.01f64..1.0).prop_map(move |(levels, step, base)| {
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
    prop::collection::vec(0usize..1, 1..8).prop_flat_map(|slots| {
        slots.into_iter().enumerate().map(|(i, _)| mckp_item(i)).collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reused_scratch_matches_a_fresh_solve(
        rounds in prop::collection::vec((mckp_items(), 0u64..250, any::<bool>()), 1..8),
    ) {
        // One scratch, never reset by the caller: each solve starts from
        // whatever heap and levels the previous instance left behind.
        let mut scratch = GreedyScratch::default();
        for (items, budget, stop) in &rounds {
            let opts = GreedyOptions { stop_at_first_overflow: *stop, ..Default::default() };
            let fresh = select_greedy_with(items, *budget, opts);
            let total_size = select_greedy_into(items, *budget, opts, &mut scratch);

            prop_assert_eq!(scratch.levels(), &fresh.levels[..]);
            prop_assert_eq!(total_size, fresh.total_size);
            prop_assert!(total_size <= *budget);
        }
    }

    #[test]
    fn fractional_integral_part_is_the_paper_greedy(
        items in mckp_items(),
        budget in 0u64..250,
    ) {
        let frac = select_fractional(&items, budget);
        prop_assert_eq!(&frac.integral, &select_greedy(&items, budget));
    }
}
