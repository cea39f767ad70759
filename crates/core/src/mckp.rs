//! Multi-choice knapsack selection of presentations (Sec. III-C / IV,
//! Algorithm 1, `SelectPresentations`).
//!
//! Each content item contributes a *category* of mutually exclusive
//! presentations (its ladder, including the zero-size level 0); the solver
//! picks exactly one presentation per item maximizing total (adjusted)
//! utility under a byte budget.
//!
//! Three solvers are provided:
//!
//! * [`select_greedy`] — the paper's heuristic: repeatedly upgrade the item
//!   with the largest *utility–size gradient*
//!   `∇(i,j) = (U(i,j+1) − U(i,j)) / (s(i,j+1) − s(i,j))` using a max-heap;
//!   `O(n + K·log n)` for `K` total upgrades.
//! * [`select_fractional`] — the LP relaxation: identical except the final
//!   upgrade may be fractional; optimal for monotone concave ladders and an
//!   upper bound used in tests/benches to measure the greedy gap.
//! * [`select_exact`] — textbook dynamic program, exponential-free but
//!   `O(n · budget)`; intended for small instances (tests, ablations).
//!
//! Eq. 2 also bounds energy, but the scheduler folds that constraint into
//! the objective through the Lyapunov virtual queue `P(t)` (Sec. IV),
//! leaving the single data constraint solved here.

use crate::presentation::PresentationLadder;
use crate::utility::combined_utility;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One MCKP category: the presentation levels of a single content item.
///
/// Level 0 is always `(size 0, utility 0)` — "not sent". Sizes are strictly
/// increasing with level; utilities may be arbitrary (the Lyapunov-adjusted
/// utility is not necessarily monotone).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MckpItem {
    /// Caller-side identifier (e.g. index into the scheduling queue).
    pub id: usize,
    levels: Vec<(u64, f64)>,
}

impl MckpItem {
    /// Creates an item from `(size, utility)` pairs for levels `1..`.
    /// Level 0 is prepended automatically.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or sizes are not strictly increasing.
    pub fn new(id: usize, levels: Vec<(u64, f64)>) -> Self {
        assert!(!levels.is_empty(), "an MCKP item needs at least one deliverable level");
        let mut all = Vec::with_capacity(levels.len() + 1);
        all.push((0u64, 0.0f64));
        all.extend(levels);
        for w in all.windows(2) {
            assert!(w[1].0 > w[0].0, "presentation sizes must be strictly increasing: {:?}", all);
        }
        Self { id, levels: all }
    }

    /// Builds an item from a presentation ladder and a content utility,
    /// using the plain combined utility `U(i,j) = Uc(i) × Up(i,j)` (Eq. 1).
    pub fn from_ladder(id: usize, ladder: &PresentationLadder, content_utility: f64) -> Self {
        let levels = ladder
            .deliverable()
            .iter()
            .map(|p| (p.size, combined_utility(content_utility, p.utility)))
            .collect();
        Self::new(id, levels)
    }

    /// Rebuilds this item in place from `(size, utility)` pairs for levels
    /// `1..`, reusing the existing level storage. The allocation-free
    /// counterpart of [`MckpItem::new`] for per-round scratch instances.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or sizes are not strictly increasing.
    pub fn reset_with(&mut self, id: usize, levels: impl IntoIterator<Item = (u64, f64)>) {
        self.id = id;
        self.levels.clear();
        self.levels.push((0u64, 0.0f64));
        self.levels.extend(levels);
        assert!(self.levels.len() > 1, "an MCKP item needs at least one deliverable level");
        for w in self.levels.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "presentation sizes must be strictly increasing: {:?}",
                self.levels
            );
        }
    }

    /// Builds an item from an iterator of `(size, utility)` pairs for
    /// levels `1..` (the iterator twin of [`MckpItem::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or sizes are not strictly increasing.
    pub fn from_levels_iter(id: usize, levels: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut item = Self { id, levels: Vec::new() };
        item.reset_with(id, levels);
        item
    }

    /// All levels including level 0, as `(size, utility)` pairs.
    pub fn levels(&self) -> &[(u64, f64)] {
        &self.levels
    }

    /// Highest level index.
    pub fn max_level(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// The utility–size gradient for upgrading from `level` to `level + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is out of range.
    pub fn gradient(&self, level: u8) -> f64 {
        let (s0, u0) = self.levels[level as usize];
        let (s1, u1) = self.levels[level as usize + 1];
        (u1 - u0) / (s1 - s0) as f64
    }
}

/// Result of an MCKP solve: one chosen level per input item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// Chosen level for each item, aligned with the input slice.
    pub levels: Vec<u8>,
    /// Total size of the chosen presentations, bytes.
    pub total_size: u64,
    /// Total utility of the chosen presentations.
    pub total_utility: f64,
}

impl Selection {
    fn from_levels(items: &[MckpItem], levels: Vec<u8>) -> Self {
        let mut total_size = 0u64;
        let mut total_utility = 0.0f64;
        for (item, &lvl) in items.iter().zip(&levels) {
            let (s, u) = item.levels[lvl as usize];
            total_size += s;
            total_utility += u;
        }
        Self { levels, total_size, total_utility }
    }

    /// Indices of items selected at level ≥ 1 (i.e. actually delivered).
    pub fn delivered(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.levels.iter().enumerate().filter(|(_, &l)| l > 0).map(|(i, &l)| (i, l))
    }
}

/// Options controlling the greedy heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreedyOptions {
    /// Stop at the first upgrade that does not fit (the paper's Algorithm 1
    /// sets `done ← true` immediately). When `false`, the solver skips the
    /// oversized upgrade and keeps trying other items — a common practical
    /// improvement measured in the ablation benches.
    pub stop_at_first_overflow: bool,
    /// Apply upgrades whose gradient is zero or negative. The paper assumes
    /// monotone utilities so this never helps; it is exposed for ablations
    /// with non-monotone adjusted utilities.
    pub allow_nonpositive_gradients: bool,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        Self { stop_at_first_overflow: true, allow_nonpositive_gradients: false }
    }
}

/// Max-heap entry ordered by gradient (total order via `f64::total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    gradient: f64,
    item: usize,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gradient
            .total_cmp(&other.gradient)
            // Deterministic tie-break on item index.
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Runs the paper's greedy `SelectPresentations` heuristic (Algorithm 1)
/// with default options.
///
/// Starts every item at level 0 and repeatedly applies the upgrade with the
/// largest utility–size gradient until the budget is exhausted.
///
/// ```
/// use richnote_core::mckp::{select_greedy, MckpItem};
///
/// let items = vec![
///     MckpItem::new(0, vec![(100, 1.0), (300, 1.5)]),
///     MckpItem::new(1, vec![(100, 0.2)]),
/// ];
/// let sel = select_greedy(&items, 350);
/// assert_eq!(sel.levels, vec![2, 0]); // upgrade item 0 twice, skip item 1
/// assert_eq!(sel.total_size, 300);
/// ```
pub fn select_greedy(items: &[MckpItem], budget: u64) -> Selection {
    select_greedy_with(items, budget, GreedyOptions::default())
}

/// Greedy heuristic with explicit [`GreedyOptions`].
pub fn select_greedy_with(items: &[MckpItem], budget: u64, opts: GreedyOptions) -> Selection {
    let mut scratch = GreedyScratch::default();
    select_greedy_into(items, budget, opts, &mut scratch);
    Selection::from_levels(items, std::mem::take(&mut scratch.levels))
}

/// Reusable working memory for [`select_greedy_into`]. One instance per
/// scheduler amortizes the heap and level-vector allocations across
/// rounds — the solver itself then allocates nothing in steady state.
#[derive(Debug, Default, Clone)]
pub struct GreedyScratch {
    heap: BinaryHeap<HeapEntry>,
    /// Chosen level per item after a solve, aligned with the input slice.
    levels: Vec<u8>,
}

impl GreedyScratch {
    /// Chosen level for each item from the most recent solve.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Indices of items chosen at level ≥ 1 (i.e. actually delivered) in
    /// the most recent solve, as `(item index, level)` pairs.
    pub fn delivered(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.levels.iter().enumerate().filter(|(_, &l)| l > 0).map(|(i, &l)| (i, l))
    }
}

/// Allocation-free greedy heuristic: identical selection semantics to
/// [`select_greedy_with`], but working memory lives in `scratch` and the
/// chosen levels are left in [`GreedyScratch::levels`]. Returns the total
/// size of the chosen presentations, bytes.
pub fn select_greedy_into(
    items: &[MckpItem],
    budget: u64,
    opts: GreedyOptions,
    scratch: &mut GreedyScratch,
) -> u64 {
    let levels = &mut scratch.levels;
    levels.clear();
    levels.resize(items.len(), 0u8);
    let mut total_size = 0u64;

    let heap = &mut scratch.heap;
    heap.clear();
    heap.extend(
        items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.max_level() >= 1)
            .map(|(idx, it)| HeapEntry { gradient: it.gradient(0), item: idx }),
    );

    while let Some(entry) = heap.pop() {
        if !opts.allow_nonpositive_gradients && entry.gradient <= 0.0 {
            // Max-heap: nothing later can be positive either.
            break;
        }
        let idx = entry.item;
        let item = &items[idx];
        let cur = levels[idx];
        let size_gain = item.levels[cur as usize + 1].0 - item.levels[cur as usize].0;
        if total_size + size_gain <= budget {
            levels[idx] = cur + 1;
            total_size += size_gain;
            if levels[idx] < item.max_level() {
                heap.push(HeapEntry { gradient: item.gradient(levels[idx]), item: idx });
            }
        } else if opts.stop_at_first_overflow {
            break;
        }
        // else: skip this upgrade permanently and keep draining the heap.
    }
    // A stopped solve leaves stale entries behind; clear so the next
    // round starts from an empty heap without a fresh allocation.
    heap.clear();

    total_size
}

/// The final, possibly partial, upgrade of the fractional relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FractionalUpgrade {
    /// Item receiving the partial upgrade.
    pub item: usize,
    /// Level the item is being upgraded *from*.
    pub from_level: u8,
    /// Fraction of the upgrade that fits in the budget, in `(0, 1)`.
    pub fraction: f64,
    /// Utility contributed by the fractional part.
    pub utility: f64,
}

/// Result of the fractional (LP-relaxation) solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FractionalSelection {
    /// The integral part (identical to the greedy solution).
    pub integral: Selection,
    /// The final fractional upgrade, if the budget cut one short.
    pub fractional: Option<FractionalUpgrade>,
}

impl FractionalSelection {
    /// Total utility including the fractional part — for monotone concave
    /// ladders this is an upper bound on the optimal integral utility
    /// (Sinha & Zoltners 1979, as used in Sec. IV).
    pub fn utility_upper_bound(&self) -> f64 {
        self.integral.total_utility + self.fractional.map_or(0.0, |f| f.utility)
    }
}

/// Solves the fractional MCKP relaxation by greedy gradient upgrades with a
/// final partial upgrade.
///
/// Optimal when each item's utilities are monotone increasing and concave in
/// size (true for the paper's presentation ladders); in that case the
/// integral greedy answer is within one upgrade's utility of optimal.
pub fn select_fractional(items: &[MckpItem], budget: u64) -> FractionalSelection {
    let mut levels = vec![0u8; items.len()];
    let mut total_size = 0u64;
    let mut fractional = None;

    let mut heap: BinaryHeap<HeapEntry> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.max_level() >= 1)
        .map(|(idx, it)| HeapEntry { gradient: it.gradient(0), item: idx })
        .collect();

    while let Some(entry) = heap.pop() {
        if entry.gradient <= 0.0 {
            break;
        }
        let idx = entry.item;
        let item = &items[idx];
        let cur = levels[idx];
        let size_gain = item.levels[cur as usize + 1].0 - item.levels[cur as usize].0;
        let util_gain = item.levels[cur as usize + 1].1 - item.levels[cur as usize].1;
        if total_size + size_gain <= budget {
            levels[idx] = cur + 1;
            total_size += size_gain;
            if levels[idx] < item.max_level() {
                heap.push(HeapEntry { gradient: item.gradient(levels[idx]), item: idx });
            }
        } else {
            let remaining = budget - total_size;
            if remaining > 0 {
                let fraction = remaining as f64 / size_gain as f64;
                fractional = Some(FractionalUpgrade {
                    item: idx,
                    from_level: cur,
                    fraction,
                    utility: fraction * util_gain,
                });
            }
            break;
        }
    }

    FractionalSelection { integral: Selection::from_levels(items, levels), fractional }
}

/// Exact MCKP solver by dynamic programming over the budget.
///
/// Complexity is `O(n · budget · max_level)` time and `O(n · budget)`
/// memory — use only for small instances (unit tests, optimality-gap
/// ablations). Budgets are interpreted in bytes; scale sizes down first for
/// large instances.
///
/// # Panics
///
/// Panics if `budget` exceeds `u32::MAX` (guard against accidental
/// million-fold memory blowups).
pub fn select_exact(items: &[MckpItem], budget: u64) -> Selection {
    assert!(budget <= u64::from(u32::MAX), "exact DP is for small budgets only");
    let w = budget as usize + 1;
    // dp[b] = best utility with total size exactly ≤ b; choice[i][b] = level.
    let mut dp = vec![0.0f64; w];
    let mut choice = vec![vec![0u8; w]; items.len()];

    for (i, item) in items.iter().enumerate() {
        let mut next = vec![f64::NEG_INFINITY; w];
        let mut pick = vec![0u8; w];
        for b in 0..w {
            for (lvl, &(size, util)) in item.levels.iter().enumerate() {
                if size as usize <= b {
                    let cand = dp[b - size as usize] + util;
                    if cand > next[b] {
                        next[b] = cand;
                        pick[b] = lvl as u8;
                    }
                }
            }
        }
        dp = next;
        choice[i] = pick;
    }

    // Walk back the choices from the full budget.
    let mut levels = vec![0u8; items.len()];
    let mut b = budget as usize;
    for i in (0..items.len()).rev() {
        let lvl = choice[i][b];
        levels[i] = lvl;
        b -= items[i].levels[lvl as usize].0 as usize;
    }
    Selection::from_levels(items, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presentation::AudioPresentationSpec;

    fn concave_item(id: usize) -> MckpItem {
        MckpItem::from_ladder(id, &AudioPresentationSpec::paper_default().ladder(), 1.0)
    }

    #[test]
    fn empty_input_selects_nothing() {
        let sel = select_greedy(&[], 1_000);
        assert!(sel.levels.is_empty());
        assert_eq!(sel.total_size, 0);
        assert_eq!(sel.total_utility, 0.0);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let items = vec![concave_item(0), concave_item(1)];
        let sel = select_greedy(&items, 0);
        assert_eq!(sel.levels, vec![0, 0]);
    }

    #[test]
    fn greedy_respects_budget() {
        let items: Vec<MckpItem> = (0..50).map(concave_item).collect();
        for budget in [0u64, 199, 200, 10_000, 1_000_000, 50_000_000] {
            let sel = select_greedy(&items, budget);
            assert!(sel.total_size <= budget, "budget {budget}: used {}", sel.total_size);
        }
    }

    #[test]
    fn greedy_prefers_metadata_breadth_at_tiny_budget() {
        // With budget for exactly two metadata presentations, the gradient
        // of the 0→1 upgrade (cheap, high utility/byte) dominates.
        let items = vec![concave_item(0), concave_item(1)];
        let sel = select_greedy(&items, 400);
        assert_eq!(sel.levels, vec![1, 1]);
    }

    #[test]
    fn greedy_goes_deep_when_budget_allows() {
        let items = vec![concave_item(0)];
        let sel = select_greedy(&items, 10_000_000);
        assert_eq!(sel.levels, vec![6]);
    }

    #[test]
    fn greedy_matches_exact_on_small_instances() {
        // Concave ladders: greedy should be near-optimal; we allow the gap
        // of one upgrade proven in Sec. IV.
        let items = vec![
            MckpItem::new(0, vec![(2, 0.5), (5, 0.9), (9, 1.1)]),
            MckpItem::new(1, vec![(3, 0.6), (7, 1.0)]),
            MckpItem::new(2, vec![(1, 0.2), (4, 0.55)]),
        ];
        for budget in 0..=20u64 {
            let g = select_greedy_with(
                &items,
                budget,
                GreedyOptions { stop_at_first_overflow: false, ..Default::default() },
            );
            let e = select_exact(&items, budget);
            let frac = select_fractional(&items, budget);
            assert!(e.total_utility + 1e-9 >= g.total_utility);
            assert!(
                frac.utility_upper_bound() + 1e-9 >= e.total_utility,
                "budget {budget}: frac bound {} < exact {}",
                frac.utility_upper_bound(),
                e.total_utility
            );
        }
    }

    #[test]
    fn fractional_bound_tightness() {
        let items: Vec<MckpItem> = (0..10).map(concave_item).collect();
        let budget = 1_234_567u64;
        let frac = select_fractional(&items, budget);
        let greedy = select_greedy_with(
            &items,
            budget,
            GreedyOptions { stop_at_first_overflow: false, ..Default::default() },
        );
        // Integral greedy is within the last fractional upgrade of the bound.
        assert!(frac.utility_upper_bound() >= greedy.total_utility - 1e-9);
        let gap = frac.utility_upper_bound() - frac.integral.total_utility;
        assert!(gap >= 0.0);
        if let Some(f) = frac.fractional {
            assert!(f.fraction > 0.0 && f.fraction < 1.0);
            assert!((gap - f.utility).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_gradient_levels_are_skipped_by_default() {
        // Adjusted utilities that *decrease* past level 1.
        let items = vec![MckpItem::new(0, vec![(10, 1.0), (20, 0.5)])];
        let sel = select_greedy(&items, 100);
        assert_eq!(sel.levels, vec![1]);
        let sel2 = select_greedy_with(
            &items,
            100,
            GreedyOptions { allow_nonpositive_gradients: true, ..Default::default() },
        );
        assert_eq!(sel2.levels, vec![2]); // forced through for the ablation
    }

    #[test]
    fn stop_at_first_overflow_matches_paper_semantics() {
        // Item 0 has a huge second upgrade that overflows; item 1 still has
        // a small viable upgrade. Paper semantics stop immediately.
        let items = vec![
            MckpItem::new(0, vec![(10, 1.0), (1_000, 1.9)]),
            MckpItem::new(1, vec![(10, 0.5)]),
        ];
        // Budget fits both level-1s, then item0's upgrade (gradient
        // 0.9/990 ≈ 0.0009) is popped before nothing else remains.
        let stop = select_greedy(&items, 40);
        let cont = select_greedy_with(
            &items,
            40,
            GreedyOptions { stop_at_first_overflow: false, ..Default::default() },
        );
        // Both level-1 upgrades fit (20 bytes) either way; the big upgrade
        // never fits; with stopping the behaviour is identical here.
        assert_eq!(stop.levels, vec![1, 1]);
        assert_eq!(cont.levels, vec![1, 1]);

        // Now make the overflow pop *before* a viable cheap upgrade: item0's
        // first upgrade has the best gradient but does not fit.
        let items2 = vec![MckpItem::new(0, vec![(100, 100.0)]), MckpItem::new(1, vec![(10, 0.5)])];
        let stop2 = select_greedy(&items2, 50);
        assert_eq!(stop2.levels, vec![0, 0], "paper variant stops at first overflow");
        let cont2 = select_greedy_with(
            &items2,
            50,
            GreedyOptions { stop_at_first_overflow: false, ..Default::default() },
        );
        assert_eq!(cont2.levels, vec![0, 1], "continue variant keeps packing");
    }

    #[test]
    fn gradient_matches_definition() {
        let item = MckpItem::new(0, vec![(100, 0.5), (300, 0.9)]);
        assert!((item.gradient(0) - 0.5 / 100.0).abs() < 1e-12);
        assert!((item.gradient(1) - 0.4 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn delivered_iterates_only_selected() {
        let items = vec![concave_item(0), concave_item(1), concave_item(2)];
        let sel = select_greedy(&items, 450);
        let delivered: Vec<(usize, u8)> = sel.delivered().collect();
        assert_eq!(delivered.len(), 2); // 450 bytes fit two metadata levels
        assert!(delivered.iter().all(|&(_, l)| l == 1));
    }

    #[test]
    fn selection_totals_are_consistent() {
        let items: Vec<MckpItem> = (0..20).map(concave_item).collect();
        let sel = select_greedy(&items, 2_000_000);
        let mut size = 0u64;
        let mut util = 0.0;
        for (i, &l) in sel.levels.iter().enumerate() {
            let (s, u) = items[i].levels()[l as usize];
            size += s;
            util += u;
        }
        assert_eq!(size, sel.total_size);
        assert!((util - sel.total_utility).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_sizes_panic() {
        let _ = MckpItem::new(0, vec![(10, 0.1), (10, 0.2)]);
    }

    #[test]
    fn exact_dp_walkback_reconstructs_budgeted_solution() {
        let items = vec![
            MckpItem::new(0, vec![(4, 1.0)]),
            MckpItem::new(1, vec![(4, 1.1)]),
            MckpItem::new(2, vec![(4, 1.2)]),
        ];
        let sel = select_exact(&items, 8);
        assert_eq!(sel.total_size, 8);
        // Best two of three.
        assert_eq!(sel.levels, vec![0, 1, 1]);
        assert!((sel.total_utility - 2.3).abs() < 1e-12);
    }
}
