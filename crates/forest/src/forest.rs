//! Bootstrap-aggregated decision trees (Random Forest, Breiman 2001).
//!
//! Prediction walks the trees in blocks of `LANES` (8): every cursor of a
//! block takes one step per level, for the block's deepest tree, and picks
//! its next node with [`std::hint::select_unpredictable`] rather than a
//! data-dependent branch. A cursor that reaches a leaf stays on it (see
//! [`crate::tree`]), and the leaves are summed in tree order, so the
//! result is bit-identical to walking the trees one at a time.

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Trees walked in lockstep per block.
const LANES: usize = 8;

/// Random-forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self { n_trees: 40, tree: TreeConfig::default(), bootstrap_fraction: 1.0 }
    }
}

/// A trained random forest for binary classification.
///
/// The predicted probability is the **mean leaf probability across trees**,
/// which plays the role of the Weka confidence score `Pr(x_i)` the paper
/// converts into content utility:
///
/// ```text
/// Uc(i) = Pr(x=1)       if predicted clicked
///         1 − Pr(x=0)   otherwise
/// ```
///
/// (both branches equal the positive-class probability, which
/// [`RandomForest::content_utility`] returns directly).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Trains a forest on `data` with deterministic seeding.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_trees == 0` or `cfg.bootstrap_fraction <= 0`.
    pub fn fit(data: &Dataset, cfg: &RandomForestConfig, seed: u64) -> Self {
        assert!(cfg.n_trees > 0, "a forest needs at least one tree");
        assert!(cfg.bootstrap_fraction > 0.0, "bootstrap fraction must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample_n = ((data.len() as f64 * cfg.bootstrap_fraction).round() as usize).max(1);
        let trees = (0..cfg.n_trees)
            .map(|_| {
                let indices: Vec<usize> =
                    (0..sample_n).map(|_| rng.gen_range(0..data.len())).collect();
                let sample = data.subset(&indices);
                DecisionTree::fit(&sample, &cfg.tree, &mut rng)
            })
            .collect();
        Self { trees, n_features: data.n_features() }
    }

    /// Mean positive-class probability across trees, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature vector length mismatch");
        let sum: f64 = self.trees.chunks(LANES).flat_map(|block| walk(block, features)).sum();
        sum / self.trees.len() as f64
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Content utility per the paper's rule (Sec. V-A). With a calibrated
    /// probabilistic classifier both branches coincide with
    /// `Pr(x = 1 | features)`.
    pub fn content_utility(&self, features: &[f64]) -> f64 {
        self.predict_proba(features)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features expected by [`Self::predict_proba`].
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Walks up to [`LANES`] trees in lockstep and yields their leaf
/// probabilities in tree order.
fn walk<'a>(block: &'a [DecisionTree], features: &[f64]) -> impl Iterator<Item = f64> + 'a {
    // A short block repeats its last tree in the spare lanes, so every
    // block is walked as a fixed-width one; only its own leaves are read.
    let lanes: [&DecisionTree; LANES] = std::array::from_fn(|l| &block[l.min(block.len() - 1)]);
    let depth = block.iter().map(DecisionTree::depth).max().unwrap_or(0);
    let mut at = [0usize; LANES];
    for _ in 0..depth {
        for (at, tree) in at.iter_mut().zip(lanes) {
            *at = tree.step(*at, features);
        }
    }
    block.iter().zip(at).map(|(tree, at)| tree.prob(at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn noisy_threshold(n: usize) -> Dataset {
        // y = x > 0.5, with 15% label noise driven by a deterministic hash.
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i as f64) / (n as f64)]).collect();
        let labels: Vec<bool> = (0..n)
            .map(|i| {
                let clean = (i as f64) / (n as f64) > 0.5;
                let flip = (i * 2654435761) % 100 < 15;
                clean ^ flip
            })
            .collect();
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn forest_beats_chance_under_noise() {
        let data = noisy_threshold(500);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 7);
        let correct = (0..data.len())
            .filter(|&i| forest.predict(data.row(i)) == ((i as f64) / 500.0 > 0.5))
            .count();
        assert!(correct as f64 / 500.0 > 0.9, "accuracy vs clean labels too low");
    }

    #[test]
    fn probabilities_average_over_trees() {
        let data = noisy_threshold(200);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 7);
        for i in (0..200).step_by(17) {
            let p = forest.predict_proba(data.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
        // Confident far from the boundary, less so near it.
        assert!(forest.predict_proba(&[0.95]) > forest.predict_proba(&[0.52]));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_threshold(200);
        let a = RandomForest::fit(&data, &RandomForestConfig::default(), 99);
        let b = RandomForest::fit(&data, &RandomForestConfig::default(), 99);
        assert_eq!(a, b);
        let c = RandomForest::fit(&data, &RandomForestConfig::default(), 100);
        assert!(a != c || a.predict_proba(&[0.5]) == c.predict_proba(&[0.5]));
    }

    #[test]
    fn content_utility_equals_positive_probability() {
        let data = noisy_threshold(200);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 7);
        let f = [0.8];
        assert_eq!(forest.content_utility(&f), forest.predict_proba(&f));
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let data = noisy_threshold(10);
        let cfg = RandomForestConfig { n_trees: 0, ..RandomForestConfig::default() };
        let _ = RandomForest::fit(&data, &cfg, 1);
    }

    #[test]
    fn bootstrap_fraction_shrinks_samples() {
        let data = noisy_threshold(400);
        let cfg = RandomForestConfig {
            n_trees: 10,
            bootstrap_fraction: 0.25,
            ..RandomForestConfig::default()
        };
        let forest = RandomForest::fit(&data, &cfg, 3);
        assert_eq!(forest.n_trees(), 10);
        assert!(forest.predict_proba(&[0.9]) > 0.5);
    }

    /// A dataset or query value: mostly on the grid `k / 8`, so queries
    /// often equal split thresholds, and sometimes ±∞ or NaN.
    fn value() -> impl Strategy<Value = f64> {
        (0u32..40).prop_map(|k| match k {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            k => f64::from(k - 3) / 8.0,
        })
    }

    /// Training rows and labels, forest shape, seed and query rows.
    type Case = (Vec<Vec<f64>>, Vec<bool>, RandomForestConfig, u64, Vec<Vec<f64>>);

    /// A random [`Case`], with 1, 7, 8, 9 or 40 trees of depth at most 0,
    /// 1, 3 or 12.
    fn case() -> impl Strategy<Value = Case> {
        (1usize..=4, 2usize..=60, 0usize..5, 0usize..4, any::<u64>()).prop_flat_map(
            |(d, n, trees, depth, seed)| {
                let cfg = RandomForestConfig {
                    n_trees: [1, 7, 8, 9, 40][trees],
                    tree: TreeConfig { max_depth: [0, 1, 3, 12][depth], ..TreeConfig::default() },
                    ..RandomForestConfig::default()
                };
                (
                    prop::collection::vec(prop::collection::vec(value(), d), n),
                    prop::collection::vec(any::<bool>(), n),
                    Just(cfg),
                    Just(seed),
                    prop::collection::vec(prop::collection::vec(value(), d), 16),
                )
            },
        )
    }

    /// The lockstep walk returns the bits of summing one-tree-at-a-time
    /// walks in tree order.
    fn lockstep_matches_tree_walks(case: Case) {
        let (rows, labels, cfg, seed, queries) = case;
        let data = Dataset::new(rows, labels).unwrap();
        let forest = RandomForest::fit(&data, &cfg, seed);
        for q in &queries {
            let sum: f64 = forest.trees.iter().map(|t| t.predict_proba(q)).sum();
            let want = sum / forest.trees.len() as f64;
            let got = forest.predict_proba(q);
            assert_eq!(got.to_bits(), want.to_bits(), "{q:?} with {cfg:?}, seed {seed}");
        }
    }

    proptest! {
        #[test]
        fn lockstep_walk_is_bit_identical_to_tree_walks(c in case()) {
            lockstep_matches_tree_walks(c);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// The same differential at 10 000 cases; run by name in CI.
        #[test]
        #[ignore = "10 000 cases; run with --release -- --ignored"]
        fn lockstep_walk_is_bit_identical_to_tree_walks_10k(c in case()) {
            lockstep_matches_tree_walks(c);
        }
    }
}
