//! CART decision trees with Gini-impurity splits.
//!
//! Trees are grown recursively: at each node a random subset of features is
//! considered (the random-forest decorrelation trick of Breiman 2001), the
//! best threshold per feature is found by a sort-and-scan over the node's
//! rows, and the split minimizing weighted Gini impurity is applied. Leaves
//! store the positive-class fraction, so a single tree already produces
//! probabilities.
//!
//! A grown tree is stored flat: its nodes sit in one `Vec` in preorder, so
//! a split's left child is the node right after it and only the right
//! child needs an index. A leaf points its right child at itself and has a
//! NaN threshold; `x <= NaN` is false for every `x`, so one more step of a
//! walk from a leaf stays on it. That lets
//! [`RandomForest`](crate::forest::RandomForest) walk several trees in
//! lockstep for a fixed number of steps, without testing for leaves.

use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters for growing one tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows in each child for a split to be admissible.
    pub min_samples_leaf: usize,
    /// Number of features sampled per split; `None` means `√d` (the usual
    /// random-forest default).
    pub max_features: Option<usize>,
    /// Weight of positive-class rows in the impurity criterion and leaf
    /// probabilities (negative rows weigh 1). Values above 1 bias the tree
    /// toward recall on the positive class — useful when clicks are the
    /// rare class.
    pub positive_weight: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            positive_weight: 1.0,
        }
    }
}

/// A node of a flat tree. Rows with `x[feature] <= threshold` go to the
/// next node (the left child); all others, NaN included, go to `right`.
/// A leaf has `right` equal to its own index and a NaN threshold.
#[derive(Debug, Clone, Copy)]
struct Node {
    feature: u32,
    right: u32,
    threshold: f64,
}

/// Thresholds compare by bits, so a leaf's NaN equals itself.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.feature == other.feature
            && self.right == other.right
            && self.threshold.to_bits() == other.threshold.to_bits()
    }
}

/// A single CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Nodes in preorder; the root is node 0.
    nodes: Vec<Node>,
    /// Weighted positive-class fraction of the training rows that reached
    /// each node, indexed like `nodes`; a walk reads it at its leaf.
    probs: Vec<f64>,
    /// Deepest leaf (root = depth 0): the steps a walk needs to reach any
    /// leaf.
    depth: usize,
    n_features: usize,
}

/// Gini impurity of a node with `pos` positives out of `n` rows.
fn gini(pos: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

struct Grower<'a, R: Rng> {
    data: &'a Dataset,
    cfg: &'a TreeConfig,
    rng: &'a mut R,
    n_feature_candidates: usize,
    nodes: Vec<Node>,
    probs: Vec<f64>,
    depth: usize,
}

/// A node or feature index as a `Node` stores it.
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("node and feature indices fit in u32")
}

impl<R: Rng> Grower<'_, R> {
    /// Weighted count of a row (positives weigh `positive_weight`).
    fn weight(&self, i: usize) -> f64 {
        if self.data.label(i) {
            self.cfg.positive_weight
        } else {
            1.0
        }
    }

    /// Grows the subtree over `indices` at `depth`, appending its nodes in
    /// preorder.
    fn grow(&mut self, indices: &mut [usize], depth: usize) {
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| self.data.label(i)).count();
        let pos_w = pos as f64 * self.cfg.positive_weight;
        let total_w = pos_w + (n - pos) as f64;
        let prob = if total_w == 0.0 { 0.0 } else { pos_w / total_w };
        let at = self.nodes.len();
        self.probs.push(prob);

        let pure = pos == 0 || pos == n;
        let split = if pure || depth >= self.cfg.max_depth || n < self.cfg.min_samples_split {
            None
        } else {
            self.best_split(indices)
        };
        let Some((feature, threshold, split_at)) = split else {
            self.nodes.push(Node { feature: 0, right: index_u32(at), threshold: f64::NAN });
            self.depth = self.depth.max(depth);
            return;
        };
        // `right` is known once the left subtree is grown.
        self.nodes.push(Node { feature: index_u32(feature), right: 0, threshold });
        // Partition indices in place: left = rows <= threshold.
        indices.sort_unstable_by(|&a, &b| {
            self.data.row(a)[feature].total_cmp(&self.data.row(b)[feature])
        });
        let (left_idx, right_idx) = indices.split_at_mut(split_at);
        self.grow(left_idx, depth + 1);
        self.nodes[at].right = index_u32(self.nodes.len());
        self.grow(right_idx, depth + 1);
    }

    /// Finds the impurity-minimizing `(feature, threshold, left_count)`
    /// among a random subset of features, or `None` when no admissible
    /// split improves on the parent.
    fn best_split(&mut self, indices: &[usize]) -> Option<(usize, f64, usize)> {
        let n = indices.len();
        let total_pos_w: f64 =
            indices.iter().filter(|&&i| self.data.label(i)).map(|&i| self.weight(i)).sum();
        let total_w: f64 = indices.iter().map(|&i| self.weight(i)).sum();
        let parent = gini(total_pos_w, total_w);

        let mut features: Vec<usize> = (0..self.data.n_features()).collect();
        features.shuffle(self.rng);
        features.truncate(self.n_feature_candidates);

        let mut best: Option<(f64, usize, f64, usize)> = None;
        let mut order: Vec<usize> = indices.to_vec();

        for &f in &features {
            order.sort_unstable_by(|&a, &b| self.data.row(a)[f].total_cmp(&self.data.row(b)[f]));
            let mut left_pos_w = 0.0f64;
            let mut left_w = 0.0f64;
            for k in 1..n {
                let prev = order[k - 1];
                left_w += self.weight(prev);
                if self.data.label(prev) {
                    left_pos_w += self.weight(prev);
                }
                let prev_v = self.data.row(prev)[f];
                let cur_v = self.data.row(order[k])[f];
                if prev_v == cur_v {
                    continue; // cannot split between equal values
                }
                if k < self.cfg.min_samples_leaf || n - k < self.cfg.min_samples_leaf {
                    continue;
                }
                let right_w = total_w - left_w;
                let right_pos_w = total_pos_w - left_pos_w;
                let weighted = (left_w * gini(left_pos_w, left_w)
                    + right_w * gini(right_pos_w, right_w))
                    / total_w;
                if weighted + 1e-12 < parent && best.is_none_or(|(b, ..)| weighted < b) {
                    let threshold = 0.5 * (prev_v + cur_v);
                    best = Some((weighted, f, threshold, k));
                }
            }
        }

        best.map(|(_, f, t, k)| (f, t, k))
    }
}

impl DecisionTree {
    /// Grows a tree on the full dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty (construction of [`Dataset`] already
    /// forbids this).
    pub fn fit<R: Rng>(data: &Dataset, cfg: &TreeConfig, rng: &mut R) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let d = data.n_features();
        let candidates =
            cfg.max_features.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        let mut grower = Grower {
            data,
            cfg,
            rng,
            n_feature_candidates: candidates,
            nodes: Vec::new(),
            probs: Vec::new(),
            depth: 0,
        };
        grower.grow(&mut indices, 0);
        let Grower { nodes, probs, depth, .. } = grower;
        Self { nodes, probs, depth, n_features: d }
    }

    /// Probability of the positive class for a feature vector, walking
    /// from the root until a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.n_features, "feature vector length mismatch");
        let mut at = 0;
        loop {
            let node = self.nodes[at];
            if node.right as usize == at {
                return self.probs[at];
            }
            at = if features[node.feature as usize] <= node.threshold {
                at + 1
            } else {
                node.right as usize
            };
        }
    }

    /// One step of a walk for `features`: the node after `at`. A leaf
    /// steps to itself, so [`Self::depth`] steps from the root reach the
    /// leaf [`Self::predict_proba`] stops at, whatever the input.
    #[inline(always)]
    pub(crate) fn step(&self, at: usize, features: &[f64]) -> usize {
        let node = self.nodes[at];
        std::hint::select_unpredictable(
            features[node.feature as usize] <= node.threshold,
            at + 1,
            node.right as usize,
        )
    }

    /// The probability stored at node `at`; a leaf's is its prediction.
    pub(crate) fn prob(&self, at: usize) -> f64 {
        self.probs[at]
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, features: &[f64]) -> bool {
        self.predict_proba(features) >= 0.5
    }

    /// Number of leaves (model-size diagnostic).
    pub fn n_leaves(&self) -> usize {
        (0..self.nodes.len()).filter(|&at| self.nodes[at].right as usize == at).count()
    }

    /// Maximum depth actually reached (root = depth 0).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn xor_dataset() -> Dataset {
        // XOR: not linearly separable, needs depth ≥ 2.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            // Deterministic jitter decorrelates ties without rand.
            let j = (i as f64 * 0.37).sin() * 0.01;
            rows.push(vec![a + j, b - j]);
            labels.push((a as i64 ^ b as i64) == 1);
        }
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn learns_a_threshold() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = TreeConfig { max_features: Some(1), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        assert!(!tree.predict(&[10.0]));
        assert!(tree.predict(&[90.0]));
        // A single split suffices.
        assert_eq!(tree.n_leaves(), 2);
    }

    #[test]
    fn learns_xor_with_depth() {
        let data = xor_dataset();
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = TreeConfig { max_features: Some(2), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        let correct =
            (0..data.len()).filter(|&i| tree.predict(data.row(i)) == data.label(i)).count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_zero_yields_prior_leaf() {
        let data = xor_dataset();
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        assert_eq!(tree.n_leaves(), 1);
        let p = tree.predict_proba(data.row(0));
        assert!((p - data.positive_rate()).abs() < 1e-12);
    }

    #[test]
    fn pure_node_stops_early() {
        let data =
            Dataset::new(vec![vec![0.0], vec![1.0], vec![2.0]], vec![true, true, true]).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_proba(&[0.5]), 1.0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let labels: Vec<bool> = (0..10).map(|i| i >= 9).collect(); // 1 positive
        let data = Dataset::new(rows, labels).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg =
            TreeConfig { min_samples_leaf: 3, max_features: Some(1), ..TreeConfig::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        // The only impurity-reducing split (9 | 1) has a 1-row leaf, so the
        // admissible splits cannot isolate the positive: allowed but each
        // leaf has ≥ 3 training rows. Verify via leaf count bound.
        assert!(tree.n_leaves() <= 3);
    }

    #[test]
    fn probabilities_are_valid() {
        let data = xor_dataset();
        let mut rng = SmallRng::seed_from_u64(6);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng);
        for i in 0..data.len() {
            let p = tree.predict_proba(data.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_feature_count_panics() {
        let data = xor_dataset();
        let mut rng = SmallRng::seed_from_u64(7);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng);
        let _ = tree.predict_proba(&[1.0]);
    }

    #[test]
    fn positive_weight_boosts_recall_on_imbalanced_data() {
        // 10% positives, weakly separated: the unweighted tree mostly says
        // "no"; an upweighted tree recovers more positives.
        let n = 400;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i % 10) as f64 + ((i * 13) % 7) as f64 * 0.1]).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 10 == 0 && (i * 13) % 7 < 5).collect();
        let data = Dataset::new(rows, labels).unwrap();

        let recall = |w: f64| {
            let mut rng = SmallRng::seed_from_u64(9);
            let cfg =
                TreeConfig { positive_weight: w, max_features: Some(1), ..TreeConfig::default() };
            let tree = DecisionTree::fit(&data, &cfg, &mut rng);
            let tp = (0..n).filter(|&i| data.label(i) && tree.predict(data.row(i))).count();
            let pos = (0..n).filter(|&i| data.label(i)).count();
            tp as f64 / pos as f64
        };
        assert!(
            recall(8.0) >= recall(1.0),
            "upweighting positives must not reduce recall: {} vs {}",
            recall(8.0),
            recall(1.0)
        );
        assert!(recall(8.0) > 0.5, "weighted recall {}", recall(8.0));
    }

    #[test]
    fn leaf_probabilities_reflect_class_weights() {
        // A single leaf with 1 positive of 4 rows: weighted prob with
        // weight 3 is 3/(3+3) = 0.5.
        let data = Dataset::new(
            vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            vec![true, false, false, false],
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = TreeConfig { positive_weight: 3.0, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng);
        assert!((tree.predict_proba(&[1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equal_feature_values_are_never_split() {
        let data = Dataset::new(
            vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]],
            vec![true, false, true, false],
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng);
        assert_eq!(tree.n_leaves(), 1);
        assert!((tree.predict_proba(&[1.0]) - 0.5).abs() < 1e-12);
    }
}
