//! k-fold cross-validation, mirroring the paper's five-fold protocol
//! (Sec. V-A): split the data into k equal parts, train on k−1, test on
//! the held-out part, aggregate the confusion matrices.

use crate::dataset::Dataset;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::metrics::{ClassificationReport, ConfusionMatrix};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Result of a k-fold cross-validation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidation {
    /// Per-fold reports, in fold order.
    pub folds: Vec<ClassificationReport>,
    /// Report over the pooled confusion matrix of all folds.
    pub pooled: ClassificationReport,
}

impl CrossValidation {
    /// Mean per-fold precision.
    pub fn mean_precision(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.precision))
    }

    /// Mean per-fold accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        mean(self.folds.iter().map(|f| f.accuracy))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs k-fold cross-validation of a random forest on `data`.
///
/// Rows are shuffled deterministically from `seed`, divided into `k`
/// near-equal folds; each fold serves once as the test set.
///
/// # Panics
///
/// Panics if `k < 2` or `data.len() < k`.
pub fn cross_validate(
    data: &Dataset,
    cfg: &RandomForestConfig,
    k: usize,
    seed: u64,
) -> CrossValidation {
    assert!(k >= 2, "cross-validation needs at least two folds");
    assert!(data.len() >= k, "need at least one row per fold");

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut rng);

    let mut folds = Vec::with_capacity(k);
    let mut pooled_matrix = ConfusionMatrix::new();

    for fold in 0..k {
        let test_idx: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let train_idx: Vec<usize> = order
            .iter()
            .copied()
            .enumerate()
            .filter(|(pos, _)| pos % k != fold)
            .map(|(_, i)| i)
            .collect();

        let train = data.subset(&train_idx);
        let forest = RandomForest::fit(&train, cfg, seed.wrapping_add(fold as u64));

        let mut matrix = ConfusionMatrix::new();
        for &i in &test_idx {
            matrix.record(forest.predict(data.row(i)), data.label(i));
        }
        pooled_matrix.merge(&matrix);
        folds.push(ClassificationReport::from(matrix));
    }

    CrossValidation { folds, pooled: ClassificationReport::from(pooled_matrix) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i as f64) / (n as f64), ((i * 7) % 13) as f64]).collect();
        let labels: Vec<bool> = (0..n).map(|i| (i as f64) / (n as f64) > 0.5).collect();
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn five_fold_covers_every_row_once() {
        let data = separable(103); // not divisible by 5
        let cv = cross_validate(&data, &RandomForestConfig::default(), 5, 1);
        assert_eq!(cv.folds.len(), 5);
        let total: u64 = cv.folds.iter().map(|f| f.confusion.total()).sum();
        assert_eq!(total, 103);
        assert_eq!(cv.pooled.confusion.total(), 103);
    }

    #[test]
    fn separable_data_scores_high() {
        let data = separable(300);
        let cfg = RandomForestConfig { n_trees: 15, ..RandomForestConfig::default() };
        let cv = cross_validate(&data, &cfg, 5, 2);
        assert!(cv.pooled.accuracy > 0.9, "accuracy {}", cv.pooled.accuracy);
        assert!(cv.mean_accuracy() > 0.85);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = separable(120);
        let cfg = RandomForestConfig { n_trees: 5, ..RandomForestConfig::default() };
        let a = cross_validate(&data, &cfg, 4, 9);
        let b = cross_validate(&data, &cfg, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_panics() {
        let data = separable(10);
        let _ = cross_validate(&data, &RandomForestConfig::default(), 1, 0);
    }

    #[test]
    #[should_panic(expected = "one row per fold")]
    fn too_small_dataset_panics() {
        let data = separable(3);
        let _ = cross_validate(&data, &RandomForestConfig::default(), 5, 0);
    }

    #[test]
    fn mean_metrics_match_folds() {
        let data = separable(100);
        let cfg = RandomForestConfig { n_trees: 3, ..RandomForestConfig::default() };
        let cv = cross_validate(&data, &cfg, 5, 4);
        let expect: f64 = cv.folds.iter().map(|f| f.precision).sum::<f64>() / 5.0;
        assert!((cv.mean_precision() - expect).abs() < 1e-12);
    }
}
