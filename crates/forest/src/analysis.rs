//! Classifier analysis beyond point metrics: ROC curves / AUC, permutation
//! feature importance, and out-of-bag-style held-out scoring. These back
//! the deeper classifier diagnostics in the experiment harness.

use crate::dataset::Dataset;
use crate::forest::RandomForest;
use serde::{Deserialize, Serialize};

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate.
    pub fpr: f64,
    /// True-positive rate (recall).
    pub tpr: f64,
}

/// A ROC curve with its AUC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    /// Points in decreasing-threshold order, from (0,0) to (1,1).
    pub points: Vec<RocPoint>,
    /// Area under the curve.
    pub auc: f64,
}

/// Computes the ROC curve of `scores` against binary `labels`.
///
/// # Panics
///
/// Panics if the slices differ in length or either class is absent.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> RocCurve {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    assert!(pos > 0 && neg > 0, "ROC needs both classes present");

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

    let mut points = vec![RocPoint { threshold: f64::INFINITY, fpr: 0.0, tpr: 0.0 }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0;
    while i < order.len() {
        let threshold = scores[order[i]];
        // Consume all samples tied at this score before emitting a point.
        while i < order.len() && scores[order[i]].total_cmp(&threshold).is_eq() {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold,
            fpr: fp as f64 / neg as f64,
            tpr: tp as f64 / pos as f64,
        });
    }

    // Trapezoidal AUC.
    let mut auc = 0.0;
    for w in points.windows(2) {
        auc += (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0;
    }
    RocCurve { points, auc }
}

/// Scores a forest over a dataset and returns its ROC curve.
pub fn forest_roc(forest: &RandomForest, data: &Dataset) -> RocCurve {
    let scores: Vec<f64> = (0..data.len()).map(|i| forest.predict_proba(data.row(i))).collect();
    roc_curve(&scores, data.labels())
}

/// Permutation importance of each feature: the accuracy drop when that
/// feature's column is cyclically shifted (breaking its relationship with
/// the label while preserving its marginal distribution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureImportance {
    /// Baseline accuracy on the unperturbed data.
    pub baseline_accuracy: f64,
    /// Accuracy drop per feature (aligned with feature indices); larger
    /// means more important.
    pub drops: Vec<f64>,
}

impl FeatureImportance {
    /// Feature indices sorted by descending importance.
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.drops.len()).collect();
        idx.sort_by(|&a, &b| self.drops[b].total_cmp(&self.drops[a]));
        idx
    }
}

/// Computes permutation importance of `forest` on `data` using a
/// deterministic cyclic shift (no RNG needed; shift by `len/3 + 1` breaks
/// alignment for any non-constant column).
pub fn permutation_importance(forest: &RandomForest, data: &Dataset) -> FeatureImportance {
    let accuracy = |rows: &dyn Fn(usize) -> Vec<f64>| -> f64 {
        let correct =
            (0..data.len()).filter(|&i| forest.predict(&rows(i)) == data.label(i)).count();
        correct as f64 / data.len() as f64
    };

    let baseline_accuracy = accuracy(&|i| data.row(i).to_vec());
    let shift = data.len() / 3 + 1;
    let drops = (0..data.n_features())
        .map(|f| {
            let shuffled = accuracy(&|i| {
                let mut row = data.row(i).to_vec();
                row[f] = data.row((i + shift) % data.len())[f];
                row
            });
            baseline_accuracy - shuffled
        })
        .collect();

    FeatureImportance { baseline_accuracy, drops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;

    fn two_feature_data(n: usize) -> Dataset {
        // Feature 0 decides the label; feature 1 is pure noise.
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i as f64) / n as f64, ((i * 31) % 17) as f64]).collect();
        let labels: Vec<bool> = (0..n).map(|i| (i as f64) / n as f64 > 0.5).collect();
        Dataset::new(rows, labels).unwrap()
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let roc = roc_curve(&scores, &labels);
        assert!((roc.auc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_scores_give_auc_half() {
        // Alternating labels against monotone scores: AUC ≈ 0.5.
        let n = 1000;
        let scores: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let roc = roc_curve(&scores, &labels);
        assert!((roc.auc - 0.5).abs() < 0.01, "auc {}", roc.auc);
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        let roc = roc_curve(&scores, &labels);
        assert!(roc.auc < 0.01);
    }

    #[test]
    fn roc_endpoints_are_corners() {
        let scores = [0.3, 0.6, 0.1, 0.9];
        let labels = [false, true, false, true];
        let roc = roc_curve(&scores, &labels);
        let first = roc.points.first().unwrap();
        let last = roc.points.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn nan_score_gives_a_finite_curve_between_the_corners() {
        let scores = [0.9, f64::NAN, 0.4, 0.1, f64::NAN];
        let labels = [true, false, true, false, true];
        let roc = roc_curve(&scores, &labels);
        assert!(roc.points.len() <= scores.len() + 1);
        let first = roc.points.first().unwrap();
        let last = roc.points.last().unwrap();
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        assert!(roc.auc.is_finite());
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let _ = roc_curve(&[0.5, 0.6], &[true, true]);
    }

    #[test]
    fn forest_auc_beats_chance_on_separable_data() {
        let data = two_feature_data(300);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 3);
        let roc = forest_roc(&forest, &data);
        assert!(roc.auc > 0.95, "auc {}", roc.auc);
    }

    #[test]
    fn importance_identifies_the_signal_feature() {
        let data = two_feature_data(400);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 3);
        let imp = permutation_importance(&forest, &data);
        assert!(imp.baseline_accuracy > 0.95);
        assert_eq!(imp.ranking()[0], 0, "feature 0 carries the signal: {:?}", imp.drops);
        assert!(imp.drops[0] > 0.2, "{:?}", imp.drops);
        assert!(imp.drops[1] < 0.05, "{:?}", imp.drops);
    }
}
