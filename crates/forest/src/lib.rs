//! # richnote-forest
//!
//! A from-scratch Random Forest classifier — the substrate RichNote uses to
//! model **content utility** (Sec. V-A of the paper, where the authors used
//! Weka's Random Forest on Spotify click/hover data).
//!
//! The crate provides:
//!
//! * [`dataset::Dataset`] — a dense feature matrix with binary labels;
//! * [`tree::DecisionTree`] — CART trees with Gini-impurity splits,
//!   depth/size regularization and per-split feature subsampling, each
//!   stored flat as one preorder `Vec` of nodes;
//! * [`forest::RandomForest`] — bootstrap-aggregated trees whose vote
//!   fraction doubles as the confidence score `Pr(x_i)` that becomes the
//!   content utility `Uc(i)`; it walks eight trees in lockstep without
//!   data-dependent branches, bit-identical to walking them one by one;
//! * [`metrics`] — confusion matrices, precision/recall/accuracy/F1;
//! * [`cv`] — k-fold cross-validation, mirroring the paper's five-fold
//!   protocol (reported: precision 0.700, accuracy 0.689).
//!
//! # Example
//!
//! ```
//! use richnote_forest::dataset::Dataset;
//! use richnote_forest::forest::{RandomForest, RandomForestConfig};
//!
//! // A linearly separable toy problem.
//! let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 100.0]).collect();
//! let labels: Vec<bool> = (0..100).map(|i| i >= 50).collect();
//! let data = Dataset::new(rows, labels)?;
//! let forest = RandomForest::fit(&data, &RandomForestConfig::default(), 42);
//! assert!(forest.predict_proba(&[0.9]) > 0.5);
//! assert!(forest.predict_proba(&[0.1]) < 0.5);
//! # Ok::<(), richnote_forest::dataset::DatasetError>(())
//! ```

pub mod analysis;
pub mod calibration;
pub mod cv;
pub mod dataset;
pub mod forest;
pub mod metrics;
pub mod tree;

pub use analysis::{forest_roc, permutation_importance, FeatureImportance, RocCurve};
pub use calibration::{calibration, forest_calibration, CalibrationReport};
pub use cv::{cross_validate, CrossValidation};
pub use dataset::{Dataset, DatasetError};
pub use forest::{RandomForest, RandomForestConfig};
pub use metrics::{ClassificationReport, ConfusionMatrix};
pub use tree::{DecisionTree, TreeConfig};
