//! Presentation-utility surveys (Sec. V-B).
//!
//! The paper derives presentation utility from two subjective user studies:
//!
//! 1. a **rate × duration grid study**: 4 sampling rates × 5 durations = 20
//!    audio samples rated 0–5; scores ranged 0.3–3.3 and Pareto pruning left
//!    only *six useful presentations* (Fig. 2(a));
//! 2. a **duration study** among 80 users who pressed *stop* when a sample
//!    was "barely enough for a good notification"; the CDF of stop durations
//!    becomes `util(d)`, fitted by a logarithmic and a polynomial model
//!    (Fig. 2(b), Eq. 8/9).
//!
//! The raw Spotify-era survey responses are not available, so this module
//! synthesizes a survey population whose stop-duration distribution follows
//! the paper's fitted logarithmic curve plus noise, and provides the
//! regression machinery that re-derives Eq. 8/9 from the synthetic data.

use rand::Rng;
use richnote_core::paper;
use richnote_core::presentation::CandidatePresentation;
use richnote_core::utility::DurationUtility;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error fitting a duration-utility function to survey data.
#[derive(Debug, Clone, PartialEq)]
pub enum SurveyFitError {
    /// Fewer than two usable data points were supplied.
    TooFewPoints {
        /// Number of usable points found.
        found: usize,
    },
    /// All x-values are identical, so no slope can be estimated.
    DegenerateDesign,
    /// A sample fell outside the domain of the model being fitted
    /// (e.g. a duration at or beyond `D` for the polynomial model).
    OutOfDomain {
        /// The offending duration in seconds.
        duration: f64,
    },
}

impl fmt::Display for SurveyFitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurveyFitError::TooFewPoints { found } => {
                write!(f, "need at least two usable survey points, found {found}")
            }
            SurveyFitError::DegenerateDesign => {
                write!(f, "survey points share a single x-value; slope is undefined")
            }
            SurveyFitError::OutOfDomain { duration } => {
                write!(f, "duration {duration}s is outside the model domain")
            }
        }
    }
}

impl Error for SurveyFitError {}

/// Sampling rates of the grid study, in kHz.
pub const SURVEY_RATES_KHZ: [u32; 4] = [8, 16, 32, 44];

/// Durations of the grid study, in seconds.
pub const SURVEY_DURATIONS_SECS: [f64; 5] = [5.0, 10.0, 20.0, 30.0, 40.0];

/// Mean survey scores for each (rate, duration) cell of the grid study,
/// modeled after the paper's description: scores span 0.3–3.3 and exactly
/// six cells survive Pareto pruning.
///
/// Rows follow [`SURVEY_RATES_KHZ`], columns follow
/// [`SURVEY_DURATIONS_SECS`]. Low-rate audio *loses* appeal at long
/// durations (listening to 40 s of 8 kHz audio is unpleasant), which is what
/// produces the dominated region of Fig. 2(a).
pub const SURVEY_GRID_SCORES: [[f64; 5]; 4] = [
    [0.30, 0.50, 0.45, 0.40, 0.35], // 8 kHz
    [0.90, 1.40, 1.60, 1.55, 1.50], // 16 kHz
    [1.10, 1.55, 1.58, 1.60, 1.60], // 32 kHz
    [1.20, 1.55, 2.90, 2.90, 3.30], // 44 kHz
];

/// A labeled cell of the grid study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Sampling rate in kHz.
    pub rate_khz: u32,
    /// Sample duration in seconds.
    pub duration_secs: f64,
    /// Uncompressed sample size in bytes (16-bit mono PCM).
    pub size: u64,
    /// Mean survey score (0–5 scale).
    pub score: f64,
}

impl GridCell {
    /// Converts the cell into a [`CandidatePresentation`] for Pareto
    /// pruning; `label_id` encodes `rate_index * 5 + duration_index`.
    pub fn to_candidate(&self, label_id: usize) -> CandidatePresentation {
        CandidatePresentation { size: self.size, utility: self.score, label_id }
    }
}

/// Materializes the 20-cell grid study (Fig. 2(a) input).
///
/// Sizes assume 16-bit mono PCM: `rate_khz × 1000 × 2` bytes per second.
///
/// ```
/// use richnote_sim::survey::survey_grid;
/// let grid = survey_grid();
/// assert_eq!(grid.len(), 20);
/// ```
pub fn survey_grid() -> Vec<GridCell> {
    let mut cells = Vec::with_capacity(20);
    for (ri, &rate) in SURVEY_RATES_KHZ.iter().enumerate() {
        for (di, &d) in SURVEY_DURATIONS_SECS.iter().enumerate() {
            let bytes_per_sec = u64::from(rate) * 1000 * 2;
            cells.push(GridCell {
                rate_khz: rate,
                duration_secs: d,
                size: (d * bytes_per_sec as f64).round() as u64,
                score: SURVEY_GRID_SCORES[ri][di],
            });
        }
    }
    cells
}

/// One participant's stop duration in the duration study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopResponse {
    /// Duration (seconds) at which the participant stopped the sample.
    pub stop_secs: f64,
}

/// Synthesizes a duration-study population of `n` participants.
///
/// Stop durations are drawn so their CDF follows the paper's logarithmic
/// utility curve (Eq. 8) with multiplicative noise of relative magnitude
/// `noise` — inverting `u = a + b·ln(1 + d)` gives
/// `d = exp((u − a)/b) − 1` for a uniform quantile `u`.
pub fn synthesize_stop_survey<R: Rng>(rng: &mut R, n: usize, noise: f64) -> Vec<StopResponse> {
    let (a, b) = (paper::LOG_UTILITY_A, paper::LOG_UTILITY_B);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            let d = ((u - a) / b).exp() - 1.0;
            let jitter = 1.0 + noise * rng.gen_range(-1.0..1.0);
            StopResponse { stop_secs: (d * jitter).clamp(0.5, paper::SURVEY_MEAN_TRACK_SECS) }
        })
        .collect()
}

/// Converts stop responses into `(duration, utility)` points by evaluating
/// the empirical CDF at `grid` durations — "CDF of duration is translated
/// into utility value" (Sec. V-B).
pub fn empirical_utility(responses: &[StopResponse], grid: &[f64]) -> Vec<(f64, f64)> {
    let n = responses.len().max(1) as f64;
    grid.iter()
        .map(|&d| {
            let below = responses.iter().filter(|r| r.stop_secs <= d).count() as f64;
            (d, below / n)
        })
        .collect()
}

/// Fits the logarithmic model `util(d) = a + b·ln(1 + d)` (Eq. 8) by
/// ordinary least squares on `x = ln(1 + d)`.
///
/// # Errors
///
/// Returns [`SurveyFitError`] when fewer than two points are supplied or
/// all durations coincide.
pub fn fit_logarithmic(points: &[(f64, f64)]) -> Result<DurationUtility, SurveyFitError> {
    let xy: Vec<(f64, f64)> = points.iter().map(|&(d, u)| ((1.0 + d).ln(), u)).collect();
    let (a, b) = least_squares(&xy)?;
    Ok(DurationUtility::Logarithmic { a, b })
}

/// Fits the polynomial model `util(d) = a·(1 − d/D)^b` (Eq. 9) by linear
/// regression in log–log space: `ln u = ln a + b·ln(1 − d/D)`.
///
/// Points with `u ≤ 0` are skipped (outside the log domain); points with
/// `d ≥ D` are rejected.
///
/// # Errors
///
/// Returns [`SurveyFitError`] on out-of-domain durations or when fewer than
/// two usable points remain.
pub fn fit_polynomial(
    points: &[(f64, f64)],
    d_max: f64,
) -> Result<DurationUtility, SurveyFitError> {
    let mut xy = Vec::with_capacity(points.len());
    for &(d, u) in points {
        if d >= d_max {
            return Err(SurveyFitError::OutOfDomain { duration: d });
        }
        if u > 0.0 {
            xy.push(((1.0 - d / d_max).ln(), u.ln()));
        }
    }
    let (ln_a, b) = least_squares(&xy)?;
    Ok(DurationUtility::Polynomial { a: ln_a.exp(), b, d_max })
}

/// Ordinary least squares for `y = a + b·x`; returns `(a, b)`.
fn least_squares(xy: &[(f64, f64)]) -> Result<(f64, f64), SurveyFitError> {
    if xy.len() < 2 {
        return Err(SurveyFitError::TooFewPoints { found: xy.len() });
    }
    let n = xy.len() as f64;
    let sx: f64 = xy.iter().map(|p| p.0).sum();
    let sy: f64 = xy.iter().map(|p| p.1).sum();
    let sxx: f64 = xy.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = xy.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return Err(SurveyFitError::DegenerateDesign);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    Ok((a, b))
}

/// Outcome of the Fig. 2(b) comparison: both fits plus their SSE against the
/// empirical points. The paper finds the logarithmic fit better.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitComparison {
    /// Fitted logarithmic model.
    pub logarithmic: DurationUtility,
    /// Fitted polynomial model.
    pub polynomial: DurationUtility,
    /// Sum of squared errors of the logarithmic fit.
    pub log_sse: f64,
    /// Sum of squared errors of the polynomial fit.
    pub poly_sse: f64,
}

impl FitComparison {
    /// Runs both fits against empirical `(duration, utility)` points.
    ///
    /// # Errors
    ///
    /// Propagates [`SurveyFitError`] from either fit.
    pub fn fit(points: &[(f64, f64)], d_max: f64) -> Result<Self, SurveyFitError> {
        let logarithmic = fit_logarithmic(points)?;
        let polynomial = fit_polynomial(points, d_max)?;
        Ok(Self {
            log_sse: logarithmic.sse(points),
            poly_sse: polynomial.sse(points),
            logarithmic,
            polynomial,
        })
    }

    /// Whether the logarithmic model fits at least as well, as in the paper.
    pub fn log_fits_better(&self) -> bool {
        self.log_sse <= self.poly_sse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use richnote_core::presentation::pareto_frontier;

    #[test]
    fn grid_has_twenty_cells_with_paper_score_range() {
        let grid = survey_grid();
        assert_eq!(grid.len(), 20);
        let min = grid.iter().map(|c| c.score).fold(f64::INFINITY, f64::min);
        let max = grid.iter().map(|c| c.score).fold(f64::NEG_INFINITY, f64::max);
        assert!((min - 0.3).abs() < 1e-12);
        assert!((max - 3.3).abs() < 1e-12);
    }

    #[test]
    fn grid_prunes_to_six_useful_presentations() {
        // Matches the paper: "resulted in only six useful presentations".
        let grid = survey_grid();
        let cands: Vec<_> = grid.iter().enumerate().map(|(i, c)| c.to_candidate(i)).collect();
        let frontier = pareto_frontier(&cands);
        assert_eq!(frontier.len(), 6, "{frontier:?}");
    }

    #[test]
    fn grid_sizes_follow_pcm_arithmetic() {
        let grid = survey_grid();
        let cell = grid.iter().find(|c| c.rate_khz == 16 && c.duration_secs == 10.0).unwrap();
        assert_eq!(cell.size, 320_000);
    }

    #[test]
    fn synthetic_stop_survey_recovers_log_constants() {
        let mut rng = SmallRng::seed_from_u64(7);
        let responses = synthesize_stop_survey(&mut rng, 20_000, 0.02);
        let grid: Vec<f64> = (1..=45).map(f64::from).collect();
        let points = empirical_utility(&responses, &grid);
        let fitted = fit_logarithmic(&points).unwrap();
        match fitted {
            DurationUtility::Logarithmic { a, b } => {
                assert!((a - paper::LOG_UTILITY_A).abs() < 0.08, "a = {a}");
                assert!((b - paper::LOG_UTILITY_B).abs() < 0.04, "b = {b}");
            }
            other => panic!("expected logarithmic, got {other:?}"),
        }
    }

    #[test]
    fn log_fits_better_than_poly_like_fig2b() {
        let mut rng = SmallRng::seed_from_u64(11);
        let responses = synthesize_stop_survey(&mut rng, 5_000, 0.05);
        let grid: Vec<f64> = (2..40).step_by(2).map(f64::from).collect();
        let points = empirical_utility(&responses, &grid);
        let cmp = FitComparison::fit(&points, 60.0).unwrap();
        assert!(cmp.log_fits_better(), "log {} vs poly {}", cmp.log_sse, cmp.poly_sse);
    }

    #[test]
    fn empirical_utility_is_a_cdf() {
        let responses: Vec<StopResponse> =
            [2.0, 4.0, 8.0, 16.0].iter().map(|&d| StopResponse { stop_secs: d }).collect();
        let points = empirical_utility(&responses, &[1.0, 4.0, 20.0]);
        assert_eq!(points[0].1, 0.0);
        assert_eq!(points[1].1, 0.5);
        assert_eq!(points[2].1, 1.0);
    }

    #[test]
    fn survey_error_reports_counts() {
        let msg = SurveyFitError::TooFewPoints { found: 1 }.to_string();
        assert!(msg.contains("found 1"));
    }

    #[test]
    fn fit_rejects_too_few_points() {
        assert!(matches!(
            fit_logarithmic(&[(5.0, 0.2)]),
            Err(SurveyFitError::TooFewPoints { found: 1 })
        ));
    }

    #[test]
    fn fit_rejects_degenerate_design() {
        let pts = [(5.0, 0.2), (5.0, 0.4), (5.0, 0.6)];
        assert_eq!(fit_logarithmic(&pts), Err(SurveyFitError::DegenerateDesign));
    }

    #[test]
    fn poly_fit_rejects_out_of_domain() {
        let pts = [(5.0, 0.2), (45.0, 0.9)];
        assert!(matches!(fit_polynomial(&pts, 40.0), Err(SurveyFitError::OutOfDomain { .. })));
    }

    #[test]
    fn poly_fit_recovers_known_curve() {
        let truth = DurationUtility::Polynomial { a: 0.253, b: 2.087, d_max: 40.0 };
        let pts: Vec<(f64, f64)> =
            [2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0].iter().map(|&d| (d, truth.eval(d))).collect();
        match fit_polynomial(&pts, 40.0).unwrap() {
            DurationUtility::Polynomial { a, b, .. } => {
                assert!((a - 0.253).abs() < 1e-6);
                assert!((b - 2.087).abs() < 1e-6);
            }
            other => panic!("expected polynomial, got {other:?}"),
        }
    }

    #[test]
    fn log_fit_recovers_known_curve_exactly() {
        let truth = DurationUtility::paper_logarithmic();
        let pts: Vec<(f64, f64)> =
            [5.0, 10.0, 20.0, 40.0].iter().map(|&d| (d, truth.eval(d))).collect();
        match fit_logarithmic(&pts).unwrap() {
            DurationUtility::Logarithmic { a, b } => {
                assert!((a - paper::LOG_UTILITY_A).abs() < 1e-9);
                assert!((b - paper::LOG_UTILITY_B).abs() < 1e-9);
            }
            other => panic!("expected logarithmic, got {other:?}"),
        }
    }
}
