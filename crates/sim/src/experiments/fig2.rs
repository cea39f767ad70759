//! Fig. 2: presentation utility from user surveys.
//!
//! * Fig. 2(a): the 20-cell rate × duration grid study collapses to six
//!   useful presentations under Pareto pruning.
//! * Fig. 2(b): the duration-study CDF is fitted by the logarithmic (Eq. 8)
//!   and polynomial (Eq. 9) models; the logarithmic fit wins.

use crate::report::{f3, Table};
use crate::survey::{
    empirical_utility, survey_grid, synthesize_stop_survey, FitComparison, GridCell,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use richnote_core::presentation::{pareto_frontier, CandidatePresentation};
use richnote_core::utility::DurationUtility;
use serde::{Deserialize, Serialize};

/// Result of the Fig. 2(a) grid-study pruning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2aReport {
    /// All 20 grid cells.
    pub cells: Vec<GridCell>,
    /// Indices (into `cells`) of the useful presentations.
    pub useful: Vec<usize>,
}

impl Fig2aReport {
    /// Renders the grid with a "useful" marker per cell.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 2(a): rate x duration survey grid -> Pareto-useful presentations",
            &["rate_khz", "duration_s", "size_kb", "score", "useful"],
        );
        for (i, c) in self.cells.iter().enumerate() {
            t.push_row(vec![
                format!("{}", c.rate_khz),
                format!("{}", c.duration_secs),
                format!("{}", c.size / 1000),
                f3(c.score),
                if self.useful.contains(&i) { "*".into() } else { "".into() },
            ]);
        }
        t
    }
}

/// Runs the Fig. 2(a) pruning.
pub fn run_fig2a() -> Fig2aReport {
    let cells = survey_grid();
    let cands: Vec<CandidatePresentation> =
        cells.iter().enumerate().map(|(i, c)| c.to_candidate(i)).collect();
    let useful = pareto_frontier(&cands).iter().map(|c| c.label_id).collect();
    Fig2aReport { cells, useful }
}

/// Result of the Fig. 2(b) fit comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2bReport {
    /// Empirical `(duration, utility)` points from the synthetic survey.
    pub points: Vec<(f64, f64)>,
    /// Both fits and their SSE.
    pub fits: FitComparison,
    /// The paper's published logarithmic model for reference.
    pub paper_log: DurationUtility,
}

impl Fig2bReport {
    /// Renders the point-wise comparison and the fit summary.
    pub fn tables(&self) -> Vec<Table> {
        let mut pts = Table::new(
            "Fig. 2(b): empirical duration utility vs fitted models",
            &["duration_s", "empirical", "log_fit", "poly_fit", "paper_eq8"],
        );
        for &(d, u) in &self.points {
            pts.push_row(vec![
                format!("{d}"),
                f3(u),
                f3(self.fits.logarithmic.eval(d)),
                f3(self.fits.polynomial.eval(d)),
                f3(self.paper_log.eval(d)),
            ]);
        }
        let mut summary = Table::new(
            "Fig. 2(b): goodness of fit (paper: logarithmic fits better)",
            &["model", "sse", "winner"],
        );
        let log_wins = self.fits.log_fits_better();
        summary.push_row(vec![
            "logarithmic (Eq. 8)".into(),
            format!("{:.5}", self.fits.log_sse),
            if log_wins { "*".into() } else { "".into() },
        ]);
        summary.push_row(vec![
            "polynomial (Eq. 9)".into(),
            format!("{:.5}", self.fits.poly_sse),
            if log_wins { "".into() } else { "*".into() },
        ]);
        vec![pts, summary]
    }
}

/// Runs the Fig. 2(b) survey synthesis + regression comparison.
///
/// # Panics
///
/// Panics if the synthetic survey is degenerate (cannot happen for
/// `participants ≥ 2`).
pub fn run_fig2b(seed: u64, participants: usize) -> Fig2bReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let responses = synthesize_stop_survey(&mut rng, participants, 0.08);
    let grid: Vec<f64> = (1..=8).map(|i| i as f64 * 5.0).collect();
    let points = empirical_utility(&responses, &grid);
    let fits = FitComparison::fit(&points, 60.0).expect("survey fit succeeds");
    Fig2bReport { points, fits, paper_log: DurationUtility::paper_logarithmic() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_reports_six_useful() {
        let r = run_fig2a();
        assert_eq!(r.cells.len(), 20);
        assert_eq!(r.useful.len(), 6);
        assert_eq!(r.table().n_rows(), 20);
    }

    #[test]
    fn fig2b_log_wins_with_survey_scale_population() {
        // 80 participants, as in the paper's duration study.
        let r = run_fig2b(1, 80);
        assert!(r.fits.log_fits_better(), "log {} poly {}", r.fits.log_sse, r.fits.poly_sse);
        assert_eq!(r.tables().len(), 2);
    }

    #[test]
    fn fig2b_fitted_constants_near_paper() {
        let r = run_fig2b(2, 5_000);
        if let DurationUtility::Logarithmic { a, b } = r.fits.logarithmic {
            assert!((a - richnote_core::paper::LOG_UTILITY_A).abs() < 0.15, "a={a}");
            assert!((b - richnote_core::paper::LOG_UTILITY_B).abs() < 0.08, "b={b}");
        } else {
            panic!("log fit expected");
        }
    }
}
