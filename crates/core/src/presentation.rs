//! Presentation levels for rich notifications (Sec. III-B).
//!
//! A content item can be notified at one of several discrete *presentation
//! levels*: level 0 means "not sent" (zero size, zero utility), level 1 is
//! the smallest deliverable presentation (essential metadata only), and
//! successive levels enrich the notification with progressively longer media
//! samples. Levels are strictly ordered by size *and* utility — dominated
//! combinations are pruned away, which is exactly the Pareto-frontier
//! argument of Fig. 2(a).

use crate::error::LadderError;
use crate::paper;
use crate::utility::DurationUtility;
use serde::{Deserialize, Serialize};

/// One presentation of a content item: a (size, utility) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Presentation {
    /// Level index within the ladder (0 = not sent).
    pub level: u8,
    /// Size in bytes of this presentation, `s(i, j)`.
    pub size: u64,
    /// Presentation utility `Up(i, j)` relative to the full content.
    pub utility: f64,
}

/// An ordered, validated set of presentations for one content item.
///
/// Invariants (checked at construction):
/// * level 0 exists, with zero size and zero utility;
/// * at least one deliverable level (level ≥ 1) exists;
/// * sizes and utilities are strictly increasing with level;
/// * all utilities are finite.
///
/// # Examples
///
/// ```
/// use richnote_core::presentation::AudioPresentationSpec;
///
/// let ladder = AudioPresentationSpec::paper_default().ladder();
/// assert_eq!(ladder.max_level(), 6); // metadata + five preview durations
/// assert_eq!(ladder.get(1).size, 200); // metadata-only level
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresentationLadder {
    levels: Vec<Presentation>,
}

impl PresentationLadder {
    /// Builds a ladder from deliverable presentations (level 0 is implied
    /// and prepended automatically).
    ///
    /// The `(size, utility)` pairs must be given in increasing level order.
    ///
    /// # Errors
    ///
    /// Returns [`LadderError`] if the pairs are empty, non-monotone, or
    /// contain non-finite utilities.
    pub fn new(deliverable: Vec<(u64, f64)>) -> Result<Self, LadderError> {
        if deliverable.is_empty() {
            return Err(LadderError::Empty);
        }
        let mut levels = Vec::with_capacity(deliverable.len() + 1);
        levels.push(Presentation { level: 0, size: 0, utility: 0.0 });
        for (idx, (size, utility)) in deliverable.into_iter().enumerate() {
            let level = (idx + 1) as u8;
            if !utility.is_finite() {
                return Err(LadderError::NonFiniteUtility { level });
            }
            levels.push(Presentation { level, size, utility });
        }
        Self::validate(&levels)?;
        Ok(Self { levels })
    }

    fn validate(levels: &[Presentation]) -> Result<(), LadderError> {
        let base = &levels[0];
        if base.size != 0 || base.utility != 0.0 {
            return Err(LadderError::NonZeroBase);
        }
        for pair in levels.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            if hi.size <= lo.size {
                return Err(LadderError::NonMonotoneSize { level: lo.level });
            }
            if hi.utility <= lo.utility {
                return Err(LadderError::NonMonotoneUtility { level: lo.level });
            }
        }
        Ok(())
    }

    /// The presentation at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level > self.max_level()`.
    pub fn get(&self, level: u8) -> Presentation {
        self.levels[level as usize]
    }

    /// Highest available level, `k_i`.
    pub fn max_level(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// Clamps a requested level to the highest available one. Useful for
    /// fixed-level baselines applied to ladders of differing depth.
    pub fn clamp_level(&self, level: u8) -> u8 {
        level.min(self.max_level())
    }

    /// Iterates over all levels including level 0.
    pub fn iter(&self) -> std::slice::Iter<'_, Presentation> {
        self.levels.iter()
    }

    /// Total size of **all** presentations of the item,
    /// `s(i) = Σ_j s(i, j)` — the quantity the Lyapunov scheduling queue
    /// `Q(t)` is measured in (Sec. IV).
    pub fn total_size(&self) -> u64 {
        self.levels.iter().map(|p| p.size).sum()
    }

    /// The (size, utility) pairs of deliverable levels (level ≥ 1).
    pub fn deliverable(&self) -> &[Presentation] {
        &self.levels[1..]
    }
}

impl<'a> IntoIterator for &'a PresentationLadder {
    type Item = &'a Presentation;
    type IntoIter = std::slice::Iter<'a, Presentation>;

    fn into_iter(self) -> Self::IntoIter {
        self.levels.iter()
    }
}

/// Specification of audio presentations: metadata plus preview clips of
/// increasing duration at a fixed bitrate (the paper's Spotify setup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AudioPresentationSpec {
    /// Metadata size in bytes (level 1).
    pub metadata_bytes: u64,
    /// Preview durations in seconds for levels 2..
    pub preview_secs: Vec<f64>,
    /// Bytes per second of preview audio.
    pub bytes_per_sec: u64,
    /// Fraction of total presentation utility attributed to metadata.
    pub metadata_utility_fraction: f64,
    /// Duration→utility model for the audio part.
    pub duration_utility: DurationUtility,
}

impl AudioPresentationSpec {
    /// The paper's configuration: 200-byte metadata, previews of
    /// 5/10/20/30/40 s at 20 KB/s (160 kbps), 1% metadata utility, and the
    /// logarithmic duration-utility function of Eq. 8.
    pub fn paper_default() -> Self {
        Self {
            metadata_bytes: paper::METADATA_BYTES,
            preview_secs: paper::PREVIEW_DURATIONS_SECS.to_vec(),
            bytes_per_sec: paper::PREVIEW_BYTES_PER_SEC,
            metadata_utility_fraction: paper::METADATA_UTILITY_FRACTION,
            duration_utility: DurationUtility::paper_logarithmic(),
        }
    }

    /// Materializes the presentation ladder for this spec.
    ///
    /// Level 1 carries `metadata_utility_fraction` of the utility scale;
    /// levels 2.. add the duration-utility of their preview on top.
    ///
    /// # Panics
    ///
    /// Panics if the spec produces a non-monotone ladder (cannot happen for
    /// positive durations with a monotone duration-utility model).
    pub fn ladder(&self) -> PresentationLadder {
        self.try_ladder().expect("audio presentation spec must produce a monotone ladder")
    }

    /// Fallible variant of [`Self::ladder`].
    ///
    /// # Errors
    ///
    /// Returns [`LadderError`] when the configured durations or utility
    /// model yield non-monotone sizes or utilities.
    pub fn try_ladder(&self) -> Result<PresentationLadder, LadderError> {
        let mut levels = Vec::with_capacity(self.preview_secs.len() + 1);
        levels.push((self.metadata_bytes, self.metadata_utility_fraction));
        for &d in &self.preview_secs {
            let size = self.metadata_bytes + (d * self.bytes_per_sec as f64).round() as u64;
            let audio_utility = self.duration_utility.eval(d).max(0.0);
            let utility = self.metadata_utility_fraction
                + (1.0 - self.metadata_utility_fraction) * audio_utility;
            levels.push((size, utility));
        }
        PresentationLadder::new(levels)
    }
}

impl Default for AudioPresentationSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A raw candidate presentation from a survey cell, before Pareto pruning
/// (Fig. 2(a)): e.g. one (sampling-rate × duration) combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidatePresentation {
    /// Size in bytes.
    pub size: u64,
    /// Surveyed utility score.
    pub utility: f64,
    /// Free-form label (e.g. "16KHz/10s") carried through pruning.
    pub label_id: usize,
}

/// Computes the Pareto frontier of useful presentations (Fig. 2(a)).
///
/// A candidate is *useful* iff no other candidate has both `size ≤` and
/// `utility ≥` it (with at least one strict). The survey in the paper
/// reduced 20 sampling-rate × duration combinations to six useful ones this
/// way. The result is sorted by size and strictly increasing in both size
/// and utility, so it is directly usable as a [`PresentationLadder`].
///
/// # Examples
///
/// ```
/// use richnote_core::presentation::{pareto_frontier, CandidatePresentation};
///
/// let cands = vec![
///     CandidatePresentation { size: 100, utility: 1.0, label_id: 0 }, // A
///     CandidatePresentation { size: 200, utility: 1.0, label_id: 1 }, // B: dominated by A
///     CandidatePresentation { size: 200, utility: 2.0, label_id: 2 }, // D
/// ];
/// let frontier = pareto_frontier(&cands);
/// assert_eq!(frontier.iter().map(|c| c.label_id).collect::<Vec<_>>(), vec![0, 2]);
/// ```
pub fn pareto_frontier(candidates: &[CandidatePresentation]) -> Vec<CandidatePresentation> {
    let mut sorted: Vec<CandidatePresentation> = candidates.to_vec();
    // Sort by size ascending; among equal sizes keep the highest utility first.
    sorted.sort_by(|a, b| {
        a.size
            .cmp(&b.size)
            .then(b.utility.partial_cmp(&a.utility).unwrap_or(std::cmp::Ordering::Equal))
    });
    let mut frontier: Vec<CandidatePresentation> = Vec::new();
    for cand in sorted {
        match frontier.last() {
            Some(last) if cand.size == last.size => continue, // same size, lower utility
            Some(last) if cand.utility <= last.utility => continue, // bigger but not better
            _ => frontier.push(cand),
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_has_six_deliverable_levels() {
        let ladder = AudioPresentationSpec::paper_default().ladder();
        assert_eq!(ladder.max_level(), 6);
        assert_eq!(ladder.get(0).size, 0);
        assert_eq!(ladder.get(1).size, 200);
        // 5-second preview: 200 + 5×20000 bytes.
        assert_eq!(ladder.get(2).size, 100_200);
        // 40-second preview.
        assert_eq!(ladder.get(6).size, 800_200);
    }

    #[test]
    fn paper_ladder_utilities_are_strictly_increasing() {
        let ladder = AudioPresentationSpec::paper_default().ladder();
        let utils: Vec<f64> = ladder.iter().map(|p| p.utility).collect();
        for w in utils.windows(2) {
            assert!(w[1] > w[0], "{:?}", utils);
        }
    }

    #[test]
    fn paper_ladder_shows_diminishing_returns_per_byte() {
        // The marginal utility per byte must decrease with level — the
        // "diminishing returns" property of Sec. III-A.
        let ladder = AudioPresentationSpec::paper_default().ladder();
        let mut last_gradient = f64::INFINITY;
        for w in ladder.deliverable().windows(2) {
            let g = (w[1].utility - w[0].utility) / (w[1].size - w[0].size) as f64;
            assert!(g < last_gradient, "gradient must shrink: {g} vs {last_gradient}");
            last_gradient = g;
        }
    }

    #[test]
    fn empty_ladder_is_rejected() {
        assert_eq!(PresentationLadder::new(vec![]), Err(LadderError::Empty));
    }

    #[test]
    fn non_monotone_size_is_rejected() {
        let err = PresentationLadder::new(vec![(100, 0.1), (100, 0.2)]).unwrap_err();
        assert_eq!(err, LadderError::NonMonotoneSize { level: 1 });
    }

    #[test]
    fn non_monotone_utility_is_rejected() {
        let err = PresentationLadder::new(vec![(100, 0.2), (200, 0.2)]).unwrap_err();
        assert_eq!(err, LadderError::NonMonotoneUtility { level: 1 });
    }

    #[test]
    fn non_finite_utility_is_rejected() {
        let err = PresentationLadder::new(vec![(100, f64::NAN)]).unwrap_err();
        assert_eq!(err, LadderError::NonFiniteUtility { level: 1 });
    }

    #[test]
    fn total_size_sums_all_presentations() {
        let ladder = PresentationLadder::new(vec![(100, 0.1), (300, 0.2)]).unwrap();
        assert_eq!(ladder.total_size(), 400);
    }

    #[test]
    fn clamp_level_saturates() {
        let ladder = PresentationLadder::new(vec![(100, 0.1), (300, 0.2)]).unwrap();
        assert_eq!(ladder.clamp_level(1), 1);
        assert_eq!(ladder.clamp_level(9), 2);
    }

    #[test]
    fn pareto_drops_dominated_points_like_fig2a() {
        // Mirror of Fig. 2(a): B is useless given A (same utility, larger),
        // C is useless given D (same size, lower utility).
        let cands = vec![
            CandidatePresentation { size: 10, utility: 1.0, label_id: 0 }, // A
            CandidatePresentation { size: 20, utility: 1.0, label_id: 1 }, // B
            CandidatePresentation { size: 30, utility: 1.5, label_id: 2 }, // C
            CandidatePresentation { size: 30, utility: 2.0, label_id: 3 }, // D
            CandidatePresentation { size: 40, utility: 3.0, label_id: 4 }, // E
        ];
        let f = pareto_frontier(&cands);
        let ids: Vec<usize> = f.iter().map(|c| c.label_id).collect();
        assert_eq!(ids, vec![0, 3, 4]);
    }

    #[test]
    fn pareto_frontier_is_strictly_monotone() {
        let cands: Vec<CandidatePresentation> = (0..50)
            .map(|i| CandidatePresentation {
                size: (i * 37) % 101 + 1,
                utility: ((i * 53) % 17) as f64 / 4.0,
                label_id: i as usize,
            })
            .collect();
        let f = pareto_frontier(&cands);
        for w in f.windows(2) {
            assert!(w[1].size > w[0].size);
            assert!(w[1].utility > w[0].utility);
        }
    }

    #[test]
    fn pareto_of_empty_is_empty() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn frontier_forms_a_valid_ladder() {
        let cands = vec![
            CandidatePresentation { size: 10, utility: 0.5, label_id: 0 },
            CandidatePresentation { size: 25, utility: 1.25, label_id: 1 },
            CandidatePresentation { size: 12, utility: 0.4, label_id: 2 },
        ];
        let f = pareto_frontier(&cands);
        let ladder =
            PresentationLadder::new(f.iter().map(|c| (c.size, c.utility)).collect()).unwrap();
        assert_eq!(ladder.max_level(), 2);
    }
}
