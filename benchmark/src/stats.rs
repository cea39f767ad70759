//! Order statistics for the benchmark's own reporting: medians, nearest-rank
//! percentiles, the "ten samples beyond" rule for tail percentiles, and the
//! quartile spread `--repeat` judges steadiness by.

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Sorts `v` ascending (total order, so a stray NaN cannot panic).
pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a percentile needs so that at least ten lie beyond it.
pub fn samples_needed(p: f64) -> usize {
    (10.0 / (1.0 - p)).ceil() as usize
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` below twenty samples, where not even the
/// median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|&p| samples_needed(p) <= n)
}

/// Median, first and third quartile, and `(q3 - q1) / median` of a sample,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) so the numbers match the driver's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub relative: f64,
}

pub fn spread(v: &[f64]) -> Spread {
    assert!(v.len() >= 2, "spread needs two samples");
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    let quantile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, linear interpolation.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    let (q1, q3) = (quantile(1), quantile(3));
    let median = median(&s);
    let relative = if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() };
    Spread { median, q1, q3, relative }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.50));
        assert_eq!(supported_tail(39), Some(0.50));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(9_999), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        for p in TAIL_LADDER {
            let n = samples_needed(p);
            assert!((n as f64 * (1.0 - p)).round() >= 10.0, "p{p} with {n} samples");
        }
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12 && (s.q3 - 8.25).abs() < 1e-12);
        assert_eq!(s.median, 5.5);
        assert!((s.relative - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        let s = spread(&[10.0, 12.0, 11.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 11.0, 12.0));
    }
}
