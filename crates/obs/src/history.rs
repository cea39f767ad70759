//! A fixed-memory ring of registry snapshots with windowed queries.
//!
//! [`MetricsHistory`] keeps the last `capacity` [`RegistrySnapshot`]s,
//! each stamped with a caller-supplied timestamp (seconds). Time is
//! driven explicitly — the daemon stamps samples
//! with virtual tick time (`rounds × round_secs`), so a replayed capture
//! produces byte-identical history, and the simulator can feed synthetic
//! clocks.
//!
//! [`MetricsHistory::query`] answers "what happened to this family over
//! the last N seconds": per-series and aggregate deltas, rates, a
//! per-interval rate trail (for sparklines), and — for histogram
//! families — windowed p50/p95/p99 computed over bucket-count deltas.
//!
//! # Memory
//!
//! The ring owns at most `capacity` snapshots; recording a snapshot once
//! the ring is full drops the oldest, so steady-state memory is bounded
//! by `capacity × snapshot size` and the ring itself performs no
//! steady-state allocation (it takes ownership of snapshots the caller
//! already built). Queries are cold-path and allocate their results.

use crate::hist::{Log2Histogram, BUCKETS};
use crate::registry::{MetricKind, MetricValue, RegistrySnapshot, SeriesSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Default number of snapshots retained.
pub const DEFAULT_HISTORY_CAPACITY: usize = 128;

/// A windowed query: which counter family, an optional label filter
/// (every listed pair must be present on a series for it to match), and
/// how far back to look from the newest sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryQuery {
    /// Family name, e.g. `richnote_utility_total`.
    pub family: String,
    /// Label pairs a series must carry to match (empty = all series).
    pub labels: Vec<(String, String)>,
    /// Window length in seconds, measured back from the newest sample.
    pub window_secs: f64,
}

/// Windowed quantiles of a histogram family (µs), computed over the
/// bucket-count deltas inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowQuantiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// One series (or the aggregate) over the queried window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesWindow {
    /// The series' labels (for the aggregate: the query's label filter).
    pub labels: Vec<(String, String)>,
    /// Value at the window's baseline sample (counter/gauge value;
    /// histogram sample count).
    pub first: f64,
    /// Value at the newest sample.
    pub last: f64,
    /// `last - first` (clamped at 0 for counters and histogram counts).
    pub delta: f64,
    /// `delta` divided by the window's covered span (0 when the span is
    /// empty).
    pub rate: f64,
    /// Per-interval rates between consecutive samples, oldest first —
    /// the sparkline trail.
    pub points: Vec<f64>,
    /// Windowed quantiles; present only for histogram families.
    pub quantiles: Option<WindowQuantiles>,
}

/// Answer to a [`HistoryQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Echo of the queried family.
    pub family: String,
    /// The family's metric kind (`None` when the family is unknown).
    pub kind: Option<MetricKind>,
    /// Timestamp of the baseline sample used (seconds).
    pub from_secs: f64,
    /// Timestamp of the newest sample (seconds).
    pub to_secs: f64,
    /// Number of snapshots consulted (baseline included).
    pub samples: u64,
    /// Aggregate over every matching series.
    pub total: SeriesWindow,
    /// Each matching series individually, sorted by labels.
    pub series: Vec<SeriesWindow>,
}

impl QueryResult {
    fn empty(family: &str) -> Self {
        QueryResult {
            family: family.to_string(),
            kind: None,
            from_secs: 0.0,
            to_secs: 0.0,
            samples: 0,
            total: SeriesWindow::zero(Vec::new()),
            series: Vec::new(),
        }
    }
}

impl SeriesWindow {
    fn zero(labels: Vec<(String, String)>) -> Self {
        SeriesWindow {
            labels,
            first: 0.0,
            last: 0.0,
            delta: 0.0,
            rate: 0.0,
            points: Vec::new(),
            quantiles: None,
        }
    }
}

/// The history ring; see the module docs.
#[derive(Debug, Clone)]
pub struct MetricsHistory {
    capacity: usize,
    samples: VecDeque<(f64, RegistrySnapshot)>,
}

impl MetricsHistory {
    /// A ring retaining at most `capacity` snapshots (minimum 2, so a
    /// delta is always computable once two ticks have happened).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        MetricsHistory { capacity, samples: VecDeque::with_capacity(capacity) }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no snapshot has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<(f64, &RegistrySnapshot)> {
        self.samples.back().map(|(t, s)| (*t, s))
    }

    /// Records a snapshot at `now_secs` (caller-supplied time). Time must
    /// be non-decreasing: a sample at or before the newest retained
    /// timestamp *replaces* the newest sample instead of pushing, so the
    /// ring stays strictly increasing in time (re-ticking round 0, or a
    /// paused virtual clock, never corrupts window arithmetic).
    pub fn record(&mut self, now_secs: f64, snapshot: RegistrySnapshot) {
        if let Some((last, newest)) = self.samples.back_mut() {
            if now_secs <= *last {
                *newest = snapshot;
                return;
            }
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((now_secs, snapshot));
    }

    /// Answers a windowed query; see [`HistoryQuery`] and [`QueryResult`].
    ///
    /// The window covers `[to - window_secs, to]` where `to` is the newest
    /// sample's timestamp. The newest sample *before* the window (when one
    /// exists) serves as the baseline, so the delta spans the full window
    /// rather than starting at the first in-window sample. Series absent
    /// from older snapshots (cohorts registered later) count as 0 there,
    /// which matches counter semantics.
    pub fn query(&self, q: &HistoryQuery) -> QueryResult {
        let Some((to, newest)) = self.latest() else {
            return QueryResult::empty(&q.family);
        };
        let from = to - q.window_secs.max(0.0);
        // Baseline: the sample at the window start when one lands there
        // exactly, otherwise the newest sample before the window (so the
        // delta covers the full window, never less).
        let start = self.samples.partition_point(|(t, _)| *t < from);
        let base = if self.samples.get(start).is_some_and(|(t, _)| *t == from) {
            start
        } else {
            start.saturating_sub(1)
        };
        let used: Vec<&(f64, RegistrySnapshot)> = self.samples.iter().skip(base).collect();

        let Some(fam) = newest.family(&q.family) else {
            let mut r = QueryResult::empty(&q.family);
            r.from_secs = used[0].0;
            r.to_secs = to;
            r.samples = used.len() as u64;
            return r;
        };
        let kind = fam.kind;
        let matching: Vec<&SeriesSnapshot> =
            fam.series.iter().filter(|s| q.labels.iter().all(|p| s.labels.contains(p))).collect();

        let times: Vec<f64> = used.iter().map(|(t, _)| *t).collect();
        let mut series_out = Vec::with_capacity(matching.len());
        let mut total_values = vec![0.0f64; times.len()];
        let mut total_bucket_delta = vec![0u64; BUCKETS];
        let mut total_span_max = 0u64;
        for s in &matching {
            let values: Vec<f64> = used
                .iter()
                .map(|(_, snap)| scalar_value(snap, &q.family, &s.labels).unwrap_or(0.0))
                .collect();
            for (tv, v) in total_values.iter_mut().zip(&values) {
                *tv += v;
            }
            let quantiles = if kind == MetricKind::Histogram {
                let newest_hist = hist_value(newest, &q.family, &s.labels);
                let base_hist = hist_value(&used[0].1, &q.family, &s.labels);
                let delta = bucket_delta(newest_hist, base_hist);
                for (td, d) in total_bucket_delta.iter_mut().zip(&delta) {
                    *td += d;
                }
                if let Some(h) = newest_hist {
                    total_span_max = total_span_max.max(h.max_us());
                }
                Some(delta_quantiles(&delta, newest_hist))
            } else {
                None
            };
            series_out.push(window_of(s.labels.clone(), &times, &values, kind, quantiles));
        }

        let total_quantiles = (kind == MetricKind::Histogram)
            .then(|| quantiles_from_counts(&total_bucket_delta, total_span_max));
        let mut total = window_of(q.labels.clone(), &times, &total_values, kind, total_quantiles);
        if matching.is_empty() {
            total = SeriesWindow::zero(q.labels.clone());
        }

        QueryResult {
            family: q.family.clone(),
            kind: Some(kind),
            from_secs: times[0],
            to_secs: to,
            samples: times.len() as u64,
            total,
            series: series_out,
        }
    }
}

/// A series' value in one snapshot as a scalar: counter and gauge values
/// directly, a histogram's sample count. `None` when absent.
fn scalar_value(snap: &RegistrySnapshot, family: &str, labels: &[(String, String)]) -> Option<f64> {
    let fam = snap.family(family)?;
    let i = fam.series.binary_search_by(|s| s.labels.as_slice().cmp(labels)).ok()?;
    Some(match &fam.series[i].value {
        MetricValue::Counter(v) => *v as f64,
        MetricValue::Gauge(v) => *v,
        MetricValue::Histogram(h) => h.count() as f64,
    })
}

fn hist_value<'a>(
    snap: &'a RegistrySnapshot,
    family: &str,
    labels: &[(String, String)],
) -> Option<&'a Log2Histogram> {
    let fam = snap.family(family)?;
    let i = fam.series.binary_search_by(|s| s.labels.as_slice().cmp(labels)).ok()?;
    match &fam.series[i].value {
        MetricValue::Histogram(h) => Some(h),
        _ => None,
    }
}

/// Per-bucket count growth between the baseline and the newest histogram
/// (a missing baseline counts as empty).
fn bucket_delta(newest: Option<&Log2Histogram>, base: Option<&Log2Histogram>) -> Vec<u64> {
    let mut delta = vec![0u64; BUCKETS];
    let Some(new) = newest else {
        return delta;
    };
    for (i, d) in delta.iter_mut().enumerate() {
        let old = base.map_or(0, |b| b.bucket_counts()[i]);
        *d = new.bucket_counts()[i].saturating_sub(old);
    }
    delta
}

fn delta_quantiles(delta: &[u64], newest: Option<&Log2Histogram>) -> WindowQuantiles {
    quantiles_from_counts(delta, newest.map_or(u64::MAX, |h| h.max_us()))
}

/// Quantiles over raw bucket counts: the containing bucket's inclusive
/// upper bound, clamped to the histogram's lifetime maximum (conservative,
/// like [`Log2Histogram::quantile`], but computable on a count delta).
fn quantiles_from_counts(counts: &[u64], max_us: u64) -> WindowQuantiles {
    let total: u64 = counts.iter().sum();
    let at = |q: f64| -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Log2Histogram::bucket_upper_bound(i).min(max_us);
            }
        }
        Log2Histogram::bucket_upper_bound(BUCKETS - 1).min(max_us)
    };
    WindowQuantiles { p50: at(0.50), p95: at(0.95), p99: at(0.99) }
}

/// Builds one [`SeriesWindow`] from aligned time/value vectors.
fn window_of(
    labels: Vec<(String, String)>,
    times: &[f64],
    values: &[f64],
    kind: MetricKind,
    quantiles: Option<WindowQuantiles>,
) -> SeriesWindow {
    let clamp = |d: f64| if kind == MetricKind::Gauge { d } else { d.max(0.0) };
    let first = values.first().copied().unwrap_or(0.0);
    let last = values.last().copied().unwrap_or(0.0);
    let delta = clamp(last - first);
    let span = times.last().copied().unwrap_or(0.0) - times.first().copied().unwrap_or(0.0);
    let rate = if span > 0.0 { delta / span } else { 0.0 };
    let points = values
        .windows(2)
        .zip(times.windows(2))
        .map(|(v, t)| {
            let dt = t[1] - t[0];
            if dt > 0.0 {
                clamp(v[1] - v[0]) / dt
            } else {
                0.0
            }
        })
        .collect();
    SeriesWindow { labels, first, last, delta, rate, points, quantiles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use proptest::prelude::*;

    fn snap(pubs: u64, util: f64, lat_samples: &[u64]) -> RegistrySnapshot {
        let mut r = Registry::new();
        let c = r.counter("richnote_pubs_total", "pubs", &[("shard", "0")]);
        let g = r.gauge("richnote_utility_total", "utility", &[("policy", "RichNote")]);
        let h = r.histogram("richnote_selection_latency_us", "lat", &[("shard", "0")]);
        r.inc(c, pubs);
        r.set_gauge(g, util);
        for &us in lat_samples {
            r.observe_us(h, us);
        }
        r.snapshot()
    }

    fn query(family: &str, window: f64) -> HistoryQuery {
        HistoryQuery { family: family.to_string(), labels: Vec::new(), window_secs: window }
    }

    #[test]
    fn empty_history_answers_empty() {
        let h = MetricsHistory::new(8);
        let r = h.query(&query("richnote_pubs_total", 60.0));
        assert_eq!(r.samples, 0);
        assert_eq!(r.kind, None);
        assert!(r.series.is_empty());
    }

    #[test]
    fn counter_delta_and_rate_over_window() {
        let mut h = MetricsHistory::new(8);
        for (t, pubs) in [(0.0, 0), (10.0, 100), (20.0, 250), (30.0, 550)] {
            h.record(t, snap(pubs, 0.0, &[]));
        }
        // Window of 20 s back from t=30: baseline is the t=10 sample.
        let r = h.query(&query("richnote_pubs_total", 20.0));
        assert_eq!(r.kind, Some(MetricKind::Counter));
        assert_eq!(r.from_secs, 10.0);
        assert_eq!(r.to_secs, 30.0);
        assert_eq!(r.samples, 3);
        assert_eq!(r.total.delta, 450.0);
        assert!((r.total.rate - 22.5).abs() < 1e-12);
        assert_eq!(r.total.points, vec![15.0, 30.0]);
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].labels, vec![("shard".to_string(), "0".to_string())]);
    }

    #[test]
    fn counter_reset_spanning_a_restart_never_yields_negative_rates() {
        let mut h = MetricsHistory::new(8);
        h.record(10.0, snap(100, 0.0, &[]));
        h.record(20.0, snap(120, 0.0, &[]));
        // Daemon restart mid-window: the counter starts over near zero.
        h.record(30.0, snap(5, 0.0, &[]));
        h.record(40.0, snap(25, 0.0, &[]));
        let r = h.query(&query("richnote_pubs_total", 30.0));
        assert_eq!(r.samples, 4);
        // The endpoint delta clamps to zero rather than going negative —
        // alert rules dividing by such a window must never see a
        // negative shed or publish count...
        assert_eq!(r.total.delta, 0.0);
        assert_eq!(r.total.rate, 0.0);
        // ...while the per-interval points keep both the pre-restart and
        // post-restart traffic visible, with only the reset instant
        // clamped.
        assert_eq!(r.total.points, vec![2.0, 0.0, 2.0]);
        assert_eq!(r.series[0].points, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    fn gauge_delta_may_be_negative_and_last_is_absolute() {
        let mut h = MetricsHistory::new(8);
        h.record(0.0, snap(0, 5.0, &[]));
        h.record(10.0, snap(0, 3.0, &[]));
        let r = h.query(&query("richnote_utility_total", 60.0));
        assert_eq!(r.kind, Some(MetricKind::Gauge));
        assert_eq!(r.total.last, 3.0);
        assert_eq!(r.total.delta, -2.0);
    }

    #[test]
    fn label_filter_selects_series() {
        let mut r = Registry::new();
        let a = r.counter("x_total", "x", &[("policy", "RichNote")]);
        let b = r.counter("x_total", "x", &[("policy", "FIFO")]);
        r.inc(a, 7);
        r.inc(b, 5);
        let mut h = MetricsHistory::new(4);
        h.record(0.0, RegistrySnapshot::default());
        h.record(1.0, r.snapshot());
        let q = HistoryQuery {
            family: "x_total".to_string(),
            labels: vec![("policy".to_string(), "RichNote".to_string())],
            window_secs: 10.0,
        };
        let res = h.query(&q);
        assert_eq!(res.series.len(), 1);
        assert_eq!(res.total.delta, 7.0);
        assert_eq!(res.total.labels, q.labels);
    }

    #[test]
    fn histogram_window_quantiles_cover_only_the_window() {
        let mut h = MetricsHistory::new(8);
        // Baseline: 100 fast samples. Window: 10 slow ones on top.
        let fast: Vec<u64> = vec![10; 100];
        h.record(0.0, snap(0, 0.0, &fast));
        let mut all = fast.clone();
        all.extend(vec![100_000u64; 10]);
        h.record(10.0, snap(0, 0.0, &all));
        let r = h.query(&query("richnote_selection_latency_us", 5.0));
        // Only the 10 slow samples are in-window; p50 must be slow, not 10 µs.
        let qs = r.total.quantiles.expect("histogram family");
        assert!(qs.p50 >= 65_536, "windowed p50 {} must reflect in-window samples", qs.p50);
        assert_eq!(r.total.delta, 10.0);
        // Lifetime quantiles would have said ~10 µs.
        let lifetime = h.latest().unwrap().1.histogram_merged("richnote_selection_latency_us");
        assert!(lifetime.quantile(0.5) <= 10);
    }

    #[test]
    fn unknown_family_reports_kindless_empty() {
        let mut h = MetricsHistory::new(4);
        h.record(0.0, snap(1, 0.0, &[]));
        let r = h.query(&query("nope_total", 60.0));
        assert_eq!(r.kind, None);
        assert!(r.series.is_empty());
        assert_eq!(r.samples, 1);
    }

    #[test]
    fn non_monotone_time_replaces_the_newest_sample() {
        let mut h = MetricsHistory::new(4);
        h.record(10.0, snap(5, 0.0, &[]));
        h.record(10.0, snap(9, 0.0, &[]));
        h.record(3.0, snap(11, 0.0, &[]));
        assert_eq!(h.len(), 1);
        assert_eq!(h.latest().unwrap().0, 10.0);
        let r = h.query(&query("richnote_pubs_total", 60.0));
        assert_eq!(r.total.last, 11.0);
    }

    #[test]
    fn result_roundtrips_through_json() {
        let mut h = MetricsHistory::new(4);
        h.record(0.0, snap(0, 0.0, &[3, 5]));
        h.record(5.0, snap(40, 1.5, &[3, 5, 900]));
        for fam in
            ["richnote_pubs_total", "richnote_utility_total", "richnote_selection_latency_us"]
        {
            let r = h.query(&query(fam, 60.0));
            let s = serde_json::to_string(&r).unwrap();
            let back: QueryResult = serde_json::from_str(&s).unwrap();
            assert_eq!(r, back, "{fam}");
        }
        let q = query("richnote_pubs_total", 60.0);
        let s = serde_json::to_string(&q).unwrap();
        let back: HistoryQuery = serde_json::from_str(&s).unwrap();
        assert_eq!(q, back);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring never holds more than its capacity, whatever is fed in.
        #[test]
        fn memory_stays_bounded(
            capacity in 2usize..16,
            feed in prop::collection::vec((0.0f64..1e6, 0u64..1000), 0..64),
        ) {
            let mut h = MetricsHistory::new(capacity);
            let mut t = 0.0;
            for (dt, pubs) in feed {
                t += dt;
                h.record(t, snap(pubs, 0.0, &[]));
                prop_assert!(h.len() <= capacity);
            }
        }

        /// A wider window never returns a smaller counter delta.
        #[test]
        fn wider_windows_are_monotone(
            increments in prop::collection::vec((1.0f64..50.0, 0u64..500), 2..24),
            windows in prop::collection::vec(0.0f64..2000.0, 2..8),
        ) {
            let mut h = MetricsHistory::new(64);
            let mut t = 0.0;
            let mut pubs = 0u64;
            for (dt, inc) in increments {
                t += dt;
                pubs += inc;
                h.record(t, snap(pubs, 0.0, &[]));
            }
            let mut ws = windows;
            ws.sort_by(f64::total_cmp);
            let mut last_delta = -1.0f64;
            for w in ws {
                let r = h.query(&query("richnote_pubs_total", w));
                prop_assert!(
                    r.total.delta >= last_delta,
                    "window {w}: delta {} < {last_delta}", r.total.delta
                );
                last_delta = r.total.delta;
            }
        }
    }
}
