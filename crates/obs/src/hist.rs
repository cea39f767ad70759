//! Power-of-two-bucketed histograms of microsecond values.

use serde::{DeError, Deserialize, Serialize, Value};

/// Number of power-of-two buckets; bucket `i` covers `[2^(i-1), 2^i)` µs
/// for `i ≥ 1`, bucket 0 covers exactly `[0, 1)` (i.e. the value 0), and
/// the last bucket is open-ended, topping out above an hour.
pub const BUCKETS: usize = 40;

/// A histogram of microsecond values with power-of-two buckets.
///
/// Log bucketing gives ~2× relative resolution across nine orders of
/// magnitude in constant space, which is plenty for p50/p95/p99 reporting;
/// recording is a single increment on the hot path.
///
/// Each counted bucket additionally tracks the smallest and largest value
/// it has observed, so quantile estimates interpolate within the observed
/// span `[min, max]` rather than assuming the nominal bucket bounds — at
/// bucket edges the nominal upper bound can overstate a quantile by ~2×.
///
/// The serde field layout (`counts`/`count`/`sum_us`/`max_us`) is identical
/// to the server's former `LatencyHistogram`, which this type replaces —
/// checkpoints and wire snapshots deserialize unchanged. The span vectors
/// (`bucket_min`/`bucket_max`) are omitted entirely while untracked, so a
/// histogram deserialized from a legacy checkpoint re-serializes
/// byte-for-byte; they appear only once a value is recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
    /// Smallest observed value per bucket (`u64::MAX` while empty); empty
    /// vector = spans untracked (legacy data).
    bucket_min: Vec<u64>,
    /// Largest observed value per bucket (0 while empty); empty vector =
    /// spans untracked (legacy data).
    bucket_max: Vec<u64>,
}

impl Serialize for Log2Histogram {
    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("counts".to_string(), self.counts.to_value()),
            ("count".to_string(), self.count.to_value()),
            ("sum_us".to_string(), self.sum_us.to_value()),
            ("max_us".to_string(), self.max_us.to_value()),
        ];
        if !self.bucket_min.is_empty() {
            obj.push(("bucket_min".to_string(), self.bucket_min.to_value()));
            obj.push(("bucket_max".to_string(), self.bucket_max.to_value()));
        }
        Value::Object(obj)
    }
}

impl Deserialize for Log2Histogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let opt_spans = |name: &str| -> Result<Vec<u64>, DeError> {
            match v.get(name) {
                Some(inner) => Vec::<u64>::from_value(inner)
                    .map_err(|e| DeError(format!("field `{name}`: {e}"))),
                None => Ok(Vec::new()),
            }
        };
        let mut bucket_min = opt_spans("bucket_min")?;
        let mut bucket_max = opt_spans("bucket_max")?;
        // Spans are all-or-nothing and exactly BUCKETS long; anything else
        // (a truncated hand-edited file, say) degrades to untracked.
        if bucket_min.len() != BUCKETS || bucket_max.len() != BUCKETS {
            bucket_min = Vec::new();
            bucket_max = Vec::new();
        }
        Ok(Log2Histogram {
            counts: serde::field(v, "counts")?,
            count: serde::field(v, "count")?,
            sum_us: serde::field(v, "sum_us")?,
            max_us: serde::field(v, "max_us")?,
            bucket_min,
            bucket_max,
        })
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
            bucket_min: Vec::new(),
            bucket_max: Vec::new(),
        }
    }

    /// The bucket index holding `us`.
    ///
    /// Zero is handled explicitly: it belongs to bucket 0 by the bucket
    /// definition (`[0, 1)`), not by the accident that
    /// `64 - 0u64.leading_zeros() == 0`.
    pub fn bucket_of(us: u64) -> usize {
        if us == 0 {
            return 0;
        }
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The largest value bucket `i` can hold — the inclusive upper bound
    /// `2^i - 1` — saturating at `u64::MAX` for the open-ended last bucket.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        debug_assert!(i < BUCKETS);
        if i == 0 {
            0
        } else if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// The smallest value bucket `i` can hold.
    fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Materializes the span vectors. Buckets counted before tracking
    /// started (legacy checkpoints) widen to their nominal bounds, clamped
    /// to the observed global maximum.
    fn ensure_spans(&mut self) {
        if !self.bucket_min.is_empty() {
            return;
        }
        self.bucket_min = vec![u64::MAX; BUCKETS];
        self.bucket_max = vec![0; BUCKETS];
        for i in 0..BUCKETS {
            if self.counts[i] > 0 {
                self.bucket_min[i] = Self::bucket_lower_bound(i);
                self.bucket_max[i] = Self::bucket_upper_bound(i).min(self.max_us);
            }
        }
    }

    /// The observed `[min, max]` span of bucket `i`, or `None` if the
    /// bucket is empty. For data recorded before span tracking (legacy
    /// checkpoints) this falls back to the nominal bucket bounds clamped
    /// to the global maximum.
    pub fn bucket_span(&self, i: usize) -> Option<(u64, u64)> {
        if self.counts[i] == 0 {
            return None;
        }
        if self.bucket_min.is_empty() {
            Some((Self::bucket_lower_bound(i), Self::bucket_upper_bound(i).min(self.max_us)))
        } else {
            Some((self.bucket_min[i], self.bucket_max[i]))
        }
    }

    /// Records one value in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.ensure_spans();
        let b = Self::bucket_of(us);
        self.counts[b] += 1;
        self.bucket_min[b] = self.bucket_min[b].min(us);
        self.bucket_max[b] = self.bucket_max[b].max(us);
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Merges another histogram into this one. Span tracking survives a
    /// merge: tracked spans union bucket-wise, and a legacy (untracked)
    /// side contributes its nominal bucket bounds. Merging two untracked
    /// histograms stays untracked, preserving the legacy serde layout.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if !(self.bucket_min.is_empty() && other.bucket_min.is_empty()) {
            self.ensure_spans();
            for i in 0..BUCKETS {
                if let Some((omin, omax)) = other.bucket_span(i) {
                    self.bucket_min[i] = self.bucket_min[i].min(omin);
                    self.bucket_max[i] = self.bucket_max[i].max(omax);
                }
            }
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (µs), saturating.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Per-bucket sample counts (length [`BUCKETS`]).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean value in microseconds, or 0 with no samples.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest recorded value in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The index of the bucket containing quantile `q` in `[0, 1]`, or
    /// `None` with no samples.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(BUCKETS - 1)
    }

    /// The value (µs) at quantile `q` in `[0, 1]`, reported as the largest
    /// value *observed* in the containing bucket — a conservative estimate
    /// that never understates the quantile, and no looser than the bucket's
    /// inclusive upper bound. Returns 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(i) = self.quantile_bucket(q) else {
            return 0;
        };
        // quantile_bucket only returns counted buckets, so the span exists.
        self.bucket_span(i).map_or(0, |(_, bmax)| bmax)
    }

    /// The value (µs) at quantile `q` in `[0, 1]`, estimated by *sub-bucket
    /// interpolation*: the quantile's rank position among the containing
    /// bucket's samples is mapped linearly onto the bucket's observed
    /// `[min, max]` span. Unlike a fixed per-bucket point estimate this
    /// keeps nearby quantiles distinguishable even when they land in the
    /// same (upper, coarse) bucket — p95 and p99 of a unimodal latency
    /// distribution no longer collapse to one number — while still never
    /// leaving the range of values actually recorded there, and staying
    /// monotone in `q`. Returns 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut before = 0u64;
        let mut idx = BUCKETS - 1;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                idx = i;
                break;
            }
            before += c;
        }
        if idx == 0 {
            return 0;
        }
        let Some((bmin, bmax)) = self.bucket_span(idx) else {
            return 0;
        };
        let c = self.counts[idx];
        if c <= 1 || bmax <= bmin {
            return bmax;
        }
        // 1-based position of the rank among this bucket's c samples,
        // interpolated across the observed span: position 1 → min,
        // position c → max.
        let pos = rank - before;
        bmin + (((bmax - bmin) as f64) * ((pos - 1) as f64) / ((c - 1) as f64)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_zero_is_explicit() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        let mut h = Log2Histogram::new();
        h.record_us(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.quantile(1.0), 0, "bucket 0 upper bound is 0");
        assert_eq!(h.quantile_us(1.0), 0);
    }

    #[test]
    fn bucket_of_one() {
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        let mut h = Log2Histogram::new();
        h.record_us(1);
        assert_eq!(h.bucket_counts()[1], 1);
        // Bucket 1 covers [1, 2); its inclusive upper bound is 1.
        assert_eq!(h.quantile(0.5), 1);
    }

    #[test]
    fn bucket_of_u64_max_lands_in_last_bucket() {
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        let mut h = Log2Histogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 1);
        // The open-ended bucket reports the observed max, not u64::MAX's
        // nominal bound.
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.sum_us(), u64::MAX, "sum saturates");
        h.record_us(u64::MAX);
        assert_eq!(h.sum_us(), u64::MAX, "sum saturates");
    }

    #[test]
    fn record_extreme_values_together() {
        // record(0) and record(u64::MAX) in the same histogram: neither
        // panics, each lands in its own bucket, and the summary stats
        // stay sane despite the saturating sum.
        let mut h = Log2Histogram::new();
        h.record_us(0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 1);
        assert_eq!(h.quantile(0.5), 0, "lower sample bounds the median");
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX, "open bucket reports the observed max");
        assert_eq!(h.max_us(), u64::MAX);
        assert_eq!(h.sum_us(), u64::MAX, "sum saturates instead of wrapping");
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn open_bucket_quantile_us_reports_observed_max() {
        // A sample in the open-ended bucket but far above its nominal
        // 2^38·√2 midpoint: quantile_us must not understate it.
        let v = 1u64 << 50;
        let mut h = Log2Histogram::new();
        h.record_us(v);
        assert_eq!(Log2Histogram::bucket_of(v), BUCKETS - 1);
        assert_eq!(h.quantile_us(0.5), v);
        // Closed buckets still use the geometric midpoint.
        let mut h = Log2Histogram::new();
        h.record_us(3);
        let p = h.quantile_us(0.5);
        assert!((2..=3).contains(&p), "midpoint of [2,4) clamped to max: {p}");
    }

    #[test]
    fn bucket_boundaries() {
        // 2^k goes to bucket k+1 (range [2^k, 2^(k+1))); 2^k - 1 to bucket k.
        for k in 1..20 {
            assert_eq!(Log2Histogram::bucket_of(1u64 << k), k + 1, "2^{k}");
            assert_eq!(Log2Histogram::bucket_of((1u64 << k) - 1), k, "2^{k}-1");
        }
        assert_eq!(Log2Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_upper_bound(5), 31);
        assert_eq!(Log2Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_upper_bound_never_understates() {
        let mut h = Log2Histogram::new();
        let samples = [3u64, 17, 120, 950, 6_000, 44_000];
        for &us in &samples {
            h.record_us(us);
        }
        // For each sample rank, quantile() must be >= the true value.
        let mut sorted = samples;
        sorted.sort_unstable();
        for (i, &v) in sorted.iter().enumerate() {
            let q = (i as f64 + 1.0) / sorted.len() as f64;
            assert!(h.quantile(q) >= v, "q={q} -> {} < {v}", h.quantile(q));
        }
    }

    #[test]
    fn quantiles_bracket_samples() {
        let mut h = Log2Histogram::new();
        for us in [10u64, 20, 30, 40, 50, 1_000, 2_000, 100_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 8);
        let p50 = h.quantile_us(0.5);
        assert!((16..=64).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((65_536..=100_000).contains(&p99), "p99 {p99}");
        assert_eq!(h.max_us(), 100_000);
    }

    #[test]
    fn observed_span_tightens_quantiles_at_bucket_edges() {
        // 513 sits at the bottom of bucket 10 ([512, 1024)). Against a
        // second sample in a higher bucket, the nominal upper bound would
        // report the low quantile as 1023 — a ~2× overestimate. The
        // tracked span pins it to the observed value.
        let mut h = Log2Histogram::new();
        h.record_us(513);
        h.record_us(100_000);
        assert_eq!(h.quantile(0.3), 513);
        assert_eq!(h.quantile_us(0.3), 513);
        // And values at the top of a bucket are not dragged down to the
        // geometric midpoint: [1000, 1023] both in bucket 10.
        let mut h = Log2Histogram::new();
        h.record_us(1_000);
        h.record_us(1_023);
        let p50 = h.quantile_us(0.5);
        assert!((1_000..=1_023).contains(&p50), "p50 {p50} outside observed span");
        assert_eq!(h.quantile(1.0), 1_023);
    }

    #[test]
    fn sub_bucket_interpolation_separates_quantiles_and_stays_monotone() {
        // A steady-state run whose select latencies all land in one coarse
        // upper bucket once reported p50 == p95 == p99.
        // With rank-position interpolation, distinct quantiles of samples
        // sharing a bucket must come out distinct, ordered, and inside the
        // observed span.
        let mut h = Log2Histogram::new();
        for v in 8_192..8_292 {
            // 100 distinct values, all in bucket 14 ([8192, 16384)).
            h.record_us(v);
        }
        let (p50, p95, p99) = (h.quantile_us(0.50), h.quantile_us(0.95), h.quantile_us(0.99));
        assert!(p50 < p95, "p50 {p50} must be below p95 {p95}");
        assert!(p95 < p99, "p95 {p95} must be below p99 {p99}");
        assert!((8_192..8_292).contains(&p50), "p50 {p50} outside observed span");
        assert!((8_192..8_292).contains(&p99), "p99 {p99} outside observed span");
        // Monotone in q across the whole range, including bucket borders.
        let mut h = Log2Histogram::new();
        for v in [0, 1, 3, 40, 45, 50, 120_000, 130_000] {
            h.record_us(v);
        }
        let mut last = 0;
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            let v = h.quantile_us(q);
            assert!(v >= last, "quantile_us({q}) = {v} < previous {last}");
            last = v;
        }
        assert_eq!(h.quantile_us(1.0), 130_000, "q=1 is the observed max");
    }

    #[test]
    fn legacy_histograms_widen_to_nominal_bounds() {
        // A histogram deserialized from pre-span data has counts but no
        // spans: quantiles fall back to the nominal bucket bounds (the old
        // behaviour) and merging into a tracked histogram keeps both sets
        // of samples bounded.
        let legacy_json =
            format!("{{\"counts\":{:?},\"count\":2,\"sum_us\":1600,\"max_us\":900}}", {
                let mut v = vec![0u64; BUCKETS];
                v[10] = 2; // two samples somewhere in [512, 1024)
                v
            });
        let legacy: Log2Histogram = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy.bucket_span(10), Some((512, 900)), "nominal bounds clamped to max");
        assert_eq!(legacy.quantile(0.5), 900);

        let mut tracked = Log2Histogram::new();
        tracked.record_us(600);
        tracked.merge(&legacy);
        assert_eq!(tracked.count(), 3);
        assert_eq!(tracked.bucket_span(10), Some((512, 900)));

        // Merging two untracked histograms stays untracked (and therefore
        // serializes in the legacy layout).
        let mut a: Log2Histogram = serde_json::from_str(&legacy_json).unwrap();
        let b: Log2Histogram = serde_json::from_str(&legacy_json).unwrap();
        a.merge(&b);
        assert!(!serde_json::to_string(&a).unwrap().contains("bucket_min"));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_bucket(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Histogram::new();
        a.record_us(5);
        let mut b = Log2Histogram::new();
        b.record_us(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_us(), 500);
        assert_eq!(a.sum_us(), 505);
    }

    #[test]
    fn serde_field_layout_is_stable() {
        // Checkpoints written by the pre-obs LatencyHistogram must load,
        // and must re-serialize without sprouting span fields.
        let legacy = format!("{{\"counts\":{:?},\"count\":1,\"sum_us\":7,\"max_us\":7}}", {
            let mut v = vec![0u64; BUCKETS];
            v[3] = 1;
            v
        });
        let h: Log2Histogram = serde_json::from_str(&legacy).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_us(), 7);
        let back = serde_json::to_string(&h).unwrap();
        assert_eq!(back, legacy.replace(", ", ","), "legacy layout preserved byte-for-byte");
        let h2: Log2Histogram = serde_json::from_str(&back).unwrap();
        assert_eq!(h, h2);

        // A recorded histogram carries its spans through serde.
        let mut h = Log2Histogram::new();
        h.record_us(9);
        let s = serde_json::to_string(&h).unwrap();
        assert!(s.contains("bucket_min"));
        let h2: Log2Histogram = serde_json::from_str(&s).unwrap();
        assert_eq!(h, h2);
        assert_eq!(h2.bucket_span(4), Some((9, 9)));
    }
}
