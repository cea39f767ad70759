//! A lock-cheap metrics registry with labeled families and mergeable
//! snapshots.
//!
//! # Ownership model
//!
//! A [`Registry`] is owned by exactly one recording thread (a shard worker
//! owns its registry outright; connection threads share one behind a
//! mutex for the low-rate server-side stages). Most series are registered
//! when their owner starts; a series whose labels are only known later
//! (a quality cohort cell, an alert rule) registers at the first stats
//! cut that has a value for it. Looking a series up again compares the
//! caller's borrowed labels with the stored ones and allocates nothing.
//! Recording goes through the returned integer handles, so the hot path
//! is a vector index plus an add — no hashing, no string comparison, no
//! atomics.
//!
//! # Storage
//!
//! Each family keeps its own series, sorted by labels, and families are
//! kept sorted by name; a series holds an index into the value column of
//! its kind (counters, gauges, histograms). A snapshot is therefore one
//! walk over the families in order.
//!
//! # Merging
//!
//! [`Registry::snapshot`] produces a serializable [`RegistrySnapshot`]
//! with families sorted by name and series sorted by labels, and
//! [`RegistrySnapshot::merge`] combines snapshots associatively: counters
//! add, gauges add (a per-shard gauge like backlog sums to the daemon
//! total), histograms merge bucket-wise. Merging per-shard snapshots in
//! any order yields the same result as recording into one registry.

use crate::hist::Log2Histogram;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// What a family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value; merges by summing across shards.
    Gauge,
    /// [`Log2Histogram`] of microsecond values.
    Histogram,
}

/// Handle to a registered counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered gauge series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a registered histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// One family: its name, help and kind, and its series sorted by labels,
/// each holding an index into the value column of the family's kind.
#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<(Vec<(String, String)>, usize)>,
}

/// The registry: families sorted by name, plus one value column per kind.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Vec<Family>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histograms: Vec<Log2Histogram>,
}

/// Orders stored labels against borrowed ones the way `Vec<(String,
/// String)>` orders itself, without copying either side.
fn cmp_labels(stored: &[(String, String)], labels: &[(&str, &str)]) -> Ordering {
    stored.iter().map(|(k, v)| (k.as_str(), v.as_str())).cmp(labels.iter().copied())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The value-column index of series `labels` in family `name`. A new
    /// series gets `next`, the column's length, so the caller pushes its
    /// zero value exactly when the returned index equals `next`. Only a
    /// new family or series allocates.
    fn series(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        next: usize,
    ) -> usize {
        let fi = match self.families.binary_search_by(|f| f.name.as_str().cmp(name)) {
            Ok(fi) => {
                assert_eq!(
                    self.families[fi].kind, kind,
                    "family {name} registered twice with different kinds"
                );
                fi
            }
            Err(fi) => {
                let family =
                    Family { name: name.into(), help: help.into(), kind, series: Vec::new() };
                self.families.insert(fi, family);
                fi
            }
        };
        let series = &mut self.families[fi].series;
        match series.binary_search_by(|(stored, _)| cmp_labels(stored, labels)) {
            Ok(si) => series[si].1,
            Err(si) => {
                let owned = labels.iter().map(|&(k, v)| (k.into(), v.into())).collect();
                series.insert(si, (owned, next));
                next
            }
        }
    }

    /// Registers (or looks up) a counter series. Looking up an existing
    /// series allocates nothing; recording through the handle is O(1).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let i = self.series(name, help, MetricKind::Counter, labels, self.counters.len());
        if i == self.counters.len() {
            self.counters.push(0);
        }
        CounterHandle(i)
    }

    /// Registers (or looks up) a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        let i = self.series(name, help, MetricKind::Gauge, labels, self.gauges.len());
        if i == self.gauges.len() {
            self.gauges.push(0.0);
        }
        GaugeHandle(i)
    }

    /// Registers (or looks up) a histogram series.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> HistogramHandle {
        let i = self.series(name, help, MetricKind::Histogram, labels, self.histograms.len());
        if i == self.histograms.len() {
            self.histograms.push(Log2Histogram::new());
        }
        HistogramHandle(i)
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, h: CounterHandle, by: u64) {
        self.counters[h.0] += by;
    }

    /// Overwrites a counter with a total its owner keeps (written at a
    /// stats cut).
    pub fn set_counter(&mut self, h: CounterHandle, value: u64) {
        self.counters[h.0] = value;
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, h: GaugeHandle, value: f64) {
        self.gauges[h.0] = value;
    }

    /// Records one microsecond sample into a histogram.
    pub fn observe_us(&mut self, h: HistogramHandle, us: u64) {
        self.histograms[h.0].record_us(us);
    }

    /// Merges a locally accumulated histogram into a series.
    ///
    /// This is the batched-flush path for threads that record samples
    /// into their own [`Log2Histogram`] and fold them in periodically,
    /// instead of taking a shared registry lock per sample.
    pub fn merge_histogram(&mut self, h: HistogramHandle, other: &Log2Histogram) {
        self.histograms[h.0].merge(other);
    }

    /// A serializable cut of every series, with families sorted by name
    /// and series sorted by labels — the order the registry keeps them in,
    /// whatever the registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self
            .families
            .iter()
            .map(|f| FamilySnapshot {
                name: f.name.clone(),
                help: f.help.clone(),
                kind: f.kind,
                series: f
                    .series
                    .iter()
                    .map(|(labels, i)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match f.kind {
                            MetricKind::Counter => MetricValue::Counter(self.counters[*i]),
                            MetricKind::Gauge => MetricValue::Gauge(self.gauges[*i]),
                            MetricKind::Histogram => {
                                MetricValue::Histogram(self.histograms[*i].clone())
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        RegistrySnapshot { families }
    }
}

/// One series' value at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(Log2Histogram),
}

/// One series at snapshot time: its label set and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Label pairs, sorted.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// One family at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family name (e.g. `richnote_pubs_total`).
    pub name: String,
    /// Help text for exposition.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Series, sorted by labels.
    pub series: Vec<SeriesSnapshot>,
}

/// A mergeable, serializable cut of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Families, sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl RegistrySnapshot {
    /// Merges `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise; unknown families/series are inserted in sorted
    /// position. Associative and commutative, so per-shard snapshots can
    /// merge in any order.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for of in &other.families {
            match self.families.binary_search_by(|f| f.name.as_str().cmp(&of.name)) {
                Err(pos) => self.families.insert(pos, of.clone()),
                Ok(pos) => {
                    let sf = &mut self.families[pos];
                    assert_eq!(sf.kind, of.kind, "family {} merged across kinds", of.name);
                    for os in &of.series {
                        match sf.series.binary_search_by(|s| s.labels.cmp(&os.labels)) {
                            Err(pos) => sf.series.insert(pos, os.clone()),
                            Ok(pos) => match (&mut sf.series[pos].value, &os.value) {
                                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                    a.merge(b);
                                }
                                (a, b) => panic!(
                                    "series {:?} of {} merged across kinds: {a:?} vs {b:?}",
                                    os.labels, of.name
                                ),
                            },
                        }
                    }
                }
            }
        }
    }

    /// Looks up a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sums a counter family across all its series (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name).map_or(0, |f| {
            f.series
                .iter()
                .map(|s| match s.value {
                    MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        })
    }

    /// Sums a gauge family across all its series (0 when absent) — the
    /// daemon-wide total of a per-shard gauge such as backlog.
    pub fn gauge_total(&self, name: &str) -> f64 {
        self.family(name).map_or(0.0, |f| {
            f.series
                .iter()
                .map(|s| match s.value {
                    MetricValue::Gauge(v) => v,
                    _ => 0.0,
                })
                .sum()
        })
    }

    /// Sums the counter and gauge series of a family that carry the label
    /// pair `key=value` — one shard's slice of a per-shard family. `None`
    /// when no such series exists (a dead shard contributes none).
    pub fn value_where(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        self.family(name)?
            .series
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == key && v == value))
            .filter_map(|s| match s.value {
                MetricValue::Counter(v) => Some(v as f64),
                MetricValue::Gauge(v) => Some(v),
                MetricValue::Histogram(_) => None,
            })
            .reduce(|a, b| a + b)
    }

    /// Merges a histogram family across all its series (empty when
    /// absent).
    pub fn histogram_merged(&self, name: &str) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        if let Some(f) = self.family(name) {
            for s in &f.series {
                if let MetricValue::Histogram(v) = &s.value {
                    h.merge(v);
                }
            }
        }
        h
    }

    /// Merges a histogram family across only the series carrying the
    /// label pair `key=value` (empty when absent) — e.g. the `ack` slice
    /// of a multi-stage duration family.
    pub fn histogram_merged_where(&self, name: &str, key: &str, value: &str) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        if let Some(f) = self.family(name) {
            for s in &f.series {
                if s.labels.iter().any(|(k, v)| k == key && v == value) {
                    if let MetricValue::Histogram(v) = &s.value {
                        h.merge(v);
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_registry(shard: &str) -> Registry {
        let mut r = Registry::new();
        let c = r.counter("richnote_pubs_total", "pubs", &[("shard", shard)]);
        let g = r.gauge("richnote_backlog", "backlog", &[("shard", shard)]);
        let h = r.histogram("richnote_round_duration_us", "round time", &[]);
        r.inc(c, 3);
        r.set_gauge(g, 5.0);
        r.observe_us(h, 100);
        r
    }

    #[test]
    fn handles_are_deduped() {
        let mut r = Registry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        assert_eq!(a, b);
        r.inc(a, 1);
        r.inc(b, 1);
        assert_eq!(r.snapshot().counter_total("x_total"), 2);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_conflict_panics() {
        let mut r = Registry::new();
        r.counter("x", "x", &[]);
        r.gauge("x", "x", &[]);
    }

    #[test]
    fn merge_of_shard_snapshots_sums() {
        let mut merged = shard_registry("0").snapshot();
        merged.merge(&shard_registry("1").snapshot());
        assert_eq!(merged.counter_total("richnote_pubs_total"), 6);
        assert_eq!(merged.gauge_total("richnote_backlog"), 10.0);
        assert_eq!(merged.value_where("richnote_pubs_total", "shard", "1"), Some(3.0));
        assert_eq!(merged.value_where("richnote_pubs_total", "shard", "2"), None);
        assert_eq!(merged.family("richnote_pubs_total").unwrap().series.len(), 2);
        // Same-label histograms merged into one series.
        assert_eq!(merged.family("richnote_round_duration_us").unwrap().series.len(), 1);
        assert_eq!(merged.histogram_merged("richnote_round_duration_us").count(), 2);
    }

    #[test]
    fn merge_is_order_independent() {
        let snaps: Vec<RegistrySnapshot> =
            ["0", "1", "2"].iter().map(|s| shard_registry(s).snapshot()).collect();
        let mut forward = snaps[0].clone();
        forward.merge(&snaps[1]);
        forward.merge(&snaps[2]);
        let mut reverse = snaps[2].clone();
        reverse.merge(&snaps[1]);
        reverse.merge(&snaps[0]);
        assert_eq!(forward, reverse);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = shard_registry("7").snapshot();
        let s = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(snap, back);
    }
}
