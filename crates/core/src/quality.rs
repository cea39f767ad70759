//! Delivery-quality cohort accounting.
//!
//! The paper's whole evaluation is utility delivered per unit of budget
//! spent, yet the counters the policies historically exported were global:
//! nobody could ask what utility-per-MB the adaptive policy realized *for
//! flaky-cellular users*. This module defines the cohort vocabulary that
//! closes that gap:
//!
//! * [`ConnectivityCohort`] — the connectivity dimension of a cohort key,
//!   derived from the [`NetSignal`] attached to the round context;
//! * [`QualitySample`] — one quality event (a delivery, or a round's worth
//!   of suppressed notifications), reported by every policy through the
//!   defaulted [`SelectionObserver::on_quality`] hook;
//! * [`CohortLedger`] — a fixed-size accumulator of samples keyed by
//!   `{policy, connectivity, level}`, used directly by the simulator (the
//!   daemon streams samples into its metrics registry instead).
//!
//! The exported metric families are named here once — [`UTILITY_FAMILY`],
//! [`DELIVERED_BYTES_FAMILY`], [`SUPPRESSED_FAMILY`] — so the live daemon
//! and `richnote_sim` agree byte-for-byte on definitions.
//!
//! [`SelectionObserver::on_quality`]: crate::policy::SelectionObserver::on_quality

use crate::policy::SelectionObserver;
use crate::scheduler::NetSignal;
use richnote_net::NetworkState;
use serde::{Deserialize, Serialize};

/// Family name of the per-cohort accumulated utility (a gauge: utility is
/// an `f64` sum, not an integer count).
pub const UTILITY_FAMILY: &str = "richnote_utility_total";
/// Help text of [`UTILITY_FAMILY`].
pub const UTILITY_HELP: &str = "Combined utility delivered, by policy/connectivity/level cohort";
/// Family name of the per-cohort delivered-byte counter.
pub const DELIVERED_BYTES_FAMILY: &str = "richnote_delivered_bytes_total";
/// Help text of [`DELIVERED_BYTES_FAMILY`].
pub const DELIVERED_BYTES_HELP: &str =
    "Bytes delivered to devices, by policy/connectivity/level cohort";
/// Family name of the per-cohort suppressed-notification counter.
pub const SUPPRESSED_FAMILY: &str = "richnote_suppressed_total";
/// Help text of [`SUPPRESSED_FAMILY`].
pub const SUPPRESSED_HELP: &str =
    "Notification-rounds in which a queued notification was withheld, by policy/connectivity";

/// Number of distinct [`ConnectivityCohort`] values.
pub const COHORTS: usize = 4;
/// Presentation levels tracked per cohort (`0..QUALITY_LEVELS`); higher
/// levels clamp into the last slot. Covers both the server's 6-level audio
/// ladder and the simulator's 8-level histograms.
pub const QUALITY_LEVELS: usize = 9;

/// The connectivity dimension of a quality-cohort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConnectivityCohort {
    /// The driver attached no network observation to the round.
    Unknown,
    /// Observed offline.
    Offline,
    /// Observed on cellular.
    Cell,
    /// Observed on WiFi.
    Wifi,
}

impl ConnectivityCohort {
    /// All cohorts, in index order.
    pub const ALL: [ConnectivityCohort; COHORTS] = [
        ConnectivityCohort::Unknown,
        ConnectivityCohort::Offline,
        ConnectivityCohort::Cell,
        ConnectivityCohort::Wifi,
    ];

    /// The cohort a round belongs to, from the round's connectivity
    /// signal.
    pub fn from_net(net: Option<NetSignal>) -> Self {
        match net.and_then(|n| n.state) {
            None => ConnectivityCohort::Unknown,
            Some(NetworkState::Off) => ConnectivityCohort::Offline,
            Some(NetworkState::Cell) => ConnectivityCohort::Cell,
            Some(NetworkState::Wifi) => ConnectivityCohort::Wifi,
        }
    }

    /// The label value used in exported metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnectivityCohort::Unknown => "unknown",
            ConnectivityCohort::Offline => "offline",
            ConnectivityCohort::Cell => "cell",
            ConnectivityCohort::Wifi => "wifi",
        }
    }

    /// Dense index in `0..COHORTS`.
    pub fn index(self) -> usize {
        match self {
            ConnectivityCohort::Unknown => 0,
            ConnectivityCohort::Offline => 1,
            ConnectivityCohort::Cell => 2,
            ConnectivityCohort::Wifi => 3,
        }
    }
}

/// One quality event reported through the observer hook: either a delivery
/// (`bytes`/`utility` set, `suppressed` 0) or a round's suppression tally
/// (`suppressed` set, level 0, no bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualitySample<'a> {
    /// Reporting policy ("RichNote", "FIFO", "UTIL", "Adaptive").
    pub policy: &'a str,
    /// Connectivity cohort of the round.
    pub connectivity: ConnectivityCohort,
    /// Presentation level delivered at (0 for suppression samples).
    pub level: u8,
    /// Combined utility realized by this delivery.
    pub utility: f64,
    /// Bytes transferred by this delivery.
    pub bytes: u64,
    /// Queued notifications withheld this round.
    pub suppressed: u64,
}

impl<'a> QualitySample<'a> {
    /// A delivery sample.
    pub fn delivered(
        policy: &'a str,
        connectivity: ConnectivityCohort,
        level: u8,
        utility: f64,
        bytes: u64,
    ) -> Self {
        QualitySample { policy, connectivity, level, utility, bytes, suppressed: 0 }
    }
}

/// Reports a round's suppression tally (notifications still queued once
/// selection finished) through the observer; a no-op for empty queues so
/// idle rounds cost nothing.
pub fn report_suppressed(
    obs: &mut dyn SelectionObserver,
    round: u64,
    policy: &str,
    connectivity: ConnectivityCohort,
    queued: usize,
) {
    if queued > 0 {
        obs.on_quality(
            round,
            &QualitySample {
                policy,
                connectivity,
                level: 0,
                utility: 0.0,
                bytes: 0,
                suppressed: queued as u64,
            },
        );
    }
}

/// One non-empty delivery cell of a [`CohortLedger`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortCell {
    /// Connectivity cohort.
    pub connectivity: ConnectivityCohort,
    /// Presentation level (clamped to `QUALITY_LEVELS - 1`).
    pub level: u8,
    /// Accumulated combined utility.
    pub utility: f64,
    /// Deliveries counted into this cell.
    pub delivered: u64,
    /// Bytes delivered.
    pub bytes: u64,
}

/// Fixed-memory accumulator of [`QualitySample`]s keyed by
/// `{connectivity, level}` for one policy.
///
/// The storage is `COHORTS × QUALITY_LEVELS` flat vectors allocated once
/// at construction, so recording is two index computations and an add —
/// cheap enough for per-delivery hot paths — and merging per-user ledgers
/// (the simulator's thread-parallel path) is element-wise addition. The
/// policy label is adopted from the first sample; merging ledgers keeps
/// the first non-empty label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortLedger {
    policy: String,
    utility: Vec<f64>,
    delivered: Vec<u64>,
    bytes: Vec<u64>,
    suppressed: Vec<u64>,
}

impl Default for CohortLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl CohortLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CohortLedger {
            policy: String::new(),
            utility: vec![0.0; COHORTS * QUALITY_LEVELS],
            delivered: vec![0; COHORTS * QUALITY_LEVELS],
            bytes: vec![0; COHORTS * QUALITY_LEVELS],
            suppressed: vec![0; COHORTS],
        }
    }

    fn slot(connectivity: ConnectivityCohort, level: u8) -> usize {
        connectivity.index() * QUALITY_LEVELS + (level as usize).min(QUALITY_LEVELS - 1)
    }

    /// The policy label adopted from the first recorded sample ("" while
    /// empty).
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Folds one sample in.
    pub fn record(&mut self, sample: &QualitySample<'_>) {
        if self.policy.is_empty() && !sample.policy.is_empty() {
            self.policy.push_str(sample.policy);
        }
        if sample.suppressed > 0 {
            self.suppressed[sample.connectivity.index()] += sample.suppressed;
        }
        if sample.bytes > 0 || sample.utility != 0.0 {
            let i = Self::slot(sample.connectivity, sample.level);
            self.utility[i] += sample.utility;
            self.delivered[i] += 1;
            self.bytes[i] += sample.bytes;
        }
    }

    /// Element-wise sum of another ledger (the per-user → population fold).
    pub fn merge(&mut self, other: &CohortLedger) {
        if self.policy.is_empty() {
            self.policy.push_str(&other.policy);
        }
        for (a, b) in self.utility.iter_mut().zip(&other.utility) {
            *a += b;
        }
        for (a, b) in self.delivered.iter_mut().zip(&other.delivered) {
            *a += b;
        }
        for (a, b) in self.bytes.iter_mut().zip(&other.bytes) {
            *a += b;
        }
        for (a, b) in self.suppressed.iter_mut().zip(&other.suppressed) {
            *a += b;
        }
    }

    /// Whether any sample has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.delivered.iter().all(|&d| d == 0) && self.suppressed.iter().all(|&s| s == 0)
    }

    /// Iterates the non-empty delivery cells in `{connectivity, level}`
    /// order.
    pub fn cells(&self) -> impl Iterator<Item = CohortCell> + '_ {
        ConnectivityCohort::ALL.into_iter().flat_map(move |c| {
            (0..QUALITY_LEVELS).filter_map(move |l| {
                let i = c.index() * QUALITY_LEVELS + l;
                (self.delivered[i] > 0).then_some(CohortCell {
                    connectivity: c,
                    level: l as u8,
                    utility: self.utility[i],
                    delivered: self.delivered[i],
                    bytes: self.bytes[i],
                })
            })
        })
    }

    /// Iterates the non-zero suppression tallies per cohort.
    pub fn suppressed_cells(&self) -> impl Iterator<Item = (ConnectivityCohort, u64)> + '_ {
        ConnectivityCohort::ALL.into_iter().filter_map(move |c| {
            (self.suppressed[c.index()] > 0).then_some((c, self.suppressed[c.index()]))
        })
    }

    /// Total utility across all cohorts.
    pub fn total_utility(&self) -> f64 {
        self.utility.iter().sum()
    }

    /// Total bytes delivered across all cohorts.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Utility per megabyte delivered, the paper's headline ratio
    /// (`None` until any bytes have been delivered).
    pub fn utility_per_mb(&self) -> Option<f64> {
        let bytes = self.total_bytes();
        (bytes > 0).then(|| self.total_utility() / (bytes as f64 / 1e6))
    }
}

impl SelectionObserver for CohortLedger {
    fn on_select(&mut self, _: u64, _: crate::ids::ContentId, _: &crate::policy::SelectDecision) {}

    fn on_quality(&mut self, _round: u64, sample: &QualitySample<'_>) {
        self.record(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_from_net_signal() {
        assert_eq!(ConnectivityCohort::from_net(None), ConnectivityCohort::Unknown);
        assert_eq!(
            ConnectivityCohort::from_net(Some(NetSignal::default())),
            ConnectivityCohort::Unknown
        );
        for (state, want) in [
            (NetworkState::Off, ConnectivityCohort::Offline),
            (NetworkState::Cell, ConnectivityCohort::Cell),
            (NetworkState::Wifi, ConnectivityCohort::Wifi),
        ] {
            assert_eq!(ConnectivityCohort::from_net(Some(NetSignal::observed(state))), want);
        }
        for (i, c) in ConnectivityCohort::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn ledger_records_and_totals() {
        let mut l = CohortLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.utility_per_mb(), None);
        l.record(&QualitySample::delivered(
            "RichNote",
            ConnectivityCohort::Wifi,
            6,
            0.8,
            2_000_000,
        ));
        l.record(&QualitySample::delivered("RichNote", ConnectivityCohort::Cell, 1, 0.3, 200));
        l.on_quality(
            3,
            &QualitySample {
                policy: "RichNote",
                connectivity: ConnectivityCohort::Offline,
                level: 0,
                utility: 0.0,
                bytes: 0,
                suppressed: 4,
            },
        );
        assert!(!l.is_empty());
        assert_eq!(l.policy(), "RichNote");
        assert_eq!(l.total_bytes(), 2_000_200);
        assert!((l.total_utility() - 1.1).abs() < 1e-12);
        let upmb = l.utility_per_mb().unwrap();
        assert!((upmb - 1.1 / 2.0002).abs() < 1e-9, "{upmb}");
        let cells: Vec<CohortCell> = l.cells().collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].connectivity, ConnectivityCohort::Cell);
        assert_eq!(cells[0].level, 1);
        assert_eq!(cells[1].connectivity, ConnectivityCohort::Wifi);
        assert_eq!(cells[1].bytes, 2_000_000);
        assert_eq!(
            l.suppressed_cells().collect::<Vec<_>>(),
            vec![(ConnectivityCohort::Offline, 4)]
        );
    }

    #[test]
    fn levels_above_the_table_clamp_into_the_last_slot() {
        let mut l = CohortLedger::new();
        l.record(&QualitySample::delivered("X", ConnectivityCohort::Wifi, 200, 1.0, 10));
        let cells: Vec<CohortCell> = l.cells().collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].level, (QUALITY_LEVELS - 1) as u8);
    }

    #[test]
    fn merge_is_elementwise_and_keeps_first_policy() {
        let mut a = CohortLedger::new();
        a.record(&QualitySample::delivered("RichNote", ConnectivityCohort::Cell, 2, 0.5, 100));
        let mut b = CohortLedger::new();
        b.record(&QualitySample::delivered("RichNote", ConnectivityCohort::Cell, 2, 0.25, 50));
        let mut empty = CohortLedger::new();
        empty.merge(&a);
        empty.merge(&b);
        assert_eq!(empty.policy(), "RichNote");
        assert_eq!(empty.total_bytes(), 150);
        assert!((empty.total_utility() - 0.75).abs() < 1e-12);
        let cells: Vec<CohortCell> = empty.cells().collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].delivered, 2);
    }

    #[test]
    fn ledger_roundtrips_through_json() {
        let mut l = CohortLedger::new();
        l.record(&QualitySample::delivered("UTIL", ConnectivityCohort::Wifi, 3, 0.4, 999));
        let s = serde_json::to_string(&l).unwrap();
        let back: CohortLedger = serde_json::from_str(&s).unwrap();
        assert_eq!(l, back);
    }
}
