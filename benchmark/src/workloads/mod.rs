//! The four workloads. Each builds its inputs from the seed, sets the
//! system up (timed, several times), warms up, measures for the requested
//! time in fixed-work cycles, checks the outputs and returns an [`Outcome`].

pub mod ingest_binary;
pub mod paced_mixed;
pub mod round_dense;
pub mod sim_week;

use crate::measure::{self, RegionLog};
use crate::report::Better;
use crate::spans::Span;
use crate::stats;
use richnote_server::RegistrySnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Each workload's name and, in one line, why it exists (`BENCHMARK.json`'s
/// `why`).
pub const WORKLOADS: [(&str, &str); 4] = [
    ("ingest_binary", "closed-loop pipelined binary publishes on 2 connections: decode, dedup, match, queue, ingest and ack do most of the work, rounds a fifth"),
    ("paced_mixed", "open loop at a fixed 5000 pubs/s below saturation over a binary and a JSON connection, each publish synced: ack latency, where a layer's cost shows one for one"),
    ("round_dense", "20000 users with state, a round per 400 publishes, tick and tick_report, checkpoint and restore: run_round over every user does most of the work, codec little"),
    ("sim_week", "PopulationSim over 300 users x 168 hourly rounds with a trained forest and Markov network: scheduler, MCKP, Lyapunov, energy, net, forest with no server, codec or socket"),
];

pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0)
}

/// How a run is sized and what it records.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured region, seconds.
    pub seconds: f64,
    /// Record spans, count allocations and scrape the daemon's stage
    /// timers; end-to-end metrics come from runs with this off.
    pub trace: bool,
    /// 1/20 scale with checks on, for a quick end-to-end pass.
    pub smoke: bool,
}

impl Params {
    /// `full` at full scale, a twentieth of it (at least `floor`) in smoke.
    pub fn scaled(&self, full: u64, floor: u64) -> u64 {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// Whether a traced run records spans in cycle `c`. It traces alternate
/// blocks of three cycles and compares them with the blocks between, so
/// both halves see the same machine state; three shares no factor with the
/// workloads' own periods (a report every 4th cycle, a checkpoint every
/// 800th), so every kind of cycle lands on both sides.
pub fn traced_cycle(c: u64) -> bool {
    (c / 3) & 1 == 0
}

/// Fixed outputs of a deterministic prefix of a run: equal across
/// repetitions of the same seed, and equal to the golden for seed 42.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub selected: u64,
    pub delivered_bytes: u64,
    /// Count (or bytes, see the workload) per presentation level.
    pub levels: BTreeMap<String, u64>,
    pub utility_per_mb: f64,
}

impl Digest {
    /// Counts must match exactly; utility per MB to 1e-9 relative, which
    /// tolerates a reordered float sum and nothing a selection change makes.
    pub fn matches(&self, other: &Digest) -> bool {
        let close = (self.utility_per_mb - other.utility_per_mb).abs()
            <= 1e-9 * self.utility_per_mb.abs().max(other.utility_per_mb.abs());
        self.selected == other.selected
            && self.delivered_bytes == other.delivered_bytes
            && self.levels == other.levels
            && close
    }
}

/// How many times the run crossed each layer, for `--explain`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Publications, by the codec of the connection they went over; each
    /// is routed once and ingested once.
    pub binary_publishes: u64,
    pub json_publishes: u64,
    pub user_rounds: u64,
    pub selected: u64,
    pub ticks: u64,
    pub report_deliveries: u64,
    pub checkpoints: u64,
    pub checkpoint_users: u64,
    pub sim_user_weeks: f64,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub cpu_us_per_pub: f64,
    pub lat_p50_us: f64,
    pub lat_tail_us: f64,
    pub utility_per_mb: f64,
    /// Operations attempted and failed in the measured region and checks.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; the run is incorrect when non-empty.
    pub problems: Vec<String>,
    /// Load shape and sample counts, printed with the metrics.
    pub notes: Vec<String>,
    /// Workload-specific figures under the issue's names (`ack_p50_us`, …)
    /// and client/server layer figures of this run.
    pub detail: BTreeMap<String, f64>,
    pub counts: OpCounts,
    /// Process CPU seconds the measured region consumed.
    pub region_cpu_s: f64,
    pub region_wall_s: f64,
    pub digest: Option<Digest>,
    /// Every span of a traced run, per generator thread.
    pub spans: Vec<Vec<Span>>,
    /// Final `stats()` scrape of the daemon (daemon workloads).
    pub server: Option<RegistrySnapshot>,
    /// Thread CPU the daemon's rounds had used when the region began, µs.
    pub round_cpu_us_before: u64,
}

/// Sets the system up several times, tearing each instance but the last
/// down again; returns the last instance and the lower-quartile set-up time
/// (the best quartile, as for every other figure; see [`measure`]). Three
/// times at least; a cheap set-up is repeated up to nine times while the
/// total stays under a second and a half, because its time is the noisiest.
pub fn timed_setups<E>(
    p: &Params,
    mut set_up: impl FnMut() -> Result<E, String>,
    mut tear_down: impl FnMut(E) -> Result<(), String>,
) -> Result<(E, f64), String> {
    let (min_reps, max_reps) = if p.smoke { (1, 1) } else { (3, 9) };
    let mut secs: Vec<f64> = Vec::new();
    let mut env = None;
    while secs.len() < min_reps || (secs.len() < max_reps && secs.iter().sum::<f64>() < 1.5) {
        if let Some(old) = env.take() {
            tear_down(old)?;
        }
        let t0 = Instant::now();
        env = Some(set_up()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((env.expect("set-up ran at least once"), measure::best_quartile(&secs, Better::Lower)))
}

/// Median and tail of latency samples in µs, with a note giving the count.
/// The tail is the workload's stated percentile; a run too short to leave
/// ten samples beyond it falls back to the highest percentile that does,
/// and says so.
fn latency_summary(
    what: &str,
    samples_us: &mut [f64],
    stated_tail: f64,
    out: &mut Outcome,
) -> (f64, f64) {
    stats::sort(samples_us);
    let n = samples_us.len();
    if n == 0 {
        out.problems.push(format!("{what}: no latency samples"));
        return (0.0, 0.0);
    }
    let tail = stats::supported_tail(n).map_or(0.50, |p| p.min(stated_tail));
    let (p50, pt) = (stats::percentile(samples_us, 0.50), stats::percentile(samples_us, tail));
    let short = if tail < stated_tail { " (run too short for the stated tail)" } else { "" };
    out.notes.push(format!(
        "{what}: {n} samples, median {p50:.1} us, p{} {pt:.1} us{short}",
        tail * 100.0
    ));
    (p50, pt)
}

/// Fills the outcome's throughput, CPU and latency figures from the
/// region's log: per window, then the best quartile over the windows (see
/// [`crate::measure`]). A run too short to give the windows enough latency
/// samples falls back to the pooled sample.
pub fn summarise_region(
    what: &str,
    log: &RegionLog,
    edges: &[(f64, f64)],
    stated_tail: f64,
    cpu_span: usize,
    out: &mut Outcome,
) {
    let s = measure::summarise(log, edges, stated_tail, cpu_span);
    out.work_per_s = s.work_per_s;
    out.cpu_us_per_pub = s.cpu_us_per_pub;
    let mut pooled: Vec<f64> = log.latency_us.iter().map(|&(_, us)| us).collect();
    let (p50, tail) = latency_summary(what, &mut pooled, stated_tail, out);
    (out.lat_p50_us, out.lat_tail_us) =
        if s.tail_windows >= 3 { (s.lat_p50_us, s.lat_tail_us) } else { (p50, tail) };
    out.notes.push(format!(
        "reported figures are the best quartile over {} windows ({} with enough samples for the \
         tail){}",
        s.windows,
        s.tail_windows,
        if s.tail_windows >= 3 { "" } else { "; latency falls back to the pooled sample" }
    ));
    if let (Some(first), Some(last)) = (edges.first(), edges.last()) {
        let credit: f64 = log.cpu_credit.iter().map(|c| c.at(last.0) - c.at(first.0)).sum();
        out.region_wall_s = last.0 - first.0;
        out.region_cpu_s = (last.1 - first.1 - credit).max(0.0);
    }
}

/// Median traced cycle time over median untraced cycle time, minus one,
/// with the `(cycle, seconds)` pairs split as [`traced_cycle`] splits them.
pub fn trace_overhead_share(cycles: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (on, off): (Vec<_>, Vec<_>) = cycles.partition(|&(c, _)| traced_cycle(c));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    let median = |v: &[(u64, f64)]| stats::median(&v.iter().map(|&(_, s)| s).collect::<Vec<_>>());
    median(&on) / median(&off) - 1.0
}

/// Cycle `i` took `secs[i]`: the pairs [`trace_overhead_share`] wants.
pub fn numbered(secs: &[f64]) -> impl Iterator<Item = (u64, f64)> + '_ {
    secs.iter().enumerate().map(|(c, &s)| (c as u64, s))
}

pub fn run(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "ingest_binary" => ingest_binary::run(p),
        "paced_mixed" => paced_mixed::run(p),
        "round_dense" => round_dense::run(p),
        "sim_week" => sim_week::run(p),
        other => Err(format!("unknown workload {other:?}")),
    }
}
