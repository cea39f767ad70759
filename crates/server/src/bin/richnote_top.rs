//! `richnote-top`: a live, per-shard terminal view of a running
//! `richnote-server`, in the spirit of `top(1)`.
//!
//! ```text
//! richnote-top [--addr HOST:PORT] [--interval-ms MS] [--once]
//! ```
//!
//! Each refresh reads the wire-level `Stats` (merged metric registry),
//! `Health`, `Alerts`, `Query`, `Trace` (draining the span rings) and
//! `Flight` (non-destructive flight-recorder read) views and renders:
//!
//! * per-shard throughput (publications/sec between refreshes), backlog,
//!   rounds and stage-latency percentiles (dequeue / select),
//! * the chosen-level histogram per shard as a sparkline over levels
//!   0–6 (level 0 = suppressed, 1 = metadata only, 6 = full preview),
//! * connection-side stage latencies (match / serialize / ack),
//! * an alerting pane: firing/pending rule counts, every rule not
//!   currently quiet with its value against its threshold, watchdog
//!   verdicts for stalled shards, and the path of the last incident
//!   bundle written,
//! * a delivery-quality pane: per-policy utility-per-MB with a per-tick
//!   trend sparkline, fed by the server's `/query` history so the very
//!   first frame shows real rates (no second scrape needed), and
//! * the most recent anomalous span trees (drops and level 0–1
//!   selections), which bypass head sampling and are therefore always
//!   present in the flight recorder when tracing is on.
//!
//! Throughput rates are likewise sourced from the server-side history
//! (virtual-time rates over the run).
//!
//! `--once` renders a single frame without clearing the screen and
//! exits — the headless mode CI uses to prove the full observability
//! path (every view + rendering) works end to end.
//! The `Trace` view drains the server's rings, so a live `richnote-top`
//! session is a consumer: runs that later assert on dumped spans should
//! finish before a watcher starts, or rely on the flight recorder, whose
//! reads are non-destructive.

use richnote_obs::{MetricValue, RegistrySnapshot, SeriesSnapshot};
use richnote_server::{
    AlertsReply, Client, FlightDump, HealthReport, HistoryQuery, QueryResult, ServerResult,
    SpanStage, SpanTree, StatsReply,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

/// Levels 0..=6: suppressed, metadata, and the five preview lengths.
const LEVELS: usize = 7;
/// Anomalous trees shown in the incident pane.
const ANOMALY_ROWS: usize = 5;

struct Args {
    addr: String,
    interval_ms: u64,
    once: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args { addr: "127.0.0.1:7464".to_string(), interval_ms: 1_000, once: false }
    }
}

fn usage() -> ! {
    eprintln!("usage: richnote-top [--addr HOST:PORT] [--interval-ms MS] [--once]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => a.addr = value("--addr"),
            "--interval-ms" => {
                a.interval_ms = value("--interval-ms").parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --interval-ms");
                    usage()
                })
            }
            "--once" => a.once = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if a.interval_ms == 0 {
        eprintln!("--interval-ms must be at least 1");
        usage()
    }
    a
}

fn label<'a>(s: &'a SeriesSnapshot, key: &str) -> Option<&'a str> {
    s.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Merged histogram for one (`shard`, `stage`) label pair.
fn stage_hist(snap: &RegistrySnapshot, shard: &str, stage: &str) -> richnote_obs::Log2Histogram {
    let mut h = richnote_obs::Log2Histogram::new();
    if let Some(f) = snap.family("richnote_stage_duration_us") {
        for s in &f.series {
            if label(s, "shard") == Some(shard) && label(s, "stage") == Some(stage) {
                if let MetricValue::Histogram(v) = &s.value {
                    h.merge(v);
                }
            }
        }
    }
    h
}

/// Chosen-level counts for one shard, indexed by level 0..=6.
fn level_counts(snap: &RegistrySnapshot, shard: usize) -> [u64; LEVELS] {
    let mut counts = [0u64; LEVELS];
    let shard = shard.to_string();
    if let Some(f) = snap.family("richnote_level_total") {
        for s in &f.series {
            if label(s, "shard") == Some(shard.as_str()) {
                if let (Some(level), MetricValue::Counter(v)) =
                    (label(s, "level").and_then(|x| x.parse::<usize>().ok()), &s.value)
                {
                    if level < LEVELS {
                        counts[level] += *v;
                    }
                }
            }
        }
    }
    counts
}

/// Renders level counts as a 7-cell sparkline (levels 0..=6, left to
/// right), scaled to the shard's own maximum.
fn sparkline(counts: &[u64; LEVELS]) -> String {
    const BARS: [char; 8] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '█'];
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| {
            if max == 0 || c == 0 {
                BARS[0]
            } else {
                // 1..=7 so any nonzero count is visible.
                BARS[1 + (c * 6 / max) as usize]
            }
        })
        .collect()
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 10_000.0 {
        format!("{:.0}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// One policy's delivery-quality rollup, derived from the server-side
/// history windows of `richnote_utility_total` and
/// `richnote_delivered_bytes_total`.
struct PolicyQuality {
    policy: String,
    utility: f64,
    mb: f64,
    /// Per-tick-interval utility-per-MB, oldest first — the trend trail.
    trend: Vec<f64>,
}

/// Sums a query result's series per `policy` label: windowed delta plus
/// the pointwise per-interval rates.
fn sum_by_policy(result: &QueryResult) -> HashMap<String, (f64, Vec<f64>)> {
    let mut acc: HashMap<String, (f64, Vec<f64>)> = HashMap::new();
    for s in &result.series {
        let Some(policy) = s.labels.iter().find(|(k, _)| k == "policy").map(|(_, v)| v) else {
            continue;
        };
        let e = acc.entry(policy.clone()).or_default();
        e.0 += s.delta;
        if e.1.len() < s.points.len() {
            e.1.resize(s.points.len(), 0.0);
        }
        for (a, p) in e.1.iter_mut().zip(&s.points) {
            *a += p;
        }
    }
    acc
}

/// Joins the utility and bytes windows into per-policy rows, sorted by
/// policy name.
fn policy_quality(utility: &QueryResult, bytes: &QueryResult) -> Vec<PolicyQuality> {
    let u = sum_by_policy(utility);
    let b = sum_by_policy(bytes);
    let mut rows: Vec<PolicyQuality> = u
        .into_iter()
        .map(|(policy, (udelta, upoints))| {
            let (bdelta, bpoints) = b.get(&policy).cloned().unwrap_or_default();
            // Per-interval rates divide out to utility-per-byte; scale to
            // the paper's per-MB headline unit.
            let trend = upoints
                .iter()
                .zip(&bpoints)
                .map(|(&ur, &br)| if br > 0.0 { ur / br * 1e6 } else { 0.0 })
                .collect();
            PolicyQuality { policy, utility: udelta, mb: bdelta / 1e6, trend }
        })
        .collect();
    rows.sort_by(|x, y| x.policy.cmp(&y.policy));
    rows
}

/// Renders a float series as a sparkline scaled to its own maximum,
/// keeping the most recent 16 points.
fn spark_f64(points: &[f64]) -> String {
    const BARS: [char; 8] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '█'];
    let tail = &points[points.len().saturating_sub(16)..];
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                BARS[1 + ((v / max) * 6.0).round() as usize]
            }
        })
        .collect()
}

/// The alerting pane.
fn render_alerts(reply: &AlertsReply) {
    let active: Vec<String> = reply
        .alerts
        .iter()
        .filter(|a| a.state.as_str() != "inactive")
        .map(|a| {
            let value = a.value.map_or("-".to_string(), |v| format!("{v:.3}"));
            format!("{} {} ({} vs {:.3})", a.rule, a.state.as_str(), value, a.threshold)
        })
        .collect();
    println!(
        "alerts: {} firing, {} pending | {}",
        reply.firing,
        reply.pending,
        if active.is_empty() { "all quiet".to_string() } else { active.join(" | ") },
    );
    for v in &reply.watchdog {
        println!(
            "  watchdog: shard {} {} ({}/{} rounds, {:.1}s without progress)",
            v.shard, v.problem, v.rounds_done, v.rounds_expected, v.stalled_secs
        );
    }
    if let Some(path) = &reply.last_incident {
        println!("  last incident: {path}");
    }
}

/// The quality pane: per-policy utility-per-MB with its per-tick trend,
/// fed entirely by the server-side history (real numbers on the very
/// first frame — no second scrape needed).
fn render_quality(utility: &QueryResult, bytes: &QueryResult) {
    let rows = policy_quality(utility, bytes);
    if rows.is_empty() {
        println!("quality: no deliveries recorded yet");
        return;
    }
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            let per_mb = if r.mb > 0.0 { r.utility / r.mb } else { 0.0 };
            format!(
                "{} {:.3} U/MB ({:.1} U over {:.2} MB) {}",
                r.policy,
                per_mb,
                r.utility,
                r.mb,
                spark_f64(&r.trend),
            )
        })
        .collect();
    println!("quality: {}", cells.join(" | "));
}

/// `12.3µs/pub`-style per-publication cost, `-` when nothing published.
fn per_pub(total: u64, pubs: u64) -> String {
    if pubs == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", total as f64 / pubs as f64)
    }
}

fn fmt_uptime(secs: u64) -> String {
    if secs >= 3_600 {
        format!("{}h{:02}m", secs / 3_600, (secs % 3_600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

/// The identity header and the resource-cost pane.
fn render_identity_and_cost(a: &Args, stats: &StatsReply, health: &HealthReport) {
    println!(
        "richnote-top — {} | richnote-server v{} ({}, {}) | up {} | health {} \
         ({}/{} shards alive)",
        a.addr,
        stats.build.version,
        stats.build.git_sha,
        stats.build.profile,
        fmt_uptime(stats.uptime_secs),
        health.status.as_str(),
        health.shards_alive,
        health.shards_total,
    );
    let snap = &stats.snapshot;
    let pubs = snap.counter_total("richnote_pubs_total");
    println!(
        "cost: cpu {}µs/pub | {} allocs/pub | {} B/pub | contended queue {} registry {}",
        per_pub(snap.counter_total("richnote_cpu_us_total"), pubs),
        per_pub(snap.counter_total("richnote_allocs_total"), pubs),
        per_pub(snap.counter_total("richnote_alloc_bytes_total"), pubs),
        snap.counter_total("richnote_queue_contended_total"),
        snap.counter_total("richnote_registry_contended_total"),
    );
}

/// Per-shard virtual-time rates from a `richnote_pubs_total` history
/// window (series labeled `shard="N"`).
fn shard_rates(result: &QueryResult) -> HashMap<usize, f64> {
    let mut m = HashMap::new();
    for s in &result.series {
        if let Some(shard) =
            s.labels.iter().find(|(k, _)| k == "shard").and_then(|(_, v)| v.parse().ok())
        {
            *m.entry(shard).or_insert(0.0) += s.rate;
        }
    }
    m
}

/// The history windows one frame is drawn from, each over the whole run.
struct Windows {
    pubs: QueryResult,
    utility: QueryResult,
    bytes: QueryResult,
}

/// One rendered frame of the dashboard.
fn render(
    a: &Args,
    reply: &StatsReply,
    health: &HealthReport,
    anomalies: &[SpanTree],
    flights: &[FlightDump],
    windows: &Windows,
    alerts: &AlertsReply,
) {
    let stats = &reply.snapshot;
    let rates = shard_rates(&windows.pubs);
    render_identity_and_cost(a, reply, health);
    println!(
        "{} shards | ingested {} | selected {} | backlog {} | {} pubs/s",
        health.shards_total,
        stats.counter_total("richnote_pubs_total"),
        stats.counter_total("richnote_selected_total"),
        stats.gauge_total("richnote_backlog"),
        fmt_rate(windows.pubs.total.rate),
    );
    println!(
        "{:>5} {:>7} {:>8} {:>8} {:>7} {:>8}  {:>15}  {:>15}  {:<7}",
        "shard",
        "users",
        "pubs/s",
        "selected",
        "rounds",
        "backlog",
        "dequeue p50/p95",
        "select p50/p95",
        "lv 0-6",
    );
    // One row per configured shard; a dead shard has no series left in
    // the merge and shows as zeros.
    for shard in 0..health.shards_total {
        let shard_label = shard.to_string();
        let of_shard =
            |family: &str| stats.value_where(family, "shard", &shard_label).unwrap_or(0.0);
        let dequeue = stage_hist(stats, &shard_label, "dequeue");
        let select = stage_hist(stats, &shard_label, "select");
        println!(
            "{:>5} {:>7} {:>8} {:>8} {:>7} {:>8}  {:>15}  {:>15}  {:<7}",
            shard,
            of_shard("richnote_users"),
            fmt_rate(rates.get(&shard).copied().unwrap_or(0.0)),
            of_shard("richnote_selected_total"),
            of_shard("richnote_rounds_total"),
            of_shard("richnote_backlog"),
            format!("{}/{}", fmt_us(dequeue.quantile_us(0.50)), fmt_us(dequeue.quantile_us(0.95))),
            format!("{}/{}", fmt_us(select.quantile_us(0.50)), fmt_us(select.quantile_us(0.95))),
            sparkline(&level_counts(stats, shard)),
        );
    }
    let stage_line: Vec<String> = ["match", "serialize", "ack"]
        .iter()
        .map(|st| {
            let h = stage_hist(stats, "server", st);
            format!("{st} p50 {} p95 {}", fmt_us(h.quantile_us(0.50)), fmt_us(h.quantile_us(0.95)))
        })
        .collect();
    println!("conn stages: {}", stage_line.join(" | "));
    render_alerts(alerts);
    render_quality(&windows.utility, &windows.bytes);
    println!(
        "flight recorder: {} trees retained, {} evicted | last anomalous traces \
         (drops, level ≤ 1):",
        flights.iter().map(|f| f.trees.len()).sum::<usize>(),
        flights.iter().map(|f| f.dropped).sum::<u64>(),
    );
    if anomalies.is_empty() {
        println!("  (none)");
    }
    for t in anomalies.iter().rev().take(ANOMALY_ROWS) {
        let user = t.spans.iter().find_map(|s| s.user);
        let verdict = if t.stage(SpanStage::Drop).is_some() {
            "dropped before selection".to_string()
        } else {
            match t.stage(SpanStage::Select).and_then(|s| s.decision.as_ref()) {
                Some(d) => format!(
                    "level {} (utility {:.3}, gradient {:.3e}, {} B budget left)",
                    d.level, d.utility, d.gradient, d.budget_remaining
                ),
                None => "incomplete".to_string(),
            }
        };
        let stages: Vec<String> = t.spans.iter().map(|s| format!("{:?}", s.stage)).collect();
        println!(
            "  trace {:#018x} user {} — {} [{}]",
            t.trace,
            user.map_or("?".to_string(), |u| u.to_string()),
            verdict,
            stages.join("→")
        );
    }
}

fn run(a: &Args) -> ServerResult<()> {
    let mut client = Client::builder(&a.addr).connect()?;
    loop {
        let stats = client.stats()?;
        let health = client.health()?;
        let mut window = |family: &str| {
            client.query(HistoryQuery {
                family: family.to_string(),
                labels: Vec::new(),
                window_secs: f64::MAX,
            })
        };
        let windows = Windows {
            pubs: window("richnote_pubs_total")?,
            utility: window("richnote_utility_total")?,
            bytes: window("richnote_delivered_bytes_total")?,
        };
        let alerts = client.alerts()?;
        // Flight-recorder reads are non-destructive; the trace ring is a
        // drain, which is fine for a live watcher (it is the consumer).
        let flights = client.flight_dump()?;
        let (spans, _) = client.trace_dump()?;

        let mut anomalies: Vec<SpanTree> = flights
            .iter()
            .flat_map(|f| f.trees.iter())
            .filter(|t| t.is_anomalous())
            .cloned()
            .collect();
        anomalies.extend(SpanTree::assemble(&spans).into_iter().filter(|t| t.is_anomalous()));

        if !a.once {
            // Clear screen and home the cursor, like top(1).
            print!("\x1b[2J\x1b[H");
        }
        render(a, &stats, &health, &anomalies, &flights, &windows, &alerts);
        if a.once {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(a.interval_ms));
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("richnote-top: {e}");
            ExitCode::FAILURE
        }
    }
}
