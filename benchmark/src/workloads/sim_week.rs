//! `sim_week`: the reproduction's own job (paper §V), with no server.
//!
//! Batch. Set-up generates a training trace, trains the forest on it, and
//! generates the evaluation trace (400 users × 7 days at 40 notifications
//! per user-day), as the `repro` harness's environment does. Measured:
//! `PopulationSim::run` for the top 300 users × 168 hourly rounds, RichNote
//! policy, Markov network, 20 MB weekly budget, repeated until the time is
//! up. One pass is twenty-five `run` calls over 12 users each (dealt round-robin
//! from the volume ranking so they weigh alike), so a run yields
//! enough timing samples; `run` itself fans users out over the CPUs the
//! process is allowed, one when pinned. A
//! core optimisation must show here *and* on `round_dense`; a wire or
//! router optimisation must show nothing here.

use super::{
    numbered, summarise_region, timed_setups, trace_overhead_share, traced_cycle, Digest, Outcome,
    Params,
};
use crate::measure::{RegionLog, Sampler, Series};
use crate::spans::Tracer;
use richnote_core::UserId;
use richnote_forest::dataset::Dataset;
use richnote_forest::forest::{RandomForest, RandomForestConfig};
use richnote_sim::simulator::forest_utility;
use richnote_sim::{AggregateMetrics, NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
use richnote_trace::generator::classifier_rows;
use richnote_trace::{TraceConfig, TraceGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: u64 = 300;
const SLICES: u64 = 25;
const WEEKLY_BUDGET_MB: u64 = 20;
const TAIL: f64 = 0.75;
/// Two seconds: some sixty `run` calls, enough for the tail percentile.
const WINDOW: Duration = Duration::from_secs(2);
/// A `run` call's time is reported per this many notification arrivals of
/// its slice: how many a slice gets is the seed's doing, not the code's.
const PER_ARRIVALS: f64 = 10_000.0;

struct Env {
    sim: PopulationSim,
    /// Each slice's users and the notifications they receive in the week.
    slices: Vec<(Vec<UserId>, u64)>,
}

fn trace_config(seed: u64, users: usize) -> TraceConfig {
    TraceConfig {
        seed,
        n_users: users,
        days: 7,
        mean_notifications_per_user_day: 40.0,
        ..TraceConfig::default()
    }
}

fn set_up(p: &Params) -> Result<Env, String> {
    // Trained on a disjoint, smaller trace (seed + 1), so nothing leaks.
    let train =
        TraceGenerator::new(trace_config(p.seed + 1, p.scaled(120, 30) as usize)).generate();
    let (rows, labels) = classifier_rows(&train.items);
    let data = Dataset::new(rows, labels).map_err(|e| format!("training rows: {e}"))?;
    let forest = RandomForest::fit(&data, &RandomForestConfig::default(), p.seed);

    let trace = TraceGenerator::new(trace_config(p.seed, p.scaled(400, 40) as usize)).generate();
    let users = trace.top_users(p.scaled(USERS, 20) as usize);
    // Dealt round-robin from the volume ranking, so the slices weigh alike.
    let slices = (0..SLICES as usize)
        .map(|s| {
            let slice: Vec<UserId> =
                users.iter().copied().skip(s).step_by(SLICES as usize).collect();
            let arrivals = slice.iter().map(|&u| trace.items_for(u).count() as u64).sum();
            (slice, arrivals)
        })
        .collect();
    let cfg = SimulationConfig {
        network: NetworkKind::Markov,
        seed: p.seed,
        ..SimulationConfig::weekly(PolicyKind::richnote_default(), WEEKLY_BUDGET_MB)
    };
    let sim = PopulationSim::new(Arc::new(trace), forest_utility(Arc::new(forest)), cfg);
    Ok(Env { sim, slices })
}

/// What the passes of a region add up to, logged after every `run` call.
#[derive(Default)]
struct Progress {
    users: u64,
    arrivals: u64,
    notifications: Series,
    run_us: Vec<(f64, f64)>,
}

/// One pass over all users: the digest of the slices' aggregates.
fn pass(env: &Env, op: u64, tr: &mut Tracer, origin: Instant, log: &mut Progress) -> Digest {
    let mut parts: Vec<AggregateMetrics> = Vec::new();
    tr.span("pass", op, |tr| {
        for (slice, arrivals) in &env.slices {
            let t0 = Instant::now();
            let (agg, _) = tr.span("PopulationSim::run", op, |_| env.sim.run(slice));
            let now = origin.elapsed().as_secs_f64();
            let us = t0.elapsed().as_secs_f64() * 1e6;
            log.run_us.push((now, us * PER_ARRIVALS / (*arrivals).max(1) as f64));
            log.users += slice.len() as u64;
            log.arrivals += arrivals;
            log.notifications.push(now, log.arrivals as f64);
            parts.push(agg);
        }
    });
    let bytes: u64 = parts.iter().map(|a| a.bytes_delivered).sum();
    let utility: f64 = parts.iter().map(|a| a.total_utility).sum();
    let mut levels = vec![0u64; parts[0].level_histogram.len()];
    for a in &parts {
        for (l, n) in a.level_histogram.iter().enumerate() {
            levels[l] += *n as u64;
        }
    }
    Digest {
        selected: parts.iter().map(|a| a.delivered as u64).sum(),
        delivered_bytes: bytes,
        levels: levels
            .into_iter()
            .enumerate()
            .map(|(l, n)| (format!("delivered_at_{l}"), n))
            .collect(),
        utility_per_mb: if bytes == 0 { 0.0 } else { utility / (bytes as f64 / 1e6) },
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (env, setup_s) = timed_setups(p, || set_up(p), |_| Ok(()))?;
    out.setup_s = setup_s;
    let users: u64 = env.slices.iter().map(|(s, _)| s.len() as u64).sum();
    out.notes.push(format!(
        "no daemon; 1 driving thread, PopulationSim::run fans out over the CPUs it is allowed \
         (one when pinned); {users} users x 168 rounds per pass in {} run() calls, Markov \
         network, {WEEKLY_BUDGET_MB} MB/week",
        env.slices.len()
    ));

    let mut idle = Tracer::new(Instant::now(), false);
    // Warm-up, and the digest every later pass must equal.
    let reference = pass(&env, 0, &mut idle, Instant::now(), &mut Progress::default());

    let started = Instant::now();
    let sampler = Sampler::start(started, WINDOW.min(Duration::from_secs_f64(p.seconds / 4.0)));
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let mut tracer = Tracer::new(started, p.trace);
    let mut progress = Progress::default();
    let mut pass_secs = Vec::new();
    let mut mismatches = 0u64;
    let mut op = 0u64;
    loop {
        tracer.enabled = p.trace && traced_cycle(op);
        let t0 = Instant::now();
        let digest = pass(&env, op + 1, &mut tracer, started, &mut progress);
        pass_secs.push(t0.elapsed().as_secs_f64());
        if !digest.matches(&reference) {
            mismatches += 1;
        }
        op += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let edges = sampler.stop();
    if mismatches > 0 {
        out.problems.push(format!("{mismatches} of {op} passes differ from the first pass"));
    }
    out.attempted = op * env.slices.len() as u64;
    out.failed = mismatches;

    let log = RegionLog {
        // Arrivals, not user-weeks: a seed's trace decides how many
        // notifications its top users get, and the cost follows those.
        work: vec![progress.notifications.clone()],
        pubs: vec![progress.notifications.clone()],
        cpu_credit: Vec::new(),
        latency_us: progress.run_us.clone(),
    };
    summarise_region(
        "PopulationSim::run over one slice, per 10000 arrivals",
        &log,
        &edges,
        TAIL,
        1,
        &mut out,
    );
    out.utility_per_mb = reference.utility_per_mb;
    out.notes.push(format!(
        "{op} passes in {:.2} s; cpu_us_per_pub is per simulated notification arrival ({} per \
         pass)",
        out.region_wall_s,
        progress.arrivals / op
    ));
    out.detail.insert("sim_user_weeks_per_s".into(), progress.users as f64 / out.region_wall_s);
    out.detail.insert("trace_overhead_share".into(), trace_overhead_share(numbered(&pass_secs)));
    out.counts.sim_user_weeks = progress.users as f64;
    out.digest = Some(reference);
    out.spans.push(tracer.into_spans());
    Ok(out)
}
