//! `round_dense`: the paper's round loop at scale.
//!
//! Closed loop, one connection. 20000 subscribed users, all with scheduler
//! state after the warm-up. Each cycle publishes a 400-item batch (one item
//! each for the next 2% of users), `sync`s, and runs one round: `tick(1)`,
//! or `tick_report(1)` every fourth cycle (the report carries the full
//! delivery log, so it uses serialize differently; one in four keeps the
//! median inside the plain ticks and the tail inside the reports instead of
//! letting the median sit on the boundary between the two). Every 800th
//! cycle a `checkpoint()`. The batch is sized so that the rounds, not the
//! publishes feeding them, are most of the process's CPU (the issue's 2000
//! per cycle left the rounds under 30% on this code). The data grant is
//! 6 kB per user-round, a fraction of what a user's one item per fifty
//! rounds could use, so the budget binds and the Lyapunov-adjusted MCKP has
//! a choice to make. After the measured region: shutdown, then five times
//! `Server::bind` on the checkpoint directory, `restored()`, first `stats()`.

use super::{
    numbered, summarise_region, timed_setups, trace_overhead_share, traced_cycle, Digest, Outcome,
    Params,
};
use crate::daemon::{self, Daemon, ItemSource, Quality, Rig};
use crate::measure::{RegionLog, Sampler, Series};
use crate::spans::Tracer;
use crate::{host, stats};
use richnote_core::UserId;
use richnote_pubsub::Topic;
use richnote_server::{Client, CodecKind, Server, ServerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const USERS: u64 = 20_000;
/// Cycles per pass over the users; the batch is a fiftieth of them.
const CYCLES_PER_PASS: u64 = 50;
const REPORT_EVERY: u64 = 4;
const CHECKPOINT_EVERY: u64 = 800;
const DATA_GRANT: u64 = 6_000;
/// Measured cycles the digest covers; every run reaches them.
const DIGEST_CYCLES: u64 = 100;
const RESTORES: usize = 5;
const TAIL: f64 = 0.95;
const WINDOW: Duration = Duration::from_secs(1);

fn set_up(p: &Params) -> Result<Rig, String> {
    // The trace gives templates only: every publication is re-addressed
    // round-robin, so each user gets exactly one item per pass whatever the
    // trace's shape.
    Rig::set_up("dense", p.seed, p.scaled(2_000, 100), p.scaled(USERS, 200), |c| {
        c.codec(CodecKind::Binary).queue_capacity(1 << 20).data_grant(DATA_GRANT)
    })
}

/// What the cycles of one run add up to.
#[derive(Default)]
struct Tally {
    errors: u64,
    published: u64,
    selected: u64,
    reports: u64,
    report_deliveries: u64,
    /// Deliveries per level seen in `tick_report` cycles.
    report_levels: BTreeMap<u8, u64>,
    /// `(seconds since the region began, µs)` of every tick, either kind.
    tick_us: Vec<(f64, f64)>,
    /// User-rounds and publications so far, after each cycle.
    user_rounds: Series,
    publications: Series,
    plain_tick_us: Vec<f64>,
    report_us: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    cycle_secs: Vec<f64>,
}

struct Cycler<'a> {
    /// The region's start; cycle ends are logged relative to it.
    origin: Instant,
    client: &'a mut Client,
    src: ItemSource<'a>,
    users: u64,
    batch: u64,
    tally: Tally,
}

impl Cycler<'_> {
    /// One cycle: batch, sync, round, and a checkpoint when due.
    fn cycle(&mut self, c: u64, tr: &mut Tracer) {
        let t0 = Instant::now();
        let (client, src, tally) = (&mut *self.client, &mut self.src, &mut self.tally);
        let first = (c % CYCLES_PER_PASS) * self.batch;
        tr.span("cycle", c, |tr| {
            tr.span("publish_batch", c, |_| {
                for k in 0..self.batch {
                    let user = UserId::new((first + k) % self.users);
                    if client.publish(Topic::FriendFeed(user), src.next_for(user)).is_err() {
                        tally.errors += 1;
                    }
                }
            });
            tally.published += self.batch;
            if tr.span("sync", c, |_| client.sync()).is_err() {
                tally.errors += 1;
            }
            let t_tick = Instant::now();
            if c % REPORT_EVERY == REPORT_EVERY - 1 {
                match tr.span("tick_report", c, |_| client.tick_report(1)) {
                    Ok((_, deliveries)) => {
                        tally.selected += deliveries.len() as u64;
                        tally.report_deliveries += deliveries.len() as u64;
                        for d in &deliveries {
                            *tally.report_levels.entry(d.level).or_default() += 1;
                        }
                    }
                    Err(_) => tally.errors += 1,
                }
                tally.reports += 1;
                tally.report_us.push(t_tick.elapsed().as_secs_f64() * 1e6);
            } else {
                match tr.span("tick", c, |_| client.tick(1)) {
                    Ok((_, selected)) => tally.selected += selected,
                    Err(_) => tally.errors += 1,
                }
                tally.plain_tick_us.push(t_tick.elapsed().as_secs_f64() * 1e6);
            }
            let tick_us = t_tick.elapsed().as_secs_f64() * 1e6;
            tally.tick_us.push((self.origin.elapsed().as_secs_f64(), tick_us));
            if c % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                let t_ck = Instant::now();
                if tr.span("checkpoint", c, |_| client.checkpoint()).is_err() {
                    tally.errors += 1;
                }
                tally.checkpoint_ms.push(t_ck.elapsed().as_secs_f64() * 1e3);
            }
        });
        tally.cycle_secs.push(t0.elapsed().as_secs_f64());
        let (now, cycles) = (self.origin.elapsed().as_secs_f64(), tally.cycle_secs.len() as f64);
        tally.user_rounds.push(now, cycles * self.users as f64);
        tally.publications.push(now, tally.published as f64);
    }
}

/// The digest of the daemon's deliveries so far.
fn digest(client: &mut Client, tally: &Tally) -> Result<Digest, String> {
    let snap = client.stats().map_err(|e| format!("stats: {e}"))?.snapshot;
    let q = Quality::of(&snap);
    let mut levels = daemon::bytes_by_level(&snap);
    levels.extend(tally.report_levels.iter().map(|(l, n)| (format!("reported_at_{l}"), *n)));
    Ok(Digest {
        selected: snap.counter_total("richnote_selected_total"),
        delivered_bytes: q.bytes,
        levels,
        utility_per_mb: q.utility_per_mb(),
    })
}

/// `bind` on the checkpoint directory → `restored()` → first `stats()`,
/// `RESTORES` times; returns the times in ms.
fn restore_times(
    cfg: &ServerConfig,
    dir: &std::path::Path,
    users: u64,
    ingested: u64,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut ms = Vec::new();
    for _ in 0..RESTORES {
        let t0 = Instant::now();
        let server = Server::bind(cfg.clone()).map_err(|e| format!("bind on checkpoint: {e}"))?;
        let restored = server.restored();
        let daemon = Daemon::run(server, dir.to_path_buf(), cfg.clone());
        let mut client = daemon.client(CodecKind::Binary).map_err(|e| format!("connect: {e}"))?;
        let snap = client.stats().map_err(|e| format!("stats after restore: {e}"))?.snapshot;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let got_users = restored.map_or(0, |r| r.users);
        let got_ingested = snap.counter_total("richnote_pubs_total");
        if got_users != users || got_ingested != ingested {
            out.failed += 1;
            out.problems.push(format!(
                "restore brought back {got_users} users and {got_ingested} ingested \
                 publications, expected {users} and {ingested}"
            ));
        }
        daemon.stop(&mut client)?;
    }
    Ok(ms)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut env, setup_s) = timed_setups(p, || set_up(p), Rig::tear_down)?;
    out.setup_s = setup_s;
    let users = env.users;
    let batch = users / CYCLES_PER_PASS;
    out.notes.push(format!(
        "daemon in-process on host loopback; 1 connection, {} shard(s); closed loop; {users} \
         users, {batch} publications per cycle, data grant {DATA_GRANT} B per user-round",
        host::lanes()
    ));

    let mut cycler = Cycler {
        origin: Instant::now(),
        client: &mut env.control,
        src: ItemSource::new(&env.templates, 0, 1, 1 << 40),
        users,
        batch,
        tally: Tally::default(),
    };
    // Warm-up: one full pass, so every user has scheduler state.
    let mut idle = Tracer::new(Instant::now(), false);
    for c in 0..CYCLES_PER_PASS {
        cycler.cycle(c, &mut idle);
    }
    let warm_errors = cycler.tally.errors;
    let warm_published = cycler.tally.published;
    cycler.tally = Tally::default();

    if p.trace {
        let snap = cycler.client.stats().map_err(|e| format!("stats: {e}"))?.snapshot;
        out.round_cpu_us_before = daemon::round_cpu_us(&snap);
    }
    let started = Instant::now();
    cycler.origin = started;
    let sampler = Sampler::start(started, WINDOW.min(Duration::from_secs_f64(p.seconds / 4.0)));
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let mut tracer = Tracer::new(started, p.trace);
    let digest_cycles = p.scaled(DIGEST_CYCLES, 8);
    let mut c = 0u64;
    while c < digest_cycles || Instant::now() < deadline {
        tracer.enabled = p.trace && traced_cycle(c);
        cycler.cycle(CYCLES_PER_PASS + c, &mut tracer);
        c += 1;
        if c == digest_cycles {
            out.digest = Some(digest(&mut *cycler.client, &cycler.tally)?);
        }
    }
    let edges = sampler.stop();
    let tally = std::mem::take(&mut cycler.tally);
    drop(cycler);

    // Final checkpoint for the restore phase, then the accounting scrape.
    let mut failed = warm_errors + tally.errors;
    let t_ck = Instant::now();
    let final_ck = env.control.checkpoint();
    let final_ck_ms = t_ck.elapsed().as_secs_f64() * 1e3;
    if final_ck.is_err() {
        failed += 1;
    }
    let snap = env.control.stats().map_err(|e| format!("stats: {e}"))?.snapshot;
    let acked = warm_published + tally.published;
    let lost = daemon::unaccounted(&snap, acked);
    if lost > 0 {
        out.problems.push(format!("{lost} acked publications neither ingested nor shed"));
    }
    // Nothing expires under the default policy, so what was ingested is
    // either selected by now or still in a scheduler's backlog.
    let ingested = snap.counter_total("richnote_pubs_total");
    let selected = snap.counter_total("richnote_selected_total");
    let backlog = daemon::backlog(&snap) as u64;
    if selected + backlog != ingested {
        failed += 1;
        out.problems
            .push(format!("ingested {ingested} != selected {selected} + backlog {backlog}"));
    }
    let cycles = tally.cycle_secs.len() as u64;
    out.attempted = tally.published + 2 * cycles + tally.checkpoint_ms.len() as u64 + 3;
    out.failed = failed + lost;

    let log = RegionLog {
        work: vec![tally.user_rounds.clone()],
        pubs: vec![tally.publications.clone()],
        cpu_credit: Vec::new(),
        latency_us: tally.tick_us.clone(),
    };
    summarise_region("tick(1) / tick_report(1)", &log, &edges, TAIL, 1, &mut out);
    out.utility_per_mb = out.digest.as_ref().map_or(0.0, |d| d.utility_per_mb);
    out.notes.push(format!(
        "{cycles} cycles in {:.2} s; digest and utility_per_mb cover the warm-up and the first \
         {digest_cycles} measured cycles",
        out.region_wall_s
    ));

    let tick_wall_s: f64 = tally.tick_us.iter().map(|&(_, us)| us).sum::<f64>() / 1e6;
    out.detail.insert("user_rounds_per_s".into(), (cycles * users) as f64 / tick_wall_s);
    out.detail.insert("tick_p50_us".into(), out.lat_p50_us);
    out.detail.insert("tick_p99_us".into(), out.lat_tail_us);
    out.detail.insert("client.tick_us.p50".into(), stats::median(&tally.plain_tick_us));
    if !tally.report_us.is_empty() {
        out.detail.insert("client.tickreport_us.p50".into(), stats::median(&tally.report_us));
    }
    let mut ck_ms = tally.checkpoint_ms.clone();
    ck_ms.push(final_ck_ms);
    out.detail.insert("checkpoint_p50_ms".into(), stats::median(&ck_ms));
    out.notes.push(format!("checkpoint(): {} samples", ck_ms.len()));
    out.detail
        .insert("trace_overhead_share".into(), trace_overhead_share(numbered(&tally.cycle_secs)));

    out.counts.binary_publishes = tally.published;
    out.counts.ticks = cycles;
    out.counts.user_rounds = cycles * users;
    out.counts.selected = tally.selected;
    out.counts.report_deliveries = tally.report_deliveries;
    out.counts.checkpoints = tally.checkpoint_ms.len() as u64;
    out.counts.checkpoint_users = users;
    out.spans.push(tracer.into_spans());
    out.server = Some(snap);

    let cfg = env.daemon.cfg.clone();
    let dir = env.daemon.stop(&mut env.control)?;
    let restore_ms = restore_times(&cfg, &dir, users, ingested, &mut out)?;
    out.detail.insert("restore_ms".into(), stats::median(&restore_ms));
    out.notes.push(format!("restore: {} samples, bind -> restored() -> first stats()", RESTORES));
    host::remove_scratch(&dir);
    Ok(out)
}
