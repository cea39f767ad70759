//! `ingest_binary`: publisher-side capacity.
//!
//! Closed loop, pipelined (the client's own window of 1024), one binary
//! connection per lane. A one-day trace is striped over the connections and
//! repeated under fresh content ids until the time is up; connection 0
//! issues `tick(1)` after every chunk of 4096 of its publishes. The latency
//! reported is what a publisher sees, the time for a chunk's 4096 `publish`
//! calls to return with at most 1024 unacked; the tick's own latency under
//! this load is a matter of how deep the shard queues happen to be (6 to
//! 12 ms from run to run) and is kept as a per-layer figure. Codec
//! decode, session dedup, broker match, queue, `ShardState::ingest` and the
//! cumulative ack do most of the work; rounds do little. Two connections
//! meet on the router's broker and session mutexes.

use super::{
    numbered, summarise_region, timed_setups, trace_overhead_share, traced_cycle, Outcome, Params,
};
use crate::daemon::{self, ItemSource, Quality, Rig};
use crate::host;
use crate::measure::{RegionLog, Sampler, Series};
use crate::spans::Tracer;
use richnote_core::ContentItem;
use richnote_pubsub::Topic;
use richnote_server::{Client, CodecKind};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Publishes between two ticks of connection 0, and the unit of timing.
const CHUNK: u64 = 4096;
const WARMUP_CHUNKS: u64 = 24;
const WINDOW: Duration = Duration::from_secs(1);
/// Tail percentile of the time a chunk's publishes take (some hundred
/// chunks per window on the lane that is timed).
const TAIL: f64 = 0.75;

fn set_up(p: &Params) -> Result<Rig, String> {
    let users = p.scaled(1_600, 80);
    Rig::set_up("ingest", p.seed, users, users, |c| {
        c.codec(CodecKind::Binary).queue_capacity(1 << 20)
    })
}

/// What one connection's generator thread brings back.
struct Lane {
    errors: u64,
    /// Publishes so far, after each chunk.
    published: Series,
    chunk_secs: Vec<f64>,
    /// `(seconds since the region began, µs)` each chunk's publishes took.
    publish_us: Vec<(f64, f64)>,
    tick_us: Vec<f64>,
    tracer: Tracer,
}

fn drive(
    mut client: Client,
    lane: usize,
    lanes: usize,
    templates: &[ContentItem],
    go: &Barrier,
    p: &Params,
) -> Lane {
    // Content ids: a disjoint range per connection, above the trace's own.
    let mut src = ItemSource::new(templates, lane, lanes, (lane as u64 + 1) << 40);
    let mut errors = 0u64;
    // One chunk; returns what its publishes and its tick (lane 0) took, µs.
    let mut chunk = |client: &mut Client, tr: &mut Tracer, op: u64| -> (f64, Option<f64>) {
        tr.span("chunk", op, |tr| {
            let t0 = Instant::now();
            tr.span("publish_chunk", op, |_| {
                for _ in 0..CHUNK {
                    let item = src.next_item();
                    if client.publish(Topic::FriendFeed(item.recipient), item).is_err() {
                        errors += 1;
                    }
                }
            });
            let publish_us = t0.elapsed().as_secs_f64() * 1e6;
            let tick_us = (lane == 0).then(|| {
                let t0 = Instant::now();
                if tr.span("tick", op, |_| client.tick(1)).is_err() {
                    errors += 1;
                }
                t0.elapsed().as_secs_f64() * 1e6
            });
            (publish_us, tick_us)
        })
    };

    let mut idle = Tracer::new(Instant::now(), false);
    go.wait();
    for op in 0..p.scaled(WARMUP_CHUNKS, 2) {
        chunk(&mut client, &mut idle, op);
    }
    go.wait();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(p.seconds);
    let mut tracer = Tracer::new(started, p.trace);
    let (mut chunk_secs, mut publish_us, mut tick_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut published = Series::default();
    let mut op = 0u64;
    loop {
        tracer.enabled = p.trace && traced_cycle(op);
        let t0 = Instant::now();
        let (published_in_us, ticked_in_us) = chunk(&mut client, &mut tracer, op);
        chunk_secs.push(t0.elapsed().as_secs_f64());
        op += 1;
        let now = started.elapsed().as_secs_f64();
        published.push(now, (op * CHUNK) as f64);
        publish_us.push((now, published_in_us));
        tick_us.extend(ticked_in_us);
        if Instant::now() >= deadline {
            break;
        }
    }
    tracer.enabled = p.trace;
    if tracer.span("sync", op, |_| client.sync()).is_err() {
        errors += 1;
    }
    Lane { errors, published, chunk_secs, publish_us, tick_us, tracer }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut env, setup_s) = timed_setups(p, || set_up(p), Rig::tear_down)?;
    out.setup_s = setup_s;

    let lanes = host::lanes();
    out.notes.push(format!(
        "daemon in-process on host loopback; {lanes} connection(s) = generator thread(s) = \
         shard(s); closed loop, client window 1024, {} users",
        env.users
    ));
    let go = Barrier::new(lanes + 1);
    let mut sampler = None;
    let mut round_cpu_us_before = Ok(0);
    let clients: Vec<Client> = (0..lanes)
        .map(|_| env.daemon.client(CodecKind::Binary).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    let results: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, client)| {
                let (templates, go) = (&env.templates, &go);
                s.spawn(move || drive(client, lane, lanes, templates, go, p))
            })
            .collect();
        go.wait(); // warm-up starts
        go.wait(); // measured region starts
        sampler = Some(Sampler::start(
            Instant::now(),
            WINDOW.min(Duration::from_secs_f64(p.seconds / 4.0)),
        ));
        if p.trace {
            round_cpu_us_before = env.control.stats().map(|r| daemon::round_cpu_us(&r.snapshot));
        }
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "generator thread panicked".to_string()))
            .collect::<Result<Vec<Lane>, String>>()
    })?;
    let edges = sampler.expect("region started").stop();
    out.round_cpu_us_before = round_cpu_us_before.map_err(|e| format!("stats: {e}"))?;

    // Flush the shard queues so every acked publication is ingested or shed.
    let mut failed: u64 = results.iter().map(|l| l.errors).sum();
    if env.control.tick(2).is_err() {
        failed += 1;
    }
    let snap = env.control.stats().map_err(|e| format!("stats: {e}"))?.snapshot;
    let warm = p.scaled(WARMUP_CHUNKS, 2) * CHUNK * lanes as u64;
    let published: u64 = results.iter().map(|l| l.published.total() as u64).sum();
    let lost = daemon::unaccounted(&snap, warm + published);
    if lost > 0 {
        out.problems.push(format!("{lost} acked publications neither ingested nor shed"));
    }
    let ticks: u64 = results.iter().map(|l| l.tick_us.len() as u64).sum();
    out.attempted = published + ticks + lanes as u64 + 1;
    out.failed = failed + lost;

    let series: Vec<Series> = results.iter().map(|l| l.published.clone()).collect();
    let log = RegionLog {
        work: series.clone(),
        pubs: series,
        cpu_credit: Vec::new(),
        // The last lane's: with two lanes, the one that only publishes.
        latency_us: results.last().expect("a lane").publish_us.clone(),
    };
    summarise_region("4096 publishes accepted", &log, &edges, TAIL, 1, &mut out);
    out.utility_per_mb = Quality::of(&snap).utility_per_mb();
    out.notes.push(format!("{published} publications acked in {:.2} s", out.region_wall_s));
    out.detail.insert("ingest_pubs_per_s".into(), published as f64 / out.region_wall_s);
    let tick_us: Vec<f64> = results.iter().flat_map(|l| l.tick_us.iter().copied()).collect();
    if !tick_us.is_empty() {
        out.detail.insert("client.tick_us.p50".into(), crate::stats::median(&tick_us));
    }
    // The last lane's chunks: with two lanes, the one that never ticks.
    let chunk_secs = &results.last().expect("a lane").chunk_secs;
    out.detail.insert("trace_overhead_share".into(), trace_overhead_share(numbered(chunk_secs)));
    out.counts.binary_publishes = published;
    out.counts.ticks = ticks;
    out.counts.user_rounds = ticks * env.users;
    out.counts.selected = published;
    for lane in results {
        out.spans.push(lane.tracer.into_spans());
    }
    out.server = Some(snap);
    env.tear_down()?;
    Ok(out)
}
