//! `paced_mixed`: ack latency below saturation.
//!
//! Open loop at a fixed 5000 publications per second over a binary and a JSON
//! connection: three publications on the binary one, then one on the JSON
//! one. Every publication is `publish` + `sync`, timed from its *due* time.
//! (Taken in equal turns the two would put the pooled median on the gap
//! between the binary acks, 20 µs, and the JSON ones, 27 µs, where it moves
//! with anything. At three to one the median lies inside the binary acks
//! and the 90th percentile inside the JSON ones, so each codec has a figure
//! that follows it.) Every 250 ms of schedule time the binary
//! connection also issues `tick(1)`, so round duration reaches the ack tail.
//! The queue is small (512, drop-oldest). Below saturation nothing queues,
//! so a layer's cost shows one for one in the ack time; the JSON connection
//! and the small queue make a binary-only or roomy-queue gain that costs the
//! other path visible.
//!
//! One generator thread drives both connections and busy-waits between due
//! times: with a generator thread per connection that slept between sends,
//! the ack median of one binary was 80, 91 or 120 µs from run to run,
//! depending on which idle vCPUs each hop had to wake. Polling on the one
//! CPU the run is pinned to, the generator gives the CPU up exactly while it
//! waits for the ack, and what is timed is the daemon. The CPU it burns
//! waiting for due times is taken out of the bill.

use super::{summarise_region, timed_setups, trace_overhead_share, traced_cycle, Outcome, Params};
use crate::daemon::{self, ItemSource, Quality, Rig};
use crate::measure::{RegionLog, Sampler, Series};
use crate::pacing::{Clock, OpenLoop, WallClock};
use crate::spans::Tracer;
use crate::{host, stats};
use richnote_pubsub::Topic;
use richnote_server::CodecKind;
use std::time::{Duration, Instant};

const RATE_PER_S: f64 = 5_000.0;
const WARMUP_SECS: f64 = 1.0;
const TICK_EVERY_SECS: f64 = 0.25;
/// Every fourth publication goes to the JSON connection.
const JSON_EVERY: u64 = 4;
/// The 90th percentile lies inside the JSON acks (the slowest quarter), clear
/// of the publications a tick holds up (about one in a hundred), which show
/// in `ack_p99_us`.
const TAIL: f64 = 0.90;
const WINDOW: Duration = Duration::from_secs(1);
/// CPU is netted over two windows at a time: process CPU is read in 10 ms
/// steps, and what is left of it after the busy-waiting is a quarter of a
/// second per window.
const CPU_SPAN: usize = 2;
/// Publications between two points of the progress series.
const MARK_EVERY: u64 = 100;
const CODECS: [CodecKind; 2] = [CodecKind::Binary, CodecKind::Json];

fn set_up(p: &Params) -> Result<Rig, String> {
    let users = p.scaled(1_600, 80);
    // The server allows binary; the JSON connection negotiates down.
    Rig::set_up("paced", p.seed, users, users, |c| c.codec(CodecKind::Binary).queue_capacity(512))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut env, setup_s) = timed_setups(p, || set_up(p), Rig::tear_down)?;
    out.setup_s = setup_s;
    out.notes.push(format!(
        "daemon in-process on host loopback; 1 polling generator thread, 2 connections (binary \
         x3, JSON x1 in turn), {} shard(s); open loop at {RATE_PER_S} pubs/s, tick(1) every \
         {TICK_EVERY_SECS} s on the binary connection, queue capacity 512",
        host::lanes()
    ));
    let mut clients = Vec::new();
    for codec in CODECS {
        let client = env.daemon.client(codec).map_err(|e| format!("connect: {e}"))?;
        if client.codec() != Some(codec) {
            return Err(format!("asked for {codec}, negotiated {:?}", client.codec()));
        }
        clients.push(client);
    }

    let warm_ops = (WARMUP_SECS * RATE_PER_S) as u64;
    let measured_ops = (p.seconds * RATE_PER_S) as u64;
    let tick_every = (TICK_EVERY_SECS * RATE_PER_S) as u64;
    let mut src = ItemSource::new(&env.templates, 0, 1, 1 << 40);
    let mut gen = OpenLoop::new(RATE_PER_S);
    let (mut errors, mut late_at_warm) = (0u64, 0u64);
    let (mut acked, mut spin_s) = (Series::default(), Series::default());
    let mut tick_us = Vec::new();

    let clock = WallClock::starting_now();
    let measured_from = Instant::now() + Duration::from_secs_f64(WARMUP_SECS);
    let measured_from_ns = gen.due_ns(warm_ops);
    let since_warm = |ns: u64| ns.saturating_sub(measured_from_ns) as f64 / 1e9;
    let sampler =
        Sampler::start(measured_from, WINDOW.min(Duration::from_secs_f64(p.seconds / 4.0)));
    let mut tracer = Tracer::new(measured_from, false);
    for op in 0..warm_ops + measured_ops {
        if op == warm_ops {
            gen.spin_ns = 0;
            late_at_warm = gen.late();
            gen.latencies_ns.clear();
        }
        tracer.enabled = p.trace && op >= warm_ops && traced_cycle(op - warm_ops);
        let client = &mut clients[usize::from(op % JSON_EVERY == JSON_EVERY - 1)];
        let item = src.next_item();
        let ok = gen.run_next(&clock, || {
            tracer.span("publish+sync", op, |tr| {
                let sent = tr.span("publish", op, |_| {
                    client.publish(Topic::FriendFeed(item.recipient), item)
                });
                sent.and_then(|_| tr.span("sync", op, |_| client.sync()))
            })
        });
        if ok.is_err() {
            errors += 1;
        }
        let measured = (op + 1).saturating_sub(warm_ops);
        if measured > 0 && measured % MARK_EVERY == 0 {
            let now = since_warm(clock.now_ns());
            acked.push(now, measured as f64);
            spin_s.push(now, gen.spin_ns as f64 / 1e9);
        }
        if (op + 1) % tick_every == 0 {
            tracer.enabled = p.trace && op >= warm_ops;
            let t0 = Instant::now();
            if tracer.span("tick", op, |_| clients[0].tick(1)).is_err() {
                errors += 1;
            }
            if op >= warm_ops {
                tick_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let edges = sampler.stop();
    // Closed here: the daemon's shutdown waits for every connection to end.
    drop(clients);

    // Operation `warm_ops + i` completed at its due time plus its latency.
    let ack_us: Vec<(f64, f64)> = gen
        .latencies_ns
        .iter()
        .enumerate()
        .map(|(i, &ns)| (since_warm(gen.due_ns(warm_ops + i as u64) + ns), ns as f64 / 1e3))
        .collect();
    let late = gen.late() - late_at_warm;

    if env.control.tick(2).is_err() {
        errors += 1;
    }
    let snap = env.control.stats().map_err(|e| format!("stats: {e}"))?.snapshot;
    let lost = daemon::unaccounted(&snap, warm_ops + measured_ops);
    if lost > 0 {
        out.problems.push(format!("{lost} acked publications neither ingested nor shed"));
    }
    out.attempted = 2 * measured_ops + tick_us.len() as u64 + 1;
    out.failed = errors + lost;

    let log = RegionLog {
        work: vec![acked.clone()],
        pubs: vec![acked],
        cpu_credit: vec![spin_s],
        latency_us: ack_us.clone(),
    };
    summarise_region(
        "publish+sync from due time, both connections",
        &log,
        &edges,
        TAIL,
        CPU_SPAN,
        &mut out,
    );
    out.utility_per_mb = Quality::of(&snap).utility_per_mb();
    out.notes.push(format!(
        "{measured_ops} publications acked in {:.2} s; the CPU the generator burned waiting for \
         due times is taken out of the CPU time",
        out.region_wall_s
    ));

    // Measured operation `i` was `warm_ops + i`, and `warm_ops` is a
    // multiple of four, so position in the turn is `i % JSON_EVERY`.
    for (json, codec) in CODECS.iter().enumerate() {
        let us: Vec<f64> = ack_us
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64 % JSON_EVERY == JSON_EVERY - 1) == (json == 1))
            .map(|(_, &(_, us))| us)
            .collect();
        out.detail.insert(format!("client.ack_us.{}.p50", codec.wire_name()), stats::median(&us));
    }
    let mut pooled: Vec<f64> = ack_us.iter().map(|&(_, us)| us).collect();
    stats::sort(&mut pooled);
    let named = [("ack_p50_us", 0.50), ("ack_p99_us", 0.99), ("client.ack_p999_us", 0.999)];
    for (name, pct) in named {
        if stats::samples_needed(pct) <= pooled.len() {
            out.detail.insert(name.into(), stats::percentile(&pooled, pct));
        }
    }
    if !tick_us.is_empty() {
        out.detail.insert("client.tick_us.p50".into(), stats::median(&tick_us));
    }
    let late_share = late as f64 / measured_ops as f64;
    out.detail.insert("client.late_share".into(), late_share);
    out.notes.push(format!(
        "generator sent {late} of {measured_ops} publications more than 1 ms after due time (late \
         share {late_share:.5}); a high share voids the ack reading"
    ));
    // Publications are traced in alternate blocks; compare the binary ones,
    // since the JSON ones do not fall evenly on the two sides.
    let binary =
        ack_us.iter().enumerate().filter(|(i, _)| *i as u64 % JSON_EVERY != JSON_EVERY - 1);
    let overhead = trace_overhead_share(binary.map(|(i, &(_, us))| (i as u64, us)));
    out.detail.insert("trace_overhead_share".into(), overhead);

    out.counts.json_publishes = measured_ops / JSON_EVERY;
    out.counts.binary_publishes = measured_ops - out.counts.json_publishes;
    out.counts.selected = measured_ops;
    out.counts.ticks = tick_us.len() as u64;
    out.counts.user_rounds = out.counts.ticks * env.users;
    out.spans.push(tracer.into_spans());
    out.server = Some(snap);
    env.tear_down()?;
    Ok(out)
}
