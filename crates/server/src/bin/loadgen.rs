//! Load generator: replays a `richnote-trace` workload against a running
//! `richnote-server` and reports sustained throughput plus ingest-to-
//! selection latency percentiles.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--users N] [--days D] [--seed S]
//!         [--connections N] [--rate PUBS_PER_SEC] [--tick-ms MS]
//!         [--repeat K] [--stats-every TICKS] [--trace-sample 1/N]
//!         [--faults drop=P,seed=S] [--drain] [--shutdown]
//! loadgen --record-golden PATH [--users N] [--days D] [--seed S]
//!         [--policy richnote|fifo|util|adaptive]
//! ```
//!
//! With `--record-golden`, the load generator ignores `--addr` entirely:
//! it spawns a private in-process daemon in the canonical golden
//! configuration (`richnote_server::golden_config`; `--policy` selects
//! its shard scheduling policy — the committed fixture uses the RichNote
//! default), records a seeded
//! single-connection workload through the daemon's `--record` capture
//! path, and rewrites the capture with synthesized timestamps so the
//! committed fixture under `tests/goldens/` is byte-stable across
//! machines. This is how the replay regression fixture is (re)generated;
//! see `richnote-replay` for the other half of the loop.
//!
//! The trace's friend-feed structure is flattened to one feed per user:
//! every user subscribes to their own feed and each item is published to
//! its recipient's feed, so broker matching is exercised on every
//! publication without needing the social graph on the client.
//!
//! With `--stats-every N`, the ticker polls the server's wire-level
//! `Stats` registry every N ticks and prints the server-side selection
//! latency next to the client-observed one (publish to tick-report
//! delivery). Both sides are dominated by the wait for the next tick, so
//! steady-state percentiles should agree within one log2 bucket; the run
//! prints whether they do.
//!
//! With `--trace-sample 1/N`, the generator mints a deterministic 64-bit
//! trace id per publication (from the workload seed, never the clock) and
//! attaches it to the head-sampled subset, turning on end-to-end causal
//! tracing for those publications. After the drain the run reads the
//! `Trace` and `Flight` views, assembles the span trees, and — when
//! sampling at `1/1` — exits nonzero unless at least one complete
//! publish→queue→select→serialize→ack tree carrying a selection decision
//! came back. CI leans on that exit code.
//!
//! With `--faults drop=P`, each publisher connection is torn down with
//! probability `P` before every publish (deterministic per `seed`),
//! exercising the client's reconnect-and-republish path. The run still
//! asserts the zero-acked-loss invariant: once every connection has
//! synced, `ingested + dropped-by-backpressure + dropped-on-drain` must
//! equal the number of publications offered, and the process exits
//! nonzero otherwise. The counters are read before and after the run, so
//! the invariant covers this run's publications only and holds against a
//! daemon that has already served traffic (or restored it from a
//! checkpoint). `--drain` and `--shutdown` are sent even when the check
//! fails.

use richnote_core::UserId;
use richnote_pubsub::Topic;
use richnote_server::wire::Delivery;
use richnote_server::{
    derive_trace_id, Client, CodecKind, FaultRng, Log2Histogram, PolicyName, SampleRate,
    ServerError, ServerResult, SpanStage, SpanTree,
};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    users: usize,
    days: u64,
    seed: u64,
    connections: usize,
    /// Target publish rate across all connections; 0 = unthrottled.
    rate: f64,
    tick_ms: u64,
    /// Publish the trace this many times (scales offered load without
    /// scaling trace generation time).
    repeat: usize,
    /// Print server-vs-client latency percentiles every this many ticks;
    /// 0 disables the comparison entirely.
    stats_every: u64,
    /// Per-publish probability of injecting a connection reset.
    fault_drop: f64,
    fault_seed: u64,
    /// Head-sampling rate for per-publication trace ids; `OFF` disables
    /// tracing entirely.
    trace_sample: SampleRate,
    drain: bool,
    shutdown: bool,
    /// (Re)generate the committed replay golden capture at this path
    /// instead of driving an external server.
    record_golden: Option<String>,
    /// Shard scheduling policy of the `--record-golden` in-process daemon.
    policy: PolicyName,
    /// Frame codec every connection offers in its handshake; the server
    /// may still negotiate down to JSON.
    codec: CodecKind,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7464".to_string(),
            users: 2_000,
            days: 2,
            seed: 42,
            connections: 4,
            rate: 0.0,
            tick_ms: 50,
            repeat: 1,
            stats_every: 0,
            fault_drop: 0.0,
            fault_seed: 1,
            trace_sample: SampleRate::OFF,
            drain: false,
            shutdown: false,
            record_golden: None,
            policy: PolicyName::RichNote,
            codec: CodecKind::Binary,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--users N] [--days D] [--seed S] \
         [--connections N] [--rate PUBS_PER_SEC] [--tick-ms MS] [--repeat K] \
         [--stats-every TICKS] [--trace-sample 1/N] [--faults drop=P,seed=S] \
         [--codec json|binary] [--drain] [--shutdown]\n\
         \x20      loadgen --record-golden PATH [--users N] [--days D] [--seed S] \
         [--policy richnote|fifo|util|adaptive]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

/// Parses the client-side fault spec: `drop=P[,seed=S]`.
fn parse_faults(spec: &str, a: &mut Args) {
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, val) = match part.split_once('=') {
            Some(kv) => kv,
            None => {
                eprintln!("bad --faults entry {part:?} (expected key=value)");
                usage()
            }
        };
        match key {
            "drop" => a.fault_drop = parse(val, "--faults drop"),
            "seed" => a.fault_seed = parse(val, "--faults seed"),
            other => {
                eprintln!("unknown --faults key {other:?} (expected drop, seed)");
                usage()
            }
        }
    }
    if !(0.0..=1.0).contains(&a.fault_drop) {
        eprintln!("--faults drop must be a probability in [0, 1]");
        usage()
    }
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
            "--users" => a.users = parse(&value("--users"), "--users"),
            "--days" => a.days = parse(&value("--days"), "--days"),
            "--seed" => a.seed = parse(&value("--seed"), "--seed"),
            "--connections" => a.connections = parse(&value("--connections"), "--connections"),
            "--rate" => a.rate = parse(&value("--rate"), "--rate"),
            "--tick-ms" => a.tick_ms = parse(&value("--tick-ms"), "--tick-ms"),
            "--repeat" => a.repeat = parse(&value("--repeat"), "--repeat"),
            "--stats-every" => a.stats_every = parse(&value("--stats-every"), "--stats-every"),
            "--trace-sample" => {
                let spec = value("--trace-sample");
                match SampleRate::parse(&spec) {
                    Ok(rate) => a.trace_sample = rate,
                    Err(e) => {
                        eprintln!("bad --trace-sample: {e}");
                        usage()
                    }
                }
            }
            "--faults" => {
                let spec = value("--faults");
                parse_faults(&spec, &mut a);
            }
            "--codec" => a.codec = parse(&value("--codec"), "--codec"),
            "--drain" => a.drain = true,
            "--shutdown" => a.shutdown = true,
            "--record-golden" => a.record_golden = Some(value("--record-golden")),
            "--policy" => a.policy = parse(&value("--policy"), "--policy"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if a.connections == 0 || a.repeat == 0 {
        eprintln!("--connections and --repeat must be at least 1");
        usage()
    }
    a
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

/// Folds tick-report deliveries into the client-side latency histogram,
/// matching each delivery back to its publish instant.
fn absorb_deliveries(
    deliveries: &[Delivery],
    publish_at: &Mutex<HashMap<u64, Instant>>,
    client_lat: &Mutex<Log2Histogram>,
) {
    let mut at = publish_at.lock().unwrap();
    let mut lat = client_lat.lock().unwrap();
    for d in deliveries {
        if let Some(t0) = at.remove(&d.content.value()) {
            lat.record_us(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
}

/// Renders server-side and client-observed latency percentiles side by
/// side.
fn side_by_side(server: &Log2Histogram, client: &Log2Histogram) -> String {
    format!(
        "selection latency server vs client: p50 {} / {}, p95 {} / {}, p99 {} / {} \
         ({} / {} samples)",
        fmt_us(server.quantile_us(0.50)),
        fmt_us(client.quantile_us(0.50)),
        fmt_us(server.quantile_us(0.95)),
        fmt_us(client.quantile_us(0.95)),
        fmt_us(server.quantile_us(0.99)),
        fmt_us(client.quantile_us(0.99)),
        server.count(),
        client.count()
    )
}

/// Drains the trace rings and flight recorders, assembles span trees and
/// verifies they are well formed. When head-sampling at `1/1` this is the
/// CI gate: the run fails unless at least one complete
/// publish→queue→select→serialize→ack tree carrying a selection decision
/// came back. At lower rates (or after ring eviction under load) only
/// structural integrity is enforced.
fn verify_span_trees(control: &mut Client, a: &Args, minted: u64) -> ServerResult<()> {
    let (spans, ring_dropped) = control.trace_dump()?;
    let trees = SpanTree::assemble(&spans);
    let flights = control.flight_dump()?;
    let flight_trees: usize = flights.iter().map(|f| f.trees.len()).sum();
    let complete = trees.iter().filter(|t| t.is_complete()).count();
    let decided = trees
        .iter()
        .filter(|t| t.is_complete())
        .filter(|t| t.stage(SpanStage::Select).is_some_and(|s| s.decision.is_some()))
        .count();
    println!(
        "spans: {} publications traced at {}, {} trees assembled \
         ({} complete, {} with decisions, {} ring-evicted spans), \
         flight recorder holds {} trees across {} shards",
        minted,
        a.trace_sample,
        trees.len(),
        complete,
        decided,
        ring_dropped,
        flight_trees,
        flights.len()
    );
    // Structural integrity of what the daemon assembled itself (`trees`
    // was grouped here, by trace id, so it is well formed by construction).
    for f in &flights {
        if let Some(t) = f.trees.iter().find(|t| t.spans.is_empty()) {
            return Err(ServerError::Frame(format!(
                "flight recorder shard {}: empty span tree {:#x}",
                f.shard, t.trace
            )));
        }
    }
    if trees.is_empty() {
        return Err(ServerError::Frame(format!(
            "tracing at {} minted {minted} ids but the Trace view returned no span trees \
             (is the server running with --trace-capacity and --trace-sample?)",
            a.trace_sample
        )));
    }
    if a.trace_sample.denominator() == 1 && a.fault_drop == 0.0 && decided == 0 {
        return Err(ServerError::Frame(
            "tracing at 1/1 produced no complete span tree with a selection decision".to_string(),
        ));
    }
    Ok(())
}

fn run(a: &Args) -> ServerResult<()> {
    let mut control = Client::builder(&a.addr).codec(a.codec).connect()?;
    let shards = control.shards();

    let mut cfg =
        TraceConfig { seed: a.seed, n_users: a.users, days: a.days, ..TraceConfig::default() };
    cfg.graph.n_users = a.users;
    let trace = TraceGenerator::new(cfg).generate();
    let total_pubs = trace.items.len() * a.repeat;
    eprintln!(
        "loadgen: {} users, {} shards, {} connections, {} publications ({}x trace of {})",
        a.users,
        shards,
        a.connections,
        total_pubs,
        a.repeat,
        trace.items.len()
    );
    if a.fault_drop > 0.0 {
        eprintln!(
            "loadgen: injecting connection drops at p={} (seed {})",
            a.fault_drop, a.fault_seed
        );
    }

    // Subscriptions are acknowledged, so the publish phase cannot race
    // ahead of registration.
    for uid in 0..a.users as u64 {
        let user = UserId::new(uid);
        control.subscribe(user, Topic::FriendFeed(user))?;
    }
    // The daemon's counters are lifetime totals; this run is accounted
    // as the difference from here to the end.
    let before = control.stats()?.snapshot;

    // Ticker thread: drives rounds while load is offered, so the latency
    // histogram reflects steady-state ingest-to-selection time. In stats
    // mode it collects the delivery log of each tick to measure latency
    // from the client's side of the wire too.
    let publishing = Arc::new(AtomicBool::new(true));
    let stats_mode = a.stats_every > 0;
    let publish_at: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let client_lat = Arc::new(Mutex::new(Log2Histogram::new()));
    let ticker = {
        let publishing = Arc::clone(&publishing);
        let addr = a.addr.clone();
        let codec = a.codec;
        let tick_ms = a.tick_ms;
        let stats_every = a.stats_every;
        let publish_at = Arc::clone(&publish_at);
        let client_lat = Arc::clone(&client_lat);
        std::thread::spawn(move || -> ServerResult<()> {
            let mut c = Client::builder(&addr).codec(codec).connect()?;
            let mut ticks = 0u64;
            while publishing.load(Ordering::Relaxed) {
                if stats_every > 0 {
                    let (_, deliveries) = c.tick_report(1)?;
                    absorb_deliveries(&deliveries, &publish_at, &client_lat);
                    ticks += 1;
                    if ticks % stats_every == 0 {
                        let server =
                            c.stats()?.snapshot.histogram_merged("richnote_selection_latency_us");
                        let client = client_lat.lock().unwrap().clone();
                        eprintln!("[tick {ticks}] {}", side_by_side(&server, &client));
                    }
                } else {
                    c.tick(1)?;
                }
                std::thread::sleep(Duration::from_millis(tick_ms));
            }
            Ok(())
        })
    };

    // Publish phase: the trace is striped across connections, each paced
    // to its share of the target rate. Totals for the retry machinery are
    // aggregated across publishers for the final report.
    let retries = AtomicU64::new(0);
    let reconnects = AtomicU64::new(0);
    let injected = AtomicU64::new(0);
    let traced = AtomicU64::new(0);
    let started = Instant::now();
    let per_conn_rate = a.rate / a.connections as f64;
    std::thread::scope(|scope| -> ServerResult<()> {
        let mut handles = Vec::new();
        for conn in 0..a.connections {
            let items = &trace.items;
            let addr = &a.addr;
            let repeat = a.repeat;
            let connections = a.connections;
            let fault_drop = a.fault_drop;
            let retries = &retries;
            let reconnects = &reconnects;
            let injected = &injected;
            let traced = &traced;
            let publish_at = &publish_at;
            let trace_sample = a.trace_sample;
            let seed = a.seed;
            let codec = a.codec;
            let mut chaos =
                FaultRng::new(a.fault_seed ^ (conn as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            handles.push(scope.spawn(move || -> ServerResult<usize> {
                let mut c = Client::builder(addr).codec(codec).connect()?;
                let t0 = Instant::now();
                let mut sent = 0usize;
                for rep in 0..repeat {
                    for item in items.iter().skip(conn).step_by(connections) {
                        if fault_drop > 0.0 && chaos.next_f64() < fault_drop {
                            c.inject_connection_reset();
                            injected.fetch_add(1, Ordering::Relaxed);
                        }
                        let mut item = item.clone();
                        // Distinct ids per repeat keep latency tracking 1:1.
                        item.id =
                            richnote_core::ContentId::new(((rep as u64) << 40) | item.id.value());
                        if stats_mode {
                            // The stamp covers client-side buffering and
                            // the wire, unlike the server's ingest stamp;
                            // both are dwarfed by tick quantization.
                            publish_at.lock().unwrap().insert(item.id.value(), Instant::now());
                        }
                        // Trace ids derive from the workload seed and the
                        // (repeat-qualified) content id, so reruns of the
                        // same workload sample the same publications.
                        let trace = if trace_sample.is_off() {
                            None
                        } else {
                            let id = derive_trace_id(seed, rep as u64, item.id.value());
                            trace_sample.keeps(id).then_some(id)
                        };
                        if trace.is_some() {
                            traced.fetch_add(1, Ordering::Relaxed);
                        }
                        c.publish_traced(Topic::FriendFeed(item.recipient), item, trace)?;
                        sent += 1;
                        if per_conn_rate > 0.0 {
                            let due = t0 + Duration::from_secs_f64(sent as f64 / per_conn_rate);
                            let now = Instant::now();
                            if due > now {
                                c.sync()?;
                                std::thread::sleep(due - now);
                            }
                        }
                    }
                }
                // Durability barrier: once sync returns, every publish
                // above is covered by a cumulative ack — without it the
                // drain loop below races frames still sitting in socket
                // buffers (or in the client's pending window).
                c.sync()?;
                retries.fetch_add(c.retries(), Ordering::Relaxed);
                reconnects.fetch_add(c.reconnects(), Ordering::Relaxed);
                Ok(sent)
            }));
        }
        let mut sent = 0usize;
        for h in handles {
            sent += h.join().expect("publisher thread panicked")?;
        }
        assert_eq!(sent, total_pubs);
        Ok(())
    })?;
    let publish_secs = started.elapsed().as_secs_f64();
    publishing.store(false, Ordering::Relaxed);
    ticker.join().expect("ticker thread panicked")?;

    // Drain phase: keep ticking until every queue is empty so the final
    // histogram covers all publications that were actually ingested.
    let mut drain_rounds = 0u32;
    loop {
        let backlog = control.stats()?.snapshot.gauge_total("richnote_backlog");
        if backlog == 0.0 || drain_rounds >= 1_000 {
            break;
        }
        if stats_mode {
            let (_, deliveries) = control.tick_report(8)?;
            absorb_deliveries(&deliveries, &publish_at, &client_lat);
        } else {
            control.tick(8)?;
        }
        drain_rounds += 8;
    }

    let snap = control.stats()?.snapshot;
    let delta =
        |family: &str| snap.counter_total(family).saturating_sub(before.counter_total(family));
    let ingested = delta("richnote_pubs_total");
    let dropped = delta("richnote_queue_dropped_total");
    let dropped_on_drain = delta("richnote_dropped_on_drain_total");
    let backlog = snap.gauge_total("richnote_backlog") as u64;
    let lat = snap.histogram_merged("richnote_selection_latency_us");
    let per_shard = |family: &str, shard: usize| {
        snap.value_where(family, "shard", &shard.to_string()).unwrap_or(0.0)
    };
    let rounds = (0..shards).map(|s| per_shard("richnote_rounds_total", s)).fold(0.0, f64::max);
    println!(
        "published {} publications in {:.2}s: {:.0} pubs/sec sustained",
        total_pubs,
        publish_secs,
        total_pubs as f64 / publish_secs
    );
    println!(
        "ingested {} ({} dropped by backpressure, {} dropped on drain), \
         selected {} over {} rounds, backlog {}",
        ingested,
        dropped,
        dropped_on_drain,
        delta("richnote_selected_total"),
        rounds,
        backlog
    );
    if a.fault_drop > 0.0 || retries.load(Ordering::Relaxed) > 0 {
        println!(
            "faults: {} connection resets injected, {} retries, {} reconnects",
            injected.load(Ordering::Relaxed),
            retries.load(Ordering::Relaxed),
            reconnects.load(Ordering::Relaxed)
        );
    }
    println!(
        "ingest-to-selection latency: p50 {} p95 {} p99 {} mean {} max {} ({} samples)",
        fmt_us(lat.quantile_us(0.50)),
        fmt_us(lat.quantile_us(0.95)),
        fmt_us(lat.quantile_us(0.99)),
        fmt_us(lat.mean_us() as u64),
        fmt_us(lat.max_us()),
        lat.count()
    );
    for s in 0..shards {
        println!(
            "  shard {s}: {} users, {} ingested, {} selected, {} rounds, {:.1} MB budgeted, {:.1} MB spent",
            per_shard("richnote_users", s),
            per_shard("richnote_pubs_total", s),
            per_shard("richnote_selected_total", s),
            per_shard("richnote_rounds_total", s),
            per_shard("richnote_bytes_budgeted_total", s) / 1e6,
            per_shard("richnote_bytes_spent_total", s) / 1e6
        );
    }

    if stats_mode {
        let client = client_lat.lock().unwrap().clone();
        println!("{}", side_by_side(&lat, &client));
        let agree = [0.50, 0.95, 0.99].iter().all(|&q| {
            match (lat.quantile_bucket(q), client.quantile_bucket(q)) {
                (Some(s), Some(c)) => s.abs_diff(c) <= 1,
                _ => false,
            }
        });
        if agree {
            println!("server and client percentiles agree within one log2 bucket");
        } else {
            eprintln!(
                "loadgen: warning: server/client latency percentiles differ by more than \
                 one log2 bucket"
            );
        }
    }

    // Zero-acked-loss invariant: every publication was acked (sync above
    // succeeded on every connection), so each must be accounted for as
    // ingested, dropped by backpressure, or refused during a drain. A
    // failed check is returned only after the drain or shutdown below.
    let accounted = ingested + dropped + dropped_on_drain + backlog;
    let checked = if accounted == total_pubs as u64 {
        println!("acked-publication accounting: {accounted}/{total_pubs} — zero loss");
        if a.trace_sample.is_off() {
            Ok(())
        } else {
            verify_span_trees(&mut control, a, traced.load(Ordering::Relaxed))
        }
    } else {
        Err(ServerError::Frame(format!(
            "acked-publication loss: {total_pubs} acked but only {accounted} accounted for \
             (ingested {ingested} + dropped {dropped} + dropped-on-drain {dropped_on_drain} \
             + backlog {backlog})"
        )))
    };

    if a.drain {
        let t0 = Instant::now();
        let (rounds, users, checkpointed) = control.drain()?;
        println!(
            "drained in {:.1}ms: {} rounds, {} users, checkpointed: {}",
            t0.elapsed().as_secs_f64() * 1e3,
            rounds,
            users,
            checkpointed
        );
    } else if a.shutdown {
        control.shutdown()?;
    }
    checked
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.record_golden {
        return match richnote_server::record_golden_with_policy(
            path,
            args.seed,
            args.users,
            args.days,
            args.policy,
        ) {
            Ok(summary) => {
                println!(
                    "golden capture written to {path}: {} record(s) covering {} publication(s) \
                     (seed {}, {} users, {} day(s), {} policy)",
                    summary.records, summary.pubs, args.seed, args.users, args.days, args.policy
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("loadgen: record-golden: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
