//! The `richnote-server` daemon binary.
//!
//! ```text
//! richnote-server [--addr HOST:PORT] [--shards N] [--queue-capacity N]
//!                 [--round-secs S] [--data-grant BYTES]
//!                 [--checkpoint-dir DIR] [--checkpoint-every ROUNDS]
//!                 [--metrics-addr HOST:PORT]
//!                 [--history-capacity SNAPSHOTS]
//!                 [--trace-capacity SPANS] [--trace-sample 1/N]
//!                 [--flight-dir DIR]
//!                 [--record PATH] [--codec json|binary]
//!                 [--policy richnote|fifo|util|adaptive]
//!                 [--no-rsrc] [--slo-window SECS]
//!                 [--slo-round-latency US] [--slo-ack-latency US]
//!                 [--slo-shed-target FRACTION]
//!                 [--alert-rules PATH] [--incident-dir DIR]
//!                 [--stall-secs S]
//!                 [--faults SPEC]
//! ```
//!
//! With `--checkpoint-dir`, the daemon restores the newest checkpoint on
//! startup (if one exists) and checkpoints on every `Drain`; add
//! `--checkpoint-every N` for periodic checkpoints at tick boundaries.
//! `--metrics-addr` serves the Prometheus text exposition over plain HTTP
//! (try `curl http://HOST:PORT/metrics`) and the windowed analytics
//! `/query` endpoint next to it; `--history-capacity` bounds the
//! metrics-history ring those windows are answered from (snapshots, one
//! per tick batch; `0` disables history and `/query` answers empty).
//! `--trace-capacity` enables the per-shard span rings drained by the
//! wire-level `Trace` view, and with them the per-shard flight recorder
//! of finished span trees. `--trace-sample 1/N` head-samples
//! per-publication span traces (anomalies are always kept; `0` disables
//! spans), and `--flight-dir` makes shard panics and checkpoint failures
//! dump the flight recorder to CRC-framed `flight-shard-N.rnfl` files.
//! `--record PATH` captures every inbound post-handshake request frame to
//! a CRC-framed, hash-chained capture file for `richnote-replay` (see
//! `richnote_server::record`); capture writes happen off the hot path and
//! shed under backpressure (`richnote_record_shed_total`).
//! `--codec` caps the richest frame codec the daemon will negotiate in
//! the handshake: `binary` (the default) lets binary-capable clients
//! upgrade, `json` pins every connection to the JSON framing.
//! `--policy` selects the scheduling policy every shard runs (default
//! `richnote`; `adaptive` adds connectivity-aware grant scaling and
//! ladder capping). Checkpoints record their policy, and restoring under
//! a different one fails loudly.
//! `--no-rsrc` turns off per-thread CPU/allocation cost accounting
//! (for overhead A/B runs; the counters export as zero). The `--slo-*`
//! flags tune the health engine behind `/healthz` and the wire `Health`
//! view: the rolling window length, the per-round and per-ack wall
//! latencies past which an event burns error budget, and the budgeted
//! shed fraction. `--alert-rules` loads a JSON array of
//! [`richnote_server::AlertRule`] definitions replacing the built-in
//! defaults, `--incident-dir` makes every newly-firing alert and every
//! watchdog trip write a CRC-framed `.rnincident` forensic bundle there
//! (read with `richnote-incident print`), and `--stall-secs` sets the
//! per-shard watchdog's stall budget before a wedged shard flips
//! `/healthz` to `violating`. `--faults` takes the spec grammar of
//! [`richnote_server::FaultPlan::parse`], e.g.
//! `reset=0.02,short-read=7,panic=1@3,ckfail=2,seed=9` (testing only).

use richnote_obs::rsrc::{set_alloc_counting, CountingAlloc};
use richnote_server::{
    AlertRule, CodecKind, FaultPlan, PolicyName, SampleRate, Server, ServerConfig,
    ServerConfigBuilder, SloConfig, WatchdogConfig,
};
use std::process::ExitCode;
use std::time::Instant;

/// The daemon runs under the counting allocator so the allocs-per-
/// publication cost metric is real in production, not just in the
/// perf harness; `--no-rsrc` gates it back to a plain passthrough.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn usage() -> ! {
    eprintln!(
        "usage: richnote-server [--addr HOST:PORT] [--shards N] \
         [--queue-capacity N] [--round-secs S] [--data-grant BYTES] \
         [--checkpoint-dir DIR] [--checkpoint-every ROUNDS] \
         [--metrics-addr HOST:PORT] \
         [--history-capacity SNAPSHOTS] [--trace-capacity SPANS] \
         [--trace-sample 1/N] [--flight-dir DIR] \
         [--record PATH] [--codec json|binary] \
         [--policy richnote|fifo|util|adaptive] \
         [--no-rsrc] [--slo-window SECS] [--slo-round-latency US] \
         [--slo-ack-latency US] [--slo-shed-target FRACTION] \
         [--alert-rules PATH] [--incident-dir DIR] [--stall-secs S] \
         [--faults SPEC]"
    );
    std::process::exit(2)
}

fn parse_args() -> ServerConfigBuilder {
    let mut builder = ServerConfig::builder().addr("127.0.0.1:7464");
    let mut slo = SloConfig::default();
    let mut watchdog = WatchdogConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        builder = match flag.as_str() {
            "--addr" => builder.addr(value("--addr")),
            "--shards" => builder.shards(parse(&value("--shards"), "--shards")),
            "--queue-capacity" => {
                builder.queue_capacity(parse(&value("--queue-capacity"), "--queue-capacity"))
            }
            "--round-secs" => builder.round_secs(parse(&value("--round-secs"), "--round-secs")),
            "--data-grant" => builder.data_grant(parse(&value("--data-grant"), "--data-grant")),
            "--checkpoint-dir" => builder.checkpoint_dir(value("--checkpoint-dir")),
            "--checkpoint-every" => builder
                .checkpoint_every_rounds(parse(&value("--checkpoint-every"), "--checkpoint-every")),
            "--metrics-addr" => builder.metrics_addr(value("--metrics-addr")),
            "--history-capacity" => {
                builder.history_capacity(parse(&value("--history-capacity"), "--history-capacity"))
            }
            "--trace-capacity" => {
                builder.trace_capacity(parse(&value("--trace-capacity"), "--trace-capacity"))
            }
            "--trace-sample" => {
                let spec = value("--trace-sample");
                match SampleRate::parse(&spec) {
                    Ok(rate) => builder.trace_sample(rate),
                    Err(e) => {
                        eprintln!("bad --trace-sample: {e}");
                        usage()
                    }
                }
            }
            "--flight-dir" => builder.flight_dir(value("--flight-dir")),
            "--record" => builder.record(value("--record")),
            "--codec" => builder.codec(parse::<CodecKind>(&value("--codec"), "--codec")),
            "--policy" => builder.policy(parse::<PolicyName>(&value("--policy"), "--policy")),
            "--no-rsrc" => builder.rsrc_enabled(false),
            "--slo-window" => {
                slo.window_secs = parse(&value("--slo-window"), "--slo-window");
                builder
            }
            "--slo-round-latency" => {
                slo.round_latency_us = parse(&value("--slo-round-latency"), "--slo-round-latency");
                builder
            }
            "--slo-ack-latency" => {
                slo.ack_latency_us = parse(&value("--slo-ack-latency"), "--slo-ack-latency");
                builder
            }
            "--slo-shed-target" => {
                slo.shed_target = parse(&value("--slo-shed-target"), "--slo-shed-target");
                builder
            }
            "--alert-rules" => {
                let path = value("--alert-rules");
                match load_alert_rules(&path) {
                    Ok(rules) => builder.alert_rules(rules),
                    Err(e) => {
                        eprintln!("bad --alert-rules {path}: {e}");
                        usage()
                    }
                }
            }
            "--incident-dir" => builder.incident_dir(value("--incident-dir")),
            "--stall-secs" => {
                watchdog.stall_secs = parse(&value("--stall-secs"), "--stall-secs");
                builder
            }
            "--faults" => {
                let spec = value("--faults");
                match FaultPlan::parse(&spec) {
                    Ok(plan) => builder.faults(plan),
                    Err(e) => {
                        eprintln!("bad --faults spec: {e}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        };
    }
    builder.slo(slo).watchdog(watchdog)
}

/// Loads `--alert-rules`: a JSON array of rule definitions, e.g.
/// `[{"name":"shed","for_secs":0,"kind":{"Rate":{"family":"richnote_queue_dropped_total",
/// "labels":[],"window_secs":60,"per":"richnote_pubs_total","above":0.05}}}]`.
fn load_alert_rules(path: &str) -> Result<Vec<AlertRule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    let v = serde_json::parse_value(&text?).map_err(|e| e.to_string())?;
    serde::Deserialize::from_value(&v).map_err(|e: serde::DeError| e.0)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args().build() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("richnote-server: invalid configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    set_alloc_counting(cfg.rsrc.enabled);
    let bind_started = Instant::now();
    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("richnote-server: bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "richnote-server: listening on {} with {} shards (round = {}s, grant = {} B)",
        server.local_addr(),
        cfg.shards,
        cfg.round_secs,
        cfg.data_grant
    );
    if let Some(addr) = server.metrics_local_addr() {
        eprintln!("richnote-server: metrics exposition on http://{addr}/metrics");
    }
    if let Some(restore) = server.restored() {
        eprintln!(
            "richnote-server: restored {} users at round {} from {} in {:.1}ms",
            restore.users,
            restore.round,
            cfg.checkpoint_dir.as_deref().unwrap_or("?"),
            bind_started.elapsed().as_secs_f64() * 1e3
        );
    }
    match server.run() {
        Ok(()) => {
            eprintln!("richnote-server: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("richnote-server: {e}");
            ExitCode::FAILURE
        }
    }
}
