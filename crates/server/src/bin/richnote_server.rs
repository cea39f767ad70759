//! The `richnote-server` daemon binary.
//!
//! ```text
//! richnote-server [--addr HOST:PORT] [--shards N] [--queue-capacity N]
//!                 [--round-secs S] [--data-grant BYTES]
//!                 [--checkpoint-dir DIR] [--checkpoint-every ROUNDS]
//!                 [--metrics-addr HOST:PORT]
//!                 [--trace-capacity SPANS] [--trace-sample 1/N]
//!                 [--record PATH] [--codec json|binary]
//!                 [--policy richnote|fifo|util|adaptive]
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
//! `/query` endpoint next to it, answered from a metrics-history ring of
//! the last [`richnote_server::DEFAULT_HISTORY_CAPACITY`] tick-boundary
//! snapshots.
//! `--trace-capacity` enables the per-shard span rings drained by the
//! wire-level `Trace` view, and with them the per-shard flight recorder
//! of finished span trees, which outlives a shard that dies.
//! `--trace-sample 1/N` head-samples per-publication span traces
//! (anomalies are always kept; `0` disables spans).
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
//! Every shard accounts for its own cost: thread CPU time (on 64-bit
//! Linux), allocations and queue contention are always exported.
//! `/healthz` and the wire `Health` view fold shard liveness, the alert
//! rules and the watchdog into one verdict. `--alert-rules` loads a JSON
//! array of [`richnote_server::AlertRule`] definitions replacing the
//! built-in defaults, `--incident-dir` makes every newly-firing alert,
//! watchdog trip and failed checkpoint write a `.rnincident` bundle there,
//! the one post-mortem file, with every shard's flight-recorder trees, a
//! dead one's included (read with `richnote-incident print`), and
//! `--stall-secs` sets the per-shard watchdog's stall budget before a
//! wedged shard flips `/healthz` to `violating`. `--faults` takes the spec grammar of
//! [`richnote_server::FaultPlan::parse`], e.g.
//! `reset=0.02,short-read=7,panic=1@3,ckfail=2,seed=9` (testing only).

use richnote_obs::rsrc::{set_alloc_counting, CountingAlloc};
use richnote_server::{
    AlertRule, CodecKind, FaultPlan, PolicyName, SampleRate, Server, ServerConfig,
    ServerConfigBuilder, WatchdogConfig,
};
use std::process::ExitCode;
use std::time::Instant;

/// The daemon runs under the counting allocator, counting from start-up,
/// so `richnote_allocs_total` and `richnote_alloc_bytes_total` are real
/// in production.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn usage() -> ! {
    eprintln!(
        "usage: richnote-server [--addr HOST:PORT] [--shards N] \
         [--queue-capacity N] [--round-secs S] [--data-grant BYTES] \
         [--checkpoint-dir DIR] [--checkpoint-every ROUNDS] \
         [--metrics-addr HOST:PORT] [--trace-capacity SPANS] \
         [--trace-sample 1/N] [--record PATH] [--codec json|binary] \
         [--policy richnote|fifo|util|adaptive] \
         [--alert-rules PATH] [--incident-dir DIR] [--stall-secs S] \
         [--faults SPEC]"
    );
    std::process::exit(2)
}

fn parse_args() -> ServerConfigBuilder {
    let mut builder = ServerConfig::builder().addr("127.0.0.1:7464");
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
            "--record" => builder.record(value("--record")),
            "--codec" => builder.codec(parse::<CodecKind>(&value("--codec"), "--codec")),
            "--policy" => builder.policy(parse::<PolicyName>(&value("--policy"), "--policy")),
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
    builder.watchdog(watchdog)
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
    set_alloc_counting(true);
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
