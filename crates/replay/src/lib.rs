//! Record/replay for the RichNote daemon.
//!
//! The daemon's selection loop is deterministic by construction: rounds
//! advance only on explicit `Tick` frames, and span trees carry only
//! logical fields. This crate closes the loop — a capture recorded with
//! the daemon's `--record` flag (see `richnote_server::record`) can be
//! fed into a *fresh* daemon over real sockets, and the observable
//! outcome (span trees + deterministic counters, see [`canon`]) must
//! come out bit-identical. Committed golden snapshots turn that into a
//! regression gate: any change that silently alters a selection
//! decision, level choice, or budget charge shows up as a readable diff
//! ([`diff`]) instead of a perf-report anomaly three PRs later.
//!
//! # Pipeline
//!
//! ```text
//!  capture file ──▶ replay_spawned ──▶ fresh daemon (real TCP)
//!   (*.rncap)         │  per-session clients, global-order feed,
//!                     │  --speed N / as-fast-as-possible pacing
//!                     ▼
//!              Trace + Stats drain ──▶ CanonicalSnapshot ──▶ diff vs golden
//! ```
//!
//! Only state-bearing frames are replayed (`Subscribe`, `Publish`,
//! `Tick`, `TickReport`); observer and control frames in the capture are
//! skipped and counted — replaying a destructive `Trace` read would eat
//! the very spans the canonical snapshot needs.

pub mod canon;
pub mod diff;

use canon::CanonicalSnapshot;
use richnote_server::wire::Request;
use richnote_server::{
    CaptureError, CaptureReader, CaptureRecord, Client, CodecKind, Server, ServerConfig,
    ServerError, ServerResult,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Pacing for a replay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Time-compression factor: a frame captured at `t` is fed at `t /
    /// speed`. `10.0` replays a ten-minute capture in one minute.
    pub speed: f64,
    /// Ignore capture timestamps entirely and feed frames back-to-back
    /// (perf runs and CI gates).
    pub as_fast_as_possible: bool,
    /// Frame codec the replay clients offer in their handshakes. The
    /// capture itself is codec-independent (it stores decoded requests in
    /// canonical form), so any choice replays any capture; binary is the
    /// default because it is the fastest way to feed the daemon.
    pub codec: CodecKind,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { speed: 1.0, as_fast_as_possible: false, codec: CodecKind::Binary }
    }
}

/// What a replay run did and what it observed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// State-bearing frames fed to the daemon.
    pub fed: u64,
    /// Observer/control frames in the capture that were skipped.
    pub skipped: u64,
    /// Distinct sessions replayed (one client connection each).
    pub sessions: usize,
    /// Wall-clock feed time, excluding the drain.
    pub elapsed_secs: f64,
    /// The canonical projection of the daemon's state after the feed.
    pub snapshot: CanonicalSnapshot,
}

/// Replays `records` into a daemon already listening on `addr`,
/// preserving global frame order (which subsumes per-session order) and
/// the capture's relative timing per `opts`. After the feed it drains
/// span trees and metrics through a control connection and returns the
/// canonical snapshot. `capture` names the source file in errors.
///
/// # Errors
///
/// Fails on connection or protocol errors, and with
/// [`CaptureError::Record`] (naming the frame index) when a record's
/// state-bearing frame does not parse as a request.
pub fn replay_into(
    addr: SocketAddr,
    capture: &str,
    records: &[CaptureRecord],
    opts: ReplayOptions,
) -> ServerResult<ReplayOutcome> {
    let speed = if opts.speed.is_finite() && opts.speed > 0.0 { opts.speed } else { 1.0 };
    let mut clients: BTreeMap<u64, Client> = BTreeMap::new();
    let mut fed = 0u64;
    let mut skipped = 0u64;
    let mut last_session: Option<u64> = None;
    let started = Instant::now();

    for record in records {
        // Publishes are pipelined (acked cumulatively), so frames sent
        // on the previous session's connection may still be in flight
        // server-side when the feed switches connections — and the
        // capture's global order *is* the server-side processing order
        // being reproduced. Draining the previous session at every
        // switch serializes processing into exact capture order; within
        // one session, TCP ordering already guarantees it.
        if let Some(prev) = last_session {
            if prev != record.session {
                if let Some(client) = clients.get_mut(&prev) {
                    client.sync()?;
                }
            }
        }
        last_session = Some(record.session);
        let req: Request = match serde_json::from_str(&record.frame) {
            Ok(req) => req,
            // A capture outlives the protocol version that wrote it: what
            // must still parse are the state-bearing kinds, whose shape
            // no version changed. Any other frame a daemon once recorded
            // (protocol v2 had a request per read-only view) was an
            // observer then and is skipped now.
            Err(_) if !is_state_bearing(&record.frame) => {
                skipped += 1;
                continue;
            }
            Err(e) => {
                return Err(ServerError::from(CaptureError::Record {
                    path: capture.to_string(),
                    index: record.index,
                    detail: format!("frame is not a request: {e}"),
                }))
            }
        };
        if !opts.as_fast_as_possible {
            let target = Duration::from_micros((record.ts_us as f64 / speed) as u64);
            let elapsed = started.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
        }
        // One connection per recorded session, created on first use, so
        // the daemon sees the same session ids (and mints the same
        // per-session publish sequence numbers) as during capture.
        let client = match clients.entry(record.session) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(
                Client::builder(addr)
                    .no_retry()
                    .session(record.session)
                    .codec(opts.codec)
                    .connect()?,
            ),
        };
        match req {
            Request::Subscribe { user, topic } => {
                client.subscribe(user, topic)?;
                fed += 1;
            }
            Request::Publish { topic, item, trace, .. } => {
                // `seq` is re-minted by the client (1, 2, 3, … per
                // session) and matches the capture because the feed
                // preserves per-session order.
                client.publish_traced(topic, item, trace)?;
                fed += 1;
            }
            Request::Tick { rounds } => {
                client.tick(rounds)?;
                fed += 1;
            }
            Request::TickReport { rounds } => {
                client.tick_report(rounds)?;
                fed += 1;
            }
            // Observer and control frames: replaying them would perturb
            // the daemon (the Trace view drains the rings destructively;
            // Drain/Shutdown would kill it mid-feed) without adding any
            // state the canonical snapshot compares.
            Request::Hello { .. }
            | Request::Observe(_)
            | Request::Checkpoint
            | Request::Drain
            | Request::Shutdown => skipped += 1,
        }
    }

    for client in clients.values_mut() {
        client.sync()?;
    }
    let elapsed_secs = started.elapsed().as_secs_f64();

    let mut control = Client::builder(addr).no_retry().session(0).codec(opts.codec).connect()?;
    let (spans, dropped) = control.trace_dump()?;
    if dropped > 0 {
        return Err(ServerError::from(CaptureError::Record {
            path: capture.to_string(),
            index: u64::MAX,
            detail: format!(
                "trace ring dropped {dropped} span(s) during replay; raise trace_capacity — \
                 a partial span set cannot be diffed against a golden"
            ),
        }));
    }
    let stats = control.stats()?;
    let snapshot = CanonicalSnapshot::build(&spans, &stats.snapshot);

    Ok(ReplayOutcome { fed, skipped, sessions: clients.len(), elapsed_secs, snapshot })
}

/// Whether `frame` is JSON tagged as one of the four request kinds a
/// replay feeds.
fn is_state_bearing(frame: &str) -> bool {
    serde_json::parse_value(frame).is_ok_and(|v| {
        ["Subscribe", "Publish", "Tick", "TickReport"].iter().any(|kind| v.get(kind).is_some())
    })
}

/// Strips host-coupled fields from a captured config so a replay daemon
/// can run anywhere: ephemeral listen port, no checkpointing, no flight
/// spill, no metrics listener, and — critically — no `--record`, so a
/// replay never clobbers the capture it is replaying.
pub fn sanitize_config(mut cfg: ServerConfig) -> ServerConfig {
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.checkpoint_dir = None;
    cfg.flight_dir = None;
    cfg.metrics_addr = None;
    cfg.record = None;
    cfg
}

/// Reads `capture_path`, spawns a fresh daemon from the capture's
/// embedded (sanitized) config, replays every record into it, and shuts
/// the daemon down. `mutate_cfg` runs after sanitization and before
/// spawn — tests use it to perturb a policy parameter and prove the
/// differ catches the divergence.
///
/// # Errors
///
/// Fails on capture corruption (typed [`CaptureError`] naming the frame
/// index), on spawn failure, or on any replay error from
/// [`replay_into`].
pub fn replay_spawned(
    capture_path: &str,
    opts: ReplayOptions,
    mutate_cfg: impl FnOnce(&mut ServerConfig),
) -> ServerResult<ReplayOutcome> {
    let (header, records) = CaptureReader::read_all(capture_path)?;
    let mut cfg = sanitize_config(header.config);
    mutate_cfg(&mut cfg);
    let (addr, handle) = Server::spawn(cfg)?;

    let outcome = replay_into(addr, capture_path, &records, opts);

    // Shut the daemon down whether or not the feed succeeded, so a
    // failed replay does not leak a listener thread.
    let stop = Client::builder(addr).no_retry().session(0).connect().and_then(|mut c| c.shutdown());
    let _ = handle.join();
    let outcome = outcome?;
    stop?;
    Ok(outcome)
}
