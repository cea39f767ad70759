//! A blocking client for the daemon's wire protocol, with reconnection,
//! jittered-exponential-backoff retry, and idempotent republish.
//!
//! # Delivery guarantee
//!
//! Every [`Client::publish`] is buffered in a pending window until the
//! server's cumulative [`crate::wire::Response::PubAck`] covers its
//! sequence number. If the connection drops, the client reconnects (same
//! session id), learns the server's `resume_seq`, discards pending entries
//! the server already applied, and republishes the rest — the server's
//! per-session watermark makes the replay idempotent. The result: **an
//! acked publication is never lost and never double-routed** across any
//! number of connection drops. Call [`Client::sync`] to force the window
//! empty (a durability barrier).
//!
//! Request/response calls ([`Client::tick`] and friends) retry with
//! at-least-once semantics: a tick whose *response* was lost to a
//! connection drop may have run on the server, and the retry will run it
//! again. Single-ticker deployments that need exactly-once pacing should
//! compare the returned round counter against their own.

use crate::codec::{codec_for, CodecKind, FrameCodec};
use crate::error::{ServerError, ServerResult};
use crate::fault::FaultRng;
use crate::wire::{
    read_frame, write_frame, AlertsReply, Delivery, HealthReport, Observed, Request, Response,
    StatsReply, View, PROTO_VERSION,
};
use richnote_core::{ContentItem, UserId};
use richnote_obs::{FlightDump, HistoryQuery, QueryResult, SpanRecord};
use richnote_pubsub::Topic;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How many publishes may be in flight (unacked) before
/// [`Client::publish`] blocks to settle half the window.
const PUBLISH_WINDOW: usize = 1024;

/// Retry tuning for transient failures (connection resets, closed
/// sockets). Deterministic: jitter comes from a seeded [`FaultRng`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` starts at `base_delay_ms << n`.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Jitter seed; same seed, same delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 2_000, seed: 0 }
    }
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (0-based), in
    /// milliseconds: `min(max, base · 2^attempt)` scaled by a jitter
    /// factor drawn uniformly from `[0.5, 1.0]`.
    pub fn delay_ms(&self, attempt: u32, rng: &mut FaultRng) -> u64 {
        let exp = self.base_delay_ms.saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(self.max_delay_ms);
        let jitter = 0.5 + 0.5 * rng.next_f64();
        (capped as f64 * jitter) as u64
    }
}

/// A publication not yet covered by a cumulative ack.
struct Pending {
    seq: u64,
    topic: Topic,
    item: ContentItem,
    /// Causal trace id riding with the publication (survives replay).
    trace: Option<u64>,
}

/// One live TCP connection (post-handshake).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Kept solely so chaos tests can slam the socket shut.
    stream: TcpStream,
    /// The frame codec negotiated in this connection's handshake. The
    /// handshake itself always speaks JSON framing; everything after
    /// goes through this object (and its reused scratch buffer).
    codec: Box<dyn FrameCodec>,
}

/// See the module docs.
pub struct Client {
    addr: String,
    policy: Option<RetryPolicy>,
    session: u64,
    /// Richest codec offered in every handshake; the server may
    /// negotiate down (see [`crate::codec::negotiate`]).
    codec_pref: CodecKind,
    conn: Option<Conn>,
    pending: VecDeque<Pending>,
    next_seq: u64,
    shards: usize,
    retries: u64,
    reconnects: u64,
    connected_once: bool,
    rng: FaultRng,
}

/// Configures and connects a [`Client`]. Obtained from
/// [`Client::builder`]; every knob has a production default, so the
/// shortest path is `Client::builder(addr).connect()?`.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    policy: Option<RetryPolicy>,
    session: Option<u64>,
    codec: CodecKind,
}

impl ClientBuilder {
    /// Sets the retry policy for transient failures (default:
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Disables retry entirely: every transient failure surfaces
    /// immediately. What tests and replay use — a retry there would
    /// mask the fault being exercised.
    #[must_use]
    pub fn no_retry(mut self) -> Self {
        self.policy = None;
        self
    }

    /// Pins the session id used for idempotent republish (default: a
    /// fresh auto-generated id). `0` opts out of publish deduplication.
    #[must_use]
    pub fn session(mut self, session: u64) -> Self {
        self.session = Some(session);
        self
    }

    /// Sets the richest frame codec to offer in the handshake (default:
    /// [`CodecKind::Binary`]). The server may negotiate down to JSON;
    /// [`Client::codec`] reports what was actually agreed.
    #[must_use]
    pub fn codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Connects, handshakes (negotiating the frame codec), and returns
    /// the client.
    ///
    /// # Errors
    ///
    /// Returns connection and handshake failures, after exhausting
    /// retries for transient ones when a retry policy is set.
    pub fn connect(self) -> ServerResult<Client> {
        let seed = self.policy.as_ref().map_or(0, |p| p.seed);
        let mut client = Client {
            addr: self.addr,
            policy: self.policy,
            session: self.session.unwrap_or_else(auto_session),
            codec_pref: self.codec,
            conn: None,
            pending: VecDeque::new(),
            next_seq: 0,
            shards: 0,
            retries: 0,
            reconnects: 0,
            connected_once: false,
            rng: FaultRng::new(seed),
        };
        client.with_retry(|c| c.ensure_conn())?;
        Ok(client)
    }
}

/// Derives a nonzero session id that is distinct across processes and
/// across clients within a process.
fn auto_session() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mix = nanos
        ^ (u64::from(std::process::id()) << 32)
        ^ COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // FaultRng whitens and `| 1` maps away from the "no dedup" sentinel 0.
    FaultRng::new(mix).next_u64() | 1
}

impl Client {
    /// Starts building a client for `addr`. The supported constructor:
    /// `Client::builder(addr).connect()?` for the defaults, with
    /// [`ClientBuilder::retry`], [`ClientBuilder::session`], and
    /// [`ClientBuilder::codec`] for the knobs.
    pub fn builder<A: ToSocketAddrs + ToString>(addr: A) -> ClientBuilder {
        ClientBuilder {
            addr: addr.to_string(),
            policy: Some(RetryPolicy::default()),
            session: None,
            codec: CodecKind::Binary,
        }
    }

    /// The session id used for idempotent republish.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The frame codec negotiated on the current connection, or `None`
    /// when disconnected. May be lower than what the builder asked for —
    /// the server has the final word (see [`crate::codec::negotiate`]).
    pub fn codec(&self) -> Option<CodecKind> {
        self.conn.as_ref().map(|c| c.codec.kind())
    }

    /// Shard count reported by the server's handshake.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Transient-failure retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful reconnections after the initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Publications buffered but not yet covered by an ack.
    pub fn unacked(&self) -> usize {
        self.pending.len()
    }

    /// Chaos hook: slams the current socket shut, as if the link died.
    /// The next operation reconnects and republishes pending entries.
    pub fn inject_connection_reset(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// Opens the connection if needed: TCP connect, `Hello` handshake,
    /// trim pending to the server's `resume_seq`, republish the rest.
    fn ensure_conn(&mut self) -> ServerResult<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(self.addr.as_str())?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            // Placeholder until the handshake negotiates: the handshake
            // itself always runs over the JSON framing.
            codec: codec_for(CodecKind::Json),
        };
        write_frame(
            &mut conn.writer,
            &Request::Hello {
                proto: PROTO_VERSION,
                session: self.session,
                codec: Some(self.codec_pref.wire_name().to_string()),
            },
        )?;
        let resp = match read_frame::<_, Response>(&mut conn.reader)? {
            None => return Err(ServerError::ConnectionClosed),
            Some(r) => r,
        };
        match resp {
            Response::Hello { shards, resume_seq, codec, .. } => {
                // An absent codec means JSON. An unknown name means the
                // server negotiated something this build cannot speak —
                // bail rather than guess at the framing of the next frame.
                let negotiated = match codec.as_deref() {
                    None => CodecKind::Json,
                    Some(name) => CodecKind::from_wire_name(name).ok_or_else(|| {
                        ServerError::Frame(format!("server negotiated unknown codec {name:?}"))
                    })?,
                };
                conn.codec = codec_for(negotiated);
                self.shards = shards;
                Self::trim_acked(&mut self.pending, resume_seq);
                // Republish rides the *negotiated* codec: these are
                // post-handshake frames.
                for p in &self.pending {
                    conn.codec.write_request(
                        &mut conn.writer,
                        &Request::Publish {
                            seq: p.seq,
                            topic: p.topic,
                            item: p.item.clone(),
                            trace: p.trace,
                        },
                    )?;
                }
                conn.writer.flush()?;
                if self.connected_once {
                    self.reconnects += 1;
                }
                self.connected_once = true;
                self.conn = Some(conn);
                Ok(())
            }
            Response::Error { code, message } => Err(ServerError::Rejected { code, message }),
            other => Err(ServerError::UnexpectedResponse {
                expected: "Hello",
                got: format!("{other:?}"),
            }),
        }
    }

    /// Runs `op` with reconnect + backoff on transient failures, per the
    /// client's [`RetryPolicy`].
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> ServerResult<T>,
    ) -> ServerResult<T> {
        let max_attempts = self.policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => {
                    self.drop_conn();
                    if attempt + 1 >= max_attempts {
                        return if max_attempts > 1 {
                            Err(ServerError::RetriesExhausted {
                                attempts: attempt + 1,
                                last: Box::new(e),
                            })
                        } else {
                            Err(e)
                        };
                    }
                    self.retries += 1;
                    let policy = self.policy.clone().expect("retrying implies a policy");
                    let delay = policy.delay_ms(attempt, &mut self.rng);
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn trim_acked(pending: &mut VecDeque<Pending>, seq: u64) {
        while pending.front().is_some_and(|p| p.seq <= seq) {
            pending.pop_front();
        }
    }

    /// Sends one request frame and reads frames until a non-ack response
    /// arrives, folding interleaved `PubAck`s into the pending window.
    fn exchange(&mut self, req: &Request) -> ServerResult<Response> {
        // A fresh ensure_conn already republished the window; an existing
        // connection has everything written (possibly unflushed), and
        // write_frame below flushes the lot in order.
        self.ensure_conn()?;
        let mut conn = self.conn.take().expect("ensure_conn succeeded");
        let pending = &mut self.pending;
        let result = (|| {
            conn.codec.write_request(&mut conn.writer, req)?;
            conn.writer.flush()?;
            loop {
                match conn.codec.read_response(&mut conn.reader)? {
                    None => return Err(ServerError::ConnectionClosed),
                    Some(Response::PubAck { seq }) => Self::trim_acked(pending, seq),
                    Some(Response::Error { code, message }) => {
                        return Err(ServerError::Rejected { code, message })
                    }
                    Some(resp) => return Ok(resp),
                }
            }
        })();
        if result.is_ok() {
            self.conn = Some(conn);
        }
        result
    }

    /// Publishes `item` on `topic`, returning its sequence number. The
    /// publication is durable once a cumulative ack covers the sequence
    /// (see [`Client::sync`]); until then it rides the pending window and
    /// survives reconnects.
    ///
    /// # Errors
    ///
    /// Returns non-transient failures (e.g. the server is draining) from
    /// window settling; transient ones are absorbed by the window and
    /// resolved on the next reconnect.
    pub fn publish(&mut self, topic: Topic, item: ContentItem) -> ServerResult<u64> {
        self.publish_traced(topic, item, None)
    }

    /// [`Client::publish`] carrying a causal trace id minted by the
    /// caller (see [`richnote_obs::derive_trace_id`]). The id rides the
    /// pending window, so reconnect replay re-sends it unchanged and the
    /// server sees the same trace exactly once (dedup by sequence).
    ///
    /// # Errors
    ///
    /// As for [`Client::publish`].
    pub fn publish_traced(
        &mut self,
        topic: Topic,
        item: ContentItem,
        trace: Option<u64>,
    ) -> ServerResult<u64> {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.pending.push_back(Pending { seq, topic, item, trace });
        // The frame must be written (or queued for reconnect replay)
        // BEFORE any settling: the server acks cumulatively, so a pending
        // entry that was never transmitted would be trimmed by an ack for
        // a later sequence number — a silent loss. The opportunistic write
        // is unflushed; a failure just defers the frame to the replay.
        if self.conn.is_some() {
            let p = self.pending.back().expect("just pushed");
            let frame = Request::Publish {
                seq: p.seq,
                topic: p.topic,
                item: p.item.clone(),
                trace: p.trace,
            };
            let conn = self.conn.as_mut().expect("checked above");
            if conn.codec.write_request(&mut conn.writer, &frame).is_err() {
                self.drop_conn();
            }
        } else {
            // Reconnect replays the window, including this publication.
            let _ = self.ensure_conn();
        }
        if self.pending.len() >= PUBLISH_WINDOW {
            self.settle(PUBLISH_WINDOW / 2)?;
        }
        Ok(seq)
    }

    /// Blocks until at most `target` publications remain unacked.
    fn settle(&mut self, target: usize) -> ServerResult<()> {
        self.with_retry(|c| {
            if c.pending.len() <= target {
                return Ok(());
            }
            c.ensure_conn()?;
            let mut conn = c.conn.take().expect("ensure_conn succeeded");
            let pending = &mut c.pending;
            let result = (|| {
                conn.writer.flush()?;
                while pending.len() > target {
                    match conn.codec.read_response(&mut conn.reader)? {
                        None => return Err(ServerError::ConnectionClosed),
                        Some(Response::PubAck { seq }) => Self::trim_acked(pending, seq),
                        Some(Response::Error { code, message }) => {
                            return Err(ServerError::Rejected { code, message })
                        }
                        Some(other) => {
                            return Err(ServerError::UnexpectedResponse {
                                expected: "PubAck",
                                got: format!("{other:?}"),
                            })
                        }
                    }
                }
                Ok(())
            })();
            if result.is_ok() {
                c.conn = Some(conn);
            }
            result
        })
    }

    /// Durability barrier: flushes and blocks until every publication so
    /// far is acked.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::RetriesExhausted`] when reconnection keeps
    /// failing, or a non-transient rejection (e.g. draining).
    pub fn sync(&mut self) -> ServerResult<()> {
        self.settle(0)
    }

    /// Subscribes `user` to `topic`.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures.
    pub fn subscribe(&mut self, user: UserId, topic: Topic) -> ServerResult<()> {
        let req = Request::Subscribe { user, topic };
        match self.with_retry(|c| c.exchange(&req))? {
            Response::Subscribed => Ok(()),
            other => Err(unexpected("Subscribed", &other)),
        }
    }

    /// Advances every shard by `rounds` rounds; returns `(total rounds
    /// completed, items selected)`. At-least-once under retry — see the
    /// module docs.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures.
    pub fn tick(&mut self, rounds: u32) -> ServerResult<(u64, u64)> {
        let req = Request::Tick { rounds };
        match self.with_retry(|c| c.exchange(&req))? {
            Response::Ticked { rounds, selected } => Ok((rounds, selected)),
            other => Err(unexpected("Ticked", &other)),
        }
    }

    /// Like [`Client::tick`], but also returns the full per-delivery log
    /// of the ticked rounds.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures.
    pub fn tick_report(&mut self, rounds: u32) -> ServerResult<(u64, Vec<Delivery>)> {
        let req = Request::TickReport { rounds };
        match self.with_retry(|c| c.exchange(&req))? {
            Response::TickReport { rounds, deliveries } => Ok((rounds, deliveries)),
            other => Err(unexpected("TickReport", &other)),
        }
    }

    /// Reads one [`View`] of the daemon's state — the protocol's single
    /// read path; the typed accessors below all go through it.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures.
    pub fn observe(&mut self, view: View) -> ServerResult<Observed> {
        let req = Request::Observe(view);
        match self.with_retry(|c| c.exchange(&req))? {
            Response::Observed(observed) => Ok(observed),
            other => Err(unexpected("Observed", &other)),
        }
    }

    /// Fetches the merged registry snapshot (server-side stage timers
    /// plus every shard's counters, gauges, and histograms) along with the
    /// server's uptime and build identity.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn stats(&mut self) -> ServerResult<StatsReply> {
        match self.observe(View::Stats)? {
            Observed::Stats(reply) => Ok(reply),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetches the server's SLO health verdict: overall status, per-SLO
    /// burn rates and error budgets, and shard liveness.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn health(&mut self) -> ServerResult<HealthReport> {
        match self.observe(View::Health)? {
            Observed::Health(report) => Ok(report),
            other => Err(unexpected("Health", &other)),
        }
    }

    /// Drains the server's trace rings, returning the buffered spans plus
    /// how many were evicted since the previous dump. Empty when the
    /// server runs with `trace_capacity = 0`.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn trace_dump(&mut self) -> ServerResult<(Vec<SpanRecord>, u64)> {
        // The server budgets every reply to fit one wire frame
        // (`TRACE_DUMP_EVENT_BUDGET`), so rings larger than a frame
        // arrive as several partial dumps; keep draining until a batch
        // comes back empty. The iteration cap bounds the loop when a
        // busy server refills its rings as fast as we drain them.
        let mut spans = Vec::new();
        let mut dropped = 0;
        for _ in 0..1024 {
            match self.observe(View::Trace)? {
                Observed::Trace { spans: batch, dropped: d } => {
                    dropped += d;
                    if batch.is_empty() {
                        break;
                    }
                    spans.extend(batch);
                }
                other => return Err(unexpected("Trace", &other)),
            }
        }
        Ok((spans, dropped))
    }

    /// Runs a windowed analytics query against the server's embedded
    /// metrics history: deltas, rates, and histogram quantiles for one
    /// counter family over the trailing window. The server answers from
    /// snapshots it sampled at tick boundaries, so the very first call
    /// already sees real rates — no client-side scrape diffing needed.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn query(&mut self, q: HistoryQuery) -> ServerResult<QueryResult> {
        match self.observe(View::Query(q))? {
            Observed::Query(result) => Ok(result),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Fetches the alerting plane's current view: every rule's state and
    /// last measured value, the recent transition timeline, watchdog
    /// verdicts, and the path of the most recent incident bundle.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn alerts(&mut self) -> ServerResult<AlertsReply> {
        match self.observe(View::Alerts)? {
            Observed::Alerts(reply) => Ok(reply),
            other => Err(unexpected("Alerts", &other)),
        }
    }

    /// Fetches every live shard's flight-recorder contents (bounded rings
    /// of finished span trees), ordered by shard index. Non-destructive:
    /// the recorders keep their trees. Empty when the server runs with
    /// `trace_capacity = 0`.
    ///
    /// # Errors
    ///
    /// As for [`Client::observe`].
    pub fn flight_dump(&mut self) -> ServerResult<Vec<FlightDump>> {
        match self.observe(View::Flight)? {
            Observed::Flight { dumps } => Ok(dumps),
            other => Err(unexpected("Flight", &other)),
        }
    }

    /// Forces a coordinated checkpoint; returns `(users, round)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Rejected`] with
    /// [`crate::wire::ErrorCode::CheckpointFailed`] when the server cannot
    /// write one.
    pub fn checkpoint(&mut self) -> ServerResult<(u64, u64)> {
        match self.with_retry(|c| c.exchange(&Request::Checkpoint))? {
            Response::Checkpointed { users, round } => Ok((users, round)),
            other => Err(unexpected("Checkpointed", &other)),
        }
    }

    /// Gracefully drains the daemon: ingest stops, queues flush through a
    /// final round, state is checkpointed, and the daemon exits. Returns
    /// `(rounds, users, checkpointed)`.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures; not retried (a second
    /// drain after a lost response would double-run the final round).
    pub fn drain(&mut self) -> ServerResult<(u64, u64, bool)> {
        match self.exchange(&Request::Drain)? {
            Response::Drained { rounds, users, checkpointed } => Ok((rounds, users, checkpointed)),
            other => Err(unexpected("Drained", &other)),
        }
    }

    /// Stops the daemon immediately, *without* a checkpoint (crash
    /// semantics). Not retried.
    ///
    /// # Errors
    ///
    /// Returns protocol or transport failures.
    pub fn shutdown(&mut self) -> ServerResult<()> {
        match self.exchange(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(expected: &'static str, got: &impl std::fmt::Debug) -> ServerError {
    ServerError::UnexpectedResponse { expected, got: format!("{got:?}") }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 500, seed: 3 };
        let run = || -> Vec<u64> {
            let mut rng = FaultRng::new(policy.seed);
            (0..8).map(|a| policy.delay_ms(a, &mut rng)).collect()
        };
        let delays = run();
        assert_eq!(delays, run(), "same seed, same schedule");
        for (attempt, &d) in delays.iter().enumerate() {
            let ceiling = (10u64 << attempt).min(500);
            assert!(d <= ceiling, "attempt {attempt}: {d} > {ceiling}");
            assert!(d >= ceiling / 2, "attempt {attempt}: {d} < {}", ceiling / 2);
        }
    }

    #[test]
    fn auto_sessions_are_nonzero_and_distinct() {
        let a = auto_session();
        let b = auto_session();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}
