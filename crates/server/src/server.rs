//! The TCP daemon: accept loop, connection threads, shard lifecycle,
//! coordinated checkpoints, drain, and the metrics exposition listener.

use crate::checkpoint::{CheckpointStore, ServerCheckpoint, ShardCheckpoint, CKPT_FORMAT};
use crate::codec::{codec_for, negotiate, CodecKind, FrameCodec};
use crate::config::ServerConfig;
use crate::error::{ServerError, ServerResult};
use crate::fault::ShortReader;
use crate::incident::{incident_file_name, write_incident_file, IncidentBundle, IncidentMeta};
use crate::record::RecordSink;
use crate::router::{PublishOutcome, Router};
use crate::shard::{FlightRecorder, ShardMsg, ShardWorker};
use crate::wire::{
    AlertsReply, BuildInfo, ErrorCode, HealthReport, HealthStatus, Observed, Request, Response,
    StatsReply, View, PROTO_VERSION, TRACE_DUMP_EVENT_BUDGET,
};
use richnote_obs::{
    encode_text, AlertEngine, CounterHandle, FlightDump, GaugeHandle, HistogramHandle,
    HistoryQuery, Log2Histogram, MetricsHistory, QueryResult, Registry, RegistrySnapshot, Ring,
    ShardProbe, SpanRecord, Watchdog, WatchdogVerdict, DEFAULT_HISTORY_CAPACITY,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// A bound, not-yet-running daemon. Call [`Server::run`] to serve.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    metrics_listener: Option<TcpListener>,
    metrics_addr: Option<SocketAddr>,
    workers: Vec<ShardWorker>,
    ctx: Arc<ConnCtx>,
    restored: Option<RestoreSummary>,
}

/// What [`Server::bind`] restored from the latest checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreSummary {
    /// Round the restored cut was consistent at.
    pub round: u64,
    /// Users whose scheduler state was restored.
    pub users: u64,
}

/// Server-side observability: the registry for everything that happens
/// *outside* the shard workers (broker matching, response serialization,
/// ack flushing, checkpoint writes, injected faults) and the span ring
/// for the connection-side stages of a trace (publish, match, ack, drop).
///
/// Shard registries are lock-free because each is owned by its worker
/// thread; connection threads share this one behind a mutex. Stage
/// timings never take that mutex on the hot path: each connection
/// accumulates samples in its own [`ConnStages`] histograms and folds
/// them in every [`STAGE_FLUSH_EVERY`] samples (taking the lock per
/// publish measurably costs throughput at six-figure publish rates).
struct ServerObs {
    registry: Mutex<Registry>,
    /// `None` when tracing is off, so there is no ring lock to take.
    ring: Option<Mutex<Ring<SpanRecord>>>,
    stage_match: HistogramHandle,
    stage_serialize: HistogramHandle,
    stage_ack: HistogramHandle,
    /// When the daemon started serving; uptime and the watchdog's clock
    /// both derive from it.
    started: Instant,
    uptime: GaugeHandle,
    /// Times [`ConnStages::flush`] found the registry lock held.
    registry_contended_count: AtomicU64,
    registry_contended: CounterHandle,
    /// Cumulative-ack frames flushed; each covers every publish since
    /// the previous one, so `pubs_total / ack_batches_total` is the
    /// effective ack batching factor under pipelining.
    ack_batches_count: AtomicU64,
    ack_batches: CounterHandle,
    /// Exported `richnote_dropped_on_drain_total`; fed from the router's
    /// count of publications refused at the door while draining.
    dropped_on_drain: CounterHandle,
    /// Exported `richnote_record_shed_total`; fed from the record sink's
    /// shed count in [`collect_stats`] (zero when recording is off).
    record_shed: CounterHandle,
    /// `richnote_checkpoint_writes_total{result}`: coordinated checkpoint
    /// writes that reached the store, by outcome.
    checkpoint_ok: CounterHandle,
    checkpoint_failed: CounterHandle,
    /// `richnote_faults_injected_total{kind="conn_reset"}`.
    fault_conn_reset: CounterHandle,
    /// Fixed-memory ring of merged registry snapshots sampled at tick
    /// boundaries; answers the `Query` view.
    history: Mutex<MetricsHistory>,
    /// The alerting plane: rule engine, shard watchdog, and incident
    /// bookkeeping. Lock ordering: never hold this while taking the
    /// registry or history locks (callers snapshot those first).
    alerts: Mutex<AlertRuntime>,
}

/// Alert-engine, watchdog, and incident-write state, behind one mutex.
///
/// The rule engine runs in virtual time (fed at tick boundaries from
/// [`record_history`]); the watchdog runs in wallclock time (a stall *is*
/// wallclock advancing while rounds do not), fed on demand from
/// [`observe_watchdog`].
struct AlertRuntime {
    engine: AlertEngine,
    watchdog: Watchdog,
    /// Shards flagged at the previous watchdog observation; an incident
    /// bundle is written only when this set gains a member, so health
    /// polling does not rewrite bundles every second.
    flagged: Vec<usize>,
    /// Most recent watchdog verdicts, kept for incident bundles.
    last_watchdog: Vec<WatchdogVerdict>,
    /// Bundles written by this process (also the file-name sequence).
    incidents_written: u64,
    /// Path of the most recently written bundle.
    last_incident: Option<String>,
}

impl ServerObs {
    fn new(cfg: &ServerConfig) -> Self {
        let mut registry = Registry::new();
        let mut stage = |st: &str| {
            registry.histogram(
                "richnote_stage_duration_us",
                "Wall-clock duration per pipeline stage",
                &[("shard", "server"), ("stage", st)],
            )
        };
        let stage_match = stage("match");
        let stage_serialize = stage("serialize");
        let stage_ack = stage("ack");
        let b = BuildInfo::current();
        let build_info = registry.gauge(
            "richnote_build_info",
            "Build identity; the value is always 1, the labels carry the facts",
            &[
                ("shard", "server"),
                ("version", b.version.as_str()),
                ("git_sha", b.git_sha.as_str()),
                ("profile", b.profile.as_str()),
            ],
        );
        registry.set_gauge(build_info, 1.0);
        let uptime = registry.gauge(
            "richnote_uptime_secs",
            "Seconds since the daemon started serving",
            &[("shard", "server")],
        );
        let registry_contended = registry.counter(
            "richnote_registry_contended_total",
            "Server-registry lock acquisitions that found the lock held",
            &[("shard", "server")],
        );
        let record_shed = registry.counter(
            "richnote_record_shed_total",
            "Inbound frames not captured because the record channel was full \
             or the capture writer failed",
            &[("shard", "server")],
        );
        let ack_batches = registry.counter(
            "richnote_ack_batches_total",
            "Cumulative PubAck frames flushed; each acknowledges every \
             publish pipelined since the previous one",
            &[("shard", "server")],
        );
        let dropped_on_drain = registry.counter(
            "richnote_dropped_on_drain_total",
            "Publications refused at the door because the daemon was draining",
            &[("shard", "server")],
        );
        let mut checkpoint_writes = |result: &str| {
            registry.counter(
                "richnote_checkpoint_writes_total",
                "Coordinated checkpoint writes, by outcome",
                &[("shard", "server"), ("result", result)],
            )
        };
        let checkpoint_ok = checkpoint_writes("ok");
        let checkpoint_failed = checkpoint_writes("failed");
        let fault_conn_reset = registry.counter(
            "richnote_faults_injected_total",
            "Injected faults that fired, by kind",
            &[("shard", "server"), ("kind", "conn_reset")],
        );
        let mut history = MetricsHistory::new(DEFAULT_HISTORY_CAPACITY);
        // Seed a t=0 baseline so the very first tick already yields a
        // window with a delta (consumers like richnote-top get real rates
        // on their first query, not an empty series).
        history.record(0.0, registry.snapshot());
        ServerObs {
            registry: Mutex::new(registry),
            ring: (cfg.trace_capacity > 0).then(|| Mutex::new(Ring::new(cfg.trace_capacity))),
            stage_match,
            stage_serialize,
            stage_ack,
            started: Instant::now(),
            uptime,
            registry_contended_count: AtomicU64::new(0),
            registry_contended,
            ack_batches_count: AtomicU64::new(0),
            ack_batches,
            dropped_on_drain,
            record_shed,
            checkpoint_ok,
            checkpoint_failed,
            fault_conn_reset,
            history: Mutex::new(history),
            alerts: Mutex::new(AlertRuntime {
                engine: AlertEngine::new(cfg.alerts.rules.clone()),
                watchdog: Watchdog::new(cfg.shards, cfg.alerts.watchdog),
                flagged: Vec::new(),
                last_watchdog: Vec::new(),
                incidents_written: 0,
                last_incident: None,
            }),
        }
    }

    /// Pushes a connection-side span (no-op when tracing is disabled).
    fn span(&self, span: SpanRecord) {
        if let Some(ring) = &self.ring {
            ring.lock().unwrap().push(span);
        }
    }

    /// Locks the shared registry, counting acquisitions that had to wait
    /// (the server-side twin of the shard queues' contention counter).
    fn lock_registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        match self.registry.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.registry_contended_count.fetch_add(1, Ordering::Relaxed);
                self.registry.lock().unwrap()
            }
            Err(TryLockError::Poisoned(_)) => self.registry.lock().unwrap(), // propagate the panic
        }
    }

    /// Whole seconds since the daemon started serving.
    fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// How many stage samples a connection buffers before folding them into
/// the shared registry. At ~100k publishes/sec this keeps registry-lock
/// traffic under ~100 acquisitions/sec while the exposition stays at
/// most a few tens of milliseconds stale.
const STAGE_FLUSH_EVERY: u32 = 1024;

/// Connection-local stage timing buffers.
///
/// Each connection thread records `match`/`serialize`/`ack` samples into
/// these plain histograms — no lock, no contention — and [`flush`]es
/// them into [`ServerObs`] every [`STAGE_FLUSH_EVERY`] samples, before
/// answering any request of its own other than a publish, and when the
/// connection closes.
///
/// [`flush`]: ConnStages::flush
#[derive(Default)]
struct ConnStages {
    match_stage: Log2Histogram,
    serialize: Log2Histogram,
    ack: Log2Histogram,
    pending: u32,
}

impl ConnStages {
    fn record(hist: &mut Log2Histogram, t0: Instant) {
        hist.record_us(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    }

    fn observe_match(&mut self, t0: Instant, obs: &ServerObs) {
        Self::record(&mut self.match_stage, t0);
        self.bump(obs);
    }

    fn observe_serialize(&mut self, t0: Instant, obs: &ServerObs) {
        Self::record(&mut self.serialize, t0);
        self.bump(obs);
    }

    fn observe_ack(&mut self, t0: Instant, obs: &ServerObs) {
        Self::record(&mut self.ack, t0);
        self.bump(obs);
    }

    fn bump(&mut self, obs: &ServerObs) {
        self.pending += 1;
        if self.pending >= STAGE_FLUSH_EVERY {
            self.flush(obs);
        }
    }

    /// Folds the buffered samples into the shared registry.
    fn flush(&mut self, obs: &ServerObs) {
        if self.pending == 0 {
            return;
        }
        let mut registry = obs.lock_registry();
        registry.merge_histogram(obs.stage_match, &self.match_stage);
        registry.merge_histogram(obs.stage_serialize, &self.serialize);
        registry.merge_histogram(obs.stage_ack, &self.ack);
        drop(registry);
        *self = ConnStages::default();
    }
}

/// State shared by every connection thread.
struct ConnCtx {
    router: Arc<Router>,
    /// Every shard's flight recorder, by shard index; a dead worker's
    /// stays readable here.
    flights: Vec<FlightRecorder>,
    stop: AtomicBool,
    store: Option<CheckpointStore>,
    cfg: ServerConfig,
    addr: SocketAddr,
    conn_counter: AtomicU64,
    /// A handle on every live connection's socket, by connection number:
    /// entered by the accept loop, removed by the handler as it returns.
    /// Shutdown closes the survivors so handlers blocked reading from an
    /// idle client wake up and [`Server::run`] can join them.
    live_conns: Mutex<HashMap<u64, TcpStream>>,
    /// Serializes coordinated checkpoint writes across connections.
    ckpt_lock: Mutex<()>,
    obs: ServerObs,
    /// Wire-capture sink, when [`ServerConfig::record`] is set. Dropped
    /// (draining and flushing the capture) when the last connection
    /// thread releases the context after [`Server::run`] returns.
    record: Option<RecordSink>,
}

impl Server {
    /// Binds the listener, restores the latest checkpoint (when a
    /// checkpoint directory is configured and holds one), and spawns the
    /// shard workers.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Config`] for an invalid config, I/O errors
    /// from binding, and [`ServerError::Checkpoint`] when the newest
    /// checkpoint is corrupt or was written under an incompatible config
    /// (different shard count, round length, or scheduling policy) —
    /// restoring across a reshard would silently re-route users and
    /// restoring across a policy change would silently reschedule them,
    /// so both fail loudly instead.
    pub fn bind(cfg: ServerConfig) -> ServerResult<Server> {
        cfg.validate()?;
        let store = match &cfg.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open(dir, cfg.faults.checkpoint_fail_every)?),
            None => None,
        };
        let checkpoint = match &store {
            Some(s) => s.load_latest()?,
            None => None,
        };
        if let Some(ck) = &checkpoint {
            if ck.shards.len() != cfg.shards {
                return Err(ServerError::Checkpoint {
                    path: cfg.checkpoint_dir.clone().unwrap_or_default(),
                    detail: format!(
                        "checkpoint has {} shards but config wants {}; resharding a \
                         checkpoint is not supported",
                        ck.shards.len(),
                        cfg.shards
                    ),
                });
            }
            if ck.round_secs != cfg.round_secs {
                return Err(ServerError::Checkpoint {
                    path: cfg.checkpoint_dir.clone().unwrap_or_default(),
                    detail: format!(
                        "checkpoint was taken with round_secs={} but config says {}; \
                         restoring would shift virtual time",
                        ck.round_secs, cfg.round_secs
                    ),
                });
            }
            // Validate the policy up front, before any shard worker
            // spawns: a mismatch discovered inside a worker thread would
            // leave a half-alive daemon instead of a clean startup error.
            let expected = cfg.policy.display_name();
            for shard_ck in &ck.shards {
                if let Some(u) =
                    shard_ck.users.iter().find(|u| u.scheduler.policy_name() != expected)
                {
                    return Err(ServerError::Checkpoint {
                        path: cfg.checkpoint_dir.clone().unwrap_or_default(),
                        detail: format!(
                            "checkpoint was written by the {} policy but this server is \
                             configured with --policy {}; restoring would silently change \
                             scheduling behaviour (first mismatching user: {})",
                            u.scheduler.policy_name(),
                            cfg.policy,
                            u.user.value()
                        ),
                    });
                }
            }
        }
        let restored =
            checkpoint.as_ref().map(|ck| RestoreSummary { round: ck.round, users: ck.users() });

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let mut shard_cks: Vec<Option<crate::checkpoint::ShardCheckpoint>> =
            (0..cfg.shards).map(|_| None).collect();
        let (sessions, subscriptions) = match checkpoint {
            Some(ServerCheckpoint { shards, sessions, subscriptions, .. }) => {
                for shard_ck in shards {
                    let idx = shard_ck.shard;
                    shard_cks[idx] = Some(shard_ck);
                }
                (sessions, subscriptions)
            }
            None => (Vec::new(), Vec::new()),
        };
        let workers: Vec<ShardWorker> = shard_cks
            .into_iter()
            .enumerate()
            .map(|(s, ck)| ShardWorker::spawn(s, cfg.clone(), ck))
            .collect();
        let queues = workers.iter().map(|w| Arc::clone(&w.queue)).collect();
        let flights = workers.iter().map(|w| Arc::clone(&w.flight)).collect();
        let router = Arc::new(Router::new(queues));
        router.restore(&sessions, &subscriptions);
        let obs = ServerObs::new(&cfg);
        // Create the capture file now, not at first frame: a daemon asked
        // to record into an unwritable path must fail at bind.
        let record = match &cfg.record {
            Some(path) => Some(RecordSink::create(path, &cfg)?),
            None => None,
        };
        Ok(Server {
            listener,
            local_addr,
            metrics_listener,
            metrics_addr,
            workers,
            ctx: Arc::new(ConnCtx {
                router,
                flights,
                stop: AtomicBool::new(false),
                store,
                cfg,
                addr: local_addr,
                conn_counter: AtomicU64::new(0),
                live_conns: Mutex::new(HashMap::new()),
                ckpt_lock: Mutex::new(()),
                obs,
                record,
            }),
            restored,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics exposition address, when
    /// [`ServerConfig::metrics_addr`] is set (useful with port 0).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// What [`Server::bind`] restored, if anything.
    pub fn restored(&self) -> Option<RestoreSummary> {
        self.restored
    }

    /// Serves connections until a client sends [`Request::Shutdown`] or
    /// [`Request::Drain`], then closes the connections still open, joins
    /// every connection thread and shard worker, and returns.
    ///
    /// # Errors
    ///
    /// Returns an error only if the accept loop itself fails; per-
    /// connection errors close that connection and are otherwise ignored.
    pub fn run(self) -> ServerResult<()> {
        let metrics_thread = self.metrics_listener.map(|listener| {
            let ctx = Arc::clone(&self.ctx);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if ctx.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Scrapes are rare and cheap; serve inline.
                    if let Ok(stream) = stream {
                        let _ = serve_scrape(stream, &ctx);
                    }
                }
            })
        });
        let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.ctx.stop.load(Ordering::SeqCst) {
                break;
            }
            // Reap handlers whose clients have gone, so the list holds
            // live connections rather than every connection ever made.
            let (done, live) = conn_threads.into_iter().partition(|t| t.is_finished());
            conn_threads = live;
            for t in done {
                let _ = t.join();
            }
            let Ok(stream) = stream else { continue };
            let Ok(handle) = stream.try_clone() else { continue };
            let conn = self.ctx.conn_counter.fetch_add(1, Ordering::Relaxed);
            self.ctx.live_conns.lock().unwrap().insert(conn, handle);
            let ctx = Arc::clone(&self.ctx);
            conn_threads.push(std::thread::spawn(move || {
                let _ = handle_connection(stream, conn, &ctx);
                ctx.live_conns.lock().unwrap().remove(&conn);
            }));
        }
        // Stopping: a handler whose client is idle sits in a blocking
        // read and would never see the flag; closing its socket ends the
        // read. Every handler was entered in the map before it started.
        for stream in self.ctx.live_conns.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(t) = metrics_thread {
            // The stop flag is set; poke the blocked accept so the metrics
            // thread observes it.
            if let Some(addr) = self.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = t.join();
        }
        for t in conn_threads {
            let _ = t.join();
        }
        for w in self.workers {
            w.join();
        }
        Ok(())
    }

    /// Convenience for tests: runs the server on a background thread and
    /// returns its address plus the join handle.
    pub fn spawn(cfg: ServerConfig) -> ServerResult<(SocketAddr, std::thread::JoinHandle<()>)> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok((addr, handle))
    }
}

/// Broadcasts a message builder to every shard and collects the replies.
/// A dead shard contributes no reply (its queue is closed and drained, so
/// the sender is dropped and `recv` fails fast instead of blocking).
fn broadcast<T, F: Fn(mpsc::Sender<T>) -> ShardMsg>(router: &Router, make: F) -> Vec<T> {
    // One channel per shard keeps replies ordered by shard index.
    let receivers: Vec<mpsc::Receiver<T>> = (0..router.shards())
        .map(|s| {
            let (tx, rx) = mpsc::channel();
            router.queue(s).push(make(tx));
            rx
        })
        .collect();
    receivers.into_iter().filter_map(|rx| rx.recv().ok()).collect()
}

/// Merges the server-side registry snapshot with one from every live
/// shard, returning the merge plus how many shards replied. Permissive
/// about dead shards: their series are simply absent from the merge (and
/// the health verdict counts them missing).
fn collect_stats(ctx: &ConnCtx) -> (RegistrySnapshot, usize) {
    // Copied, and the alert lock released, before the registry is locked.
    let alerts = ctx.obs.alerts.lock().unwrap().engine.snapshot();
    {
        let mut reg = ctx.obs.lock_registry();
        for a in &alerts {
            let h = reg.gauge(
                "richnote_alert_state",
                "Alert-rule state (0 inactive, 1 pending, 2 firing, 3 resolved)",
                &[("rule", a.rule.as_str())],
            );
            reg.set_gauge(h, a.state.gauge_value());
        }
        reg.set_gauge(ctx.obs.uptime, ctx.obs.started.elapsed().as_secs_f64());
        reg.set_counter(
            ctx.obs.registry_contended,
            ctx.obs.registry_contended_count.load(Ordering::Relaxed),
        );
        reg.set_counter(ctx.obs.ack_batches, ctx.obs.ack_batches_count.load(Ordering::Relaxed));
        reg.set_counter(ctx.obs.dropped_on_drain, ctx.router.dropped_on_drain());
        reg.set_counter(ctx.obs.record_shed, ctx.record.as_ref().map_or(0, RecordSink::shed_count));
    }
    let shard_snaps = broadcast(&ctx.router, |reply| ShardMsg::Stats { reply });
    let alive = shard_snaps.len();
    let mut snap = ctx.obs.lock_registry().snapshot();
    for shard_snap in shard_snaps {
        snap.merge(&shard_snap);
    }
    (snap, alive)
}

/// [`collect_stats`] without the liveness count, for callers that only
/// want the numbers.
fn merged_stats(ctx: &ConnCtx) -> RegistrySnapshot {
    collect_stats(ctx).0
}

/// Samples the merged registry into the analytics history at a tick
/// boundary. The sample clock is virtual time (rounds completed × round
/// length), so the same capture replayed as fast as possible records the
/// same history a live run would.
fn record_history(ctx: &ConnCtx, rounds_done: u64) {
    let snap = merged_stats(ctx);
    let now_secs = rounds_done as f64 * ctx.cfg.round_secs;
    let newly_firing: Vec<richnote_obs::AlertEvent> = {
        let mut h = ctx.obs.history.lock().unwrap();
        h.record(now_secs, snap);
        let mut rt = ctx.obs.alerts.lock().unwrap();
        rt.engine
            .evaluate(now_secs, &h, None)
            .into_iter()
            .filter(|e| e.to == richnote_obs::AlertState::Firing)
            .collect()
    };
    if let Some(first) = newly_firing.first() {
        let names: Vec<&str> = newly_firing.iter().map(|e| e.rule.as_str()).collect();
        let reason = match first.value {
            Some(v) => format!("alert(s) {} started firing (first value {v})", names.join(", ")),
            None => format!("alert(s) {} started firing", names.join(", ")),
        };
        write_incident(ctx, &format!("alert:{}", first.rule), &reason, now_secs);
    }
}

/// Answers a windowed analytics query from the embedded history.
fn run_query(ctx: &ConnCtx, q: &HistoryQuery) -> QueryResult {
    ctx.obs.history.lock().unwrap().query(q)
}

/// Builds one [`ShardProbe`] per configured shard from a merged registry
/// snapshot. A dead shard's worker contributed no series to the merge at
/// all, which is exactly the `alive = false` signal; `rounds_expected` is
/// the furthest round any live shard has reached, so a fleet with no work
/// outstanding (everyone equal) reads as caught up, not stalled.
fn shard_probes(ctx: &ConnCtx, snap: &RegistrySnapshot) -> Vec<ShardProbe> {
    let shards = ctx.router.shards();
    let per_shard_counter = |family: &str, shard: usize| -> Option<u64> {
        snap.value_where(family, "shard", &shard.to_string()).map(|v| v as u64)
    };
    let rounds: Vec<Option<u64>> =
        (0..shards).map(|i| per_shard_counter("richnote_rounds_total", i)).collect();
    let expected = rounds.iter().flatten().copied().max().unwrap_or(0);
    (0..shards)
        .map(|i| ShardProbe {
            shard: i,
            alive: rounds[i].is_some(),
            rounds_done: rounds[i].unwrap_or(0),
            rounds_expected: expected,
            // Zero where the platform has no thread CPU clock; the
            // watchdog then calls a stall "starved", the honest reading
            // of no data.
            cpu_us: per_shard_counter("richnote_cpu_us_total", i).unwrap_or(0),
        })
        .collect()
}

/// The virtual time incident bundles are stamped with: the furthest live
/// shard's completed rounds × round length, the clock `record_history`
/// samples alert bundles at.
fn virtual_secs(ctx: &ConnCtx, probes: &[ShardProbe]) -> f64 {
    probes.first().map_or(0, |p| p.rounds_expected) as f64 * ctx.cfg.round_secs
}

/// Feeds the watchdog one wallclock observation derived from `snap` and
/// returns every shard currently in trouble. When the flagged set gains a
/// member an incident bundle is written; re-observing an already-flagged
/// shard does not rewrite it, so health polling stays idempotent.
fn observe_watchdog(ctx: &ConnCtx, snap: &RegistrySnapshot) -> Vec<WatchdogVerdict> {
    let probes = shard_probes(ctx, snap);
    let now_secs = ctx.obs.started.elapsed().as_secs_f64();
    let (verdicts, newly) = {
        let mut rt = ctx.obs.alerts.lock().unwrap();
        let verdicts = rt.watchdog.observe(now_secs, &probes);
        let newly = verdicts.iter().find(|v| !rt.flagged.contains(&v.shard)).cloned();
        rt.flagged = verdicts.iter().map(|v| v.shard).collect();
        rt.last_watchdog = verdicts.clone();
        (verdicts, newly)
    };
    if let Some(v) = newly {
        let trigger = format!("watchdog:shard-{}:{}", v.shard, v.problem);
        let reason = format!(
            "shard {} {} ({}/{} rounds done, {:.1}s without progress)",
            v.shard, v.problem, v.rounds_done, v.rounds_expected, v.stalled_secs
        );
        write_incident(ctx, &trigger, &reason, virtual_secs(ctx, &probes));
    }
    verdicts
}

/// Assembles the alerting plane's current view, refreshing the watchdog
/// on the way (so a wedged shard shows up even if nobody asks for
/// `Health`).
fn alerts_reply(ctx: &ConnCtx) -> AlertsReply {
    let snap = merged_stats(ctx);
    let watchdog = observe_watchdog(ctx, &snap);
    let rt = ctx.obs.alerts.lock().unwrap();
    AlertsReply {
        alerts: rt.engine.snapshot(),
        firing: rt.engine.firing_count(),
        pending: rt.engine.pending_count(),
        timeline: rt.engine.timeline().cloned().collect(),
        events_dropped: rt.engine.events_dropped(),
        watchdog,
        last_incident: rt.last_incident.clone(),
    }
}

/// Writes a `.rnincident` forensic bundle into the configured incident
/// directory, best effort — documenting a failure must never become a
/// second failure. No-op without `alerts.incident_dir`.
fn write_incident(ctx: &ConnCtx, trigger: &str, reason: &str, at_secs: f64) {
    use serde::Serialize as _;
    let Some(dir) = ctx.cfg.alerts.incident_dir.as_deref() else { return };

    let snap = merged_stats(ctx);

    // Everything the alert lock guards is cut here, then released before
    // any I/O or history query.
    let (sequence, alerts_value, watchdog_value, queries) = {
        let mut rt = ctx.obs.alerts.lock().unwrap();
        let sequence = rt.incidents_written;
        rt.incidents_written += 1;
        let alerts_value = serde_json::Value::Object(vec![
            ("snapshot".to_string(), rt.engine.snapshot().to_value()),
            ("timeline".to_string(), rt.engine.timeline().cloned().collect::<Vec<_>>().to_value()),
            ("events_dropped".to_string(), serde_json::Value::U64(rt.engine.events_dropped())),
        ]);
        let watchdog_value = rt.last_watchdog.to_value();
        // The history windows each rule reads, so the bundle carries the
        // evidence behind every rule state, not just the verdicts.
        let mut queries: Vec<HistoryQuery> = Vec::new();
        let mut want = |family: &str, labels: &[(String, String)], window: f64| {
            if !queries.iter().any(|q| q.family == family) {
                queries.push(HistoryQuery {
                    family: family.to_string(),
                    labels: labels.to_vec(),
                    window_secs: window,
                });
            }
        };
        for rule in rt.engine.rules() {
            match &rule.kind {
                richnote_obs::AlertRuleKind::Threshold { family, labels, window_secs, .. } => {
                    want(family, labels, *window_secs);
                }
                richnote_obs::AlertRuleKind::Rate { family, labels, window_secs, per, .. } => {
                    want(family, labels, *window_secs);
                    if let Some(per) = per {
                        want(per, &[], *window_secs);
                    }
                }
            }
        }
        (sequence, alerts_value, watchdog_value, queries)
    };

    let history_value = {
        let h = ctx.obs.history.lock().unwrap();
        queries.iter().map(|q| h.query(q)).collect::<Vec<_>>().to_value()
    };
    let flights = flight_dumps(ctx, trigger).to_value();

    // Sanitized config: the capture path is runtime-local detail (and the
    // record_golden fixtures demand a stable `record: null`).
    let mut cfg = ctx.cfg.clone();
    cfg.record = None;

    let bundle = IncidentBundle {
        meta: IncidentMeta {
            trigger: trigger.to_string(),
            reason: reason.to_string(),
            at_secs,
            uptime_secs: ctx.obs.started.elapsed().as_secs_f64(),
            sequence,
            build: BuildInfo::current(),
        },
        sections: vec![
            ("config".to_string(), cfg.to_value()),
            ("registry".to_string(), snap.to_value()),
            ("alerts".to_string(), alerts_value),
            ("watchdog".to_string(), watchdog_value),
            ("history".to_string(), history_value),
            ("flights".to_string(), flights),
        ],
    };
    let _ = std::fs::create_dir_all(dir);
    let path = std::path::Path::new(dir).join(incident_file_name(sequence, trigger));
    if write_incident_file(&path, &bundle).is_ok() {
        ctx.obs.alerts.lock().unwrap().last_incident = Some(path.display().to_string());
    }
}

/// Parses `/query?family=NAME[&labels=k=v,k2=v2][&window=SECS]` into a
/// [`HistoryQuery`]. `family` is required; `window` defaults to 60
/// seconds. Unknown parameters are rejected so typos fail loudly instead
/// of silently querying the wrong thing.
fn parse_query_path(path: &str) -> Result<HistoryQuery, String> {
    let qs = path.split_once('?').map_or("", |(_, qs)| qs);
    let mut family = None;
    let mut labels = Vec::new();
    let mut window_secs = 60.0;
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match k {
            "family" => family = Some(v.to_string()),
            "window" => {
                window_secs = v.parse().map_err(|_| format!("window is not a number: {v:?}"))?;
            }
            "labels" => {
                for lv in v.split(',').filter(|s| !s.is_empty()) {
                    let (lk, lval) =
                        lv.split_once('=').ok_or_else(|| format!("label is not k=v: {lv:?}"))?;
                    labels.push((lk.to_string(), lval.to_string()));
                }
            }
            other => return Err(format!("unknown query parameter: {other:?}")),
        }
    }
    let family = family.ok_or_else(|| "missing required parameter: family".to_string())?;
    Ok(HistoryQuery { family, labels, window_secs })
}

/// The health verdict: a fold over shard liveness, the alert rules'
/// current states and the watchdog. One dead shard degrades and all
/// dead violates; any firing alert or watchdog verdict degrades; a shard
/// wedged past the stall budget violates. The alert rules are evaluated
/// at tick boundaries, not here, so a poll exports no series beyond the
/// stats cut every read takes.
fn evaluate_health(ctx: &ConnCtx) -> HealthReport {
    let (snap, alive) = collect_stats(ctx);
    let shards_total = ctx.router.shards();
    let watchdog = observe_watchdog(ctx, &snap);
    let alerts_firing = ctx.obs.alerts.lock().unwrap().engine.firing_count();
    // A freshly dead shard degrades via liveness; the watchdog escalates
    // only once it has been wedged past the stall budget, so a
    // just-killed shard still reads `degraded` (HTTP 200) until the grace
    // period runs out.
    let stall_secs = ctx.cfg.alerts.watchdog.stall_secs;
    let status = if alive == 0
        || watchdog.iter().any(|v| v.problem == "wedged" && v.stalled_secs >= stall_secs)
    {
        HealthStatus::Violating
    } else if alive < shards_total || alerts_firing > 0 || !watchdog.is_empty() {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    HealthReport {
        status,
        uptime_secs: ctx.obs.uptime_secs(),
        shards_alive: alive,
        shards_total,
        alerts_firing,
        watchdog,
    }
}

/// Drains the server ring, then shard 0..n in order. Each source gets an
/// even slice of the frame budget; whatever does not fit stays ringed for
/// the next read, so a ring bigger than `MAX_FRAME_BYTES` can never
/// produce (and then lose) an unsendable reply.
fn drain_traces(ctx: &ConnCtx) -> Observed {
    let per_source = (TRACE_DUMP_EVENT_BUDGET / (ctx.router.shards() + 1)).max(1);
    let (mut spans, mut dropped) = match &ctx.obs.ring {
        Some(ring) => ring.lock().unwrap().drain_up_to(per_source),
        None => (Vec::new(), 0),
    };
    for (shard_spans, shard_dropped) in
        broadcast(&ctx.router, |reply| ShardMsg::TraceDump { max: per_source, reply })
    {
        spans.extend(shard_spans);
        dropped += shard_dropped;
    }
    Observed::Trace { spans, dropped }
}

/// The daemon's one read path: answers `view` from the registries, the
/// history, the alert engine and watchdog, and the trace and flight rings.
/// Connections reach it through `Request::Observe`, the metrics listener
/// through its HTTP paths.
fn observe(ctx: &ConnCtx, view: &View) -> Observed {
    match view {
        View::Stats => Observed::Stats(StatsReply {
            snapshot: merged_stats(ctx),
            uptime_secs: ctx.obs.uptime_secs(),
            build: BuildInfo::current(),
        }),
        View::Health => Observed::Health(evaluate_health(ctx)),
        View::Alerts => Observed::Alerts(alerts_reply(ctx)),
        View::Query(q) => Observed::Query(run_query(ctx, q)),
        View::Trace => drain_traces(ctx),
        View::Flight => Observed::Flight { dumps: flight_dumps(ctx, "request") },
    }
}

/// Cuts every shard's flight recorder under `reason`, dead shards'
/// included, in shard order. A worker that panicked holding a recorder's
/// lock poisoned it; every push leaves the ring valid, so it is read as
/// it stands.
fn flight_dumps(ctx: &ConnCtx, reason: &str) -> Vec<FlightDump> {
    let cut = |(shard, ring): (usize, &FlightRecorder)| {
        FlightDump::cut(&ring.lock().unwrap_or_else(PoisonError::into_inner), shard, reason)
    };
    ctx.flights.iter().enumerate().map(cut).collect()
}

/// Extracts the path from an HTTP request line; `/` when unparseable.
fn request_path(head: &[u8]) -> &str {
    let line = head.split(|&b| b == b'\r' || b == b'\n').next().unwrap_or(&[]);
    std::str::from_utf8(line).ok().and_then(|l| l.split_whitespace().nth(1)).unwrap_or("/")
}

/// Answers one metrics-listener connection. Speaks just enough HTTP/1.0
/// for `curl` and a Prometheus scraper: only the request line's path is
/// looked at, the response is a single status with `Content-Length`, and
/// the connection closes after it. The listener only adapts: it maps the
/// path to a [`View`] (`/healthz` → `Health`, `/alerts` → `Alerts`,
/// `/query?…` → `Query`, everything else → `Stats`), asks [`observe`],
/// and renders the answer — `Stats` as the text exposition, the rest as
/// the JSON a wire client would get (`503` for a violating health
/// verdict, `200` otherwise).
fn serve_scrape(mut stream: TcpStream, ctx: &ConnCtx) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = [0u8; 1024];
    let mut seen = 0usize;
    let mut tail = [0u8; 4];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                // The request line fits well inside 256 bytes; keep that
                // much for path routing.
                if head.len() < 256 {
                    let take = n.min(256 - head.len());
                    head.extend_from_slice(&buf[..take]);
                }
                // Track the last four bytes across reads to spot the blank
                // line ending the request head.
                for &b in &buf[..n] {
                    tail.rotate_left(1);
                    tail[3] = b;
                }
                seen += n;
                if &tail == b"\r\n\r\n" || seen > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let path = request_path(&head);
    let view = if path.starts_with("/healthz") {
        Ok(View::Health)
    } else if path.starts_with("/alerts") {
        Ok(View::Alerts)
    } else if path.starts_with("/query") {
        parse_query_path(path).map(View::Query)
    } else {
        Ok(View::Stats)
    };
    let (status, content_type, body) = match view.map(|v| observe(ctx, &v)) {
        Err(msg) => ("400 Bad Request", "text/plain; charset=utf-8", msg),
        Ok(Observed::Stats(reply)) => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", encode_text(&reply.snapshot))
        }
        Ok(observed) => {
            let status = match &observed {
                Observed::Health(r) if r.status == HealthStatus::Violating => {
                    "503 Service Unavailable"
                }
                _ => "200 OK",
            };
            (status, "application/json", observed.payload_json())
        }
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Collects a coordinated checkpoint from every shard and writes it.
fn collect_and_save(ctx: &ConnCtx, store: &CheckpointStore) -> ServerResult<ServerCheckpoint> {
    let _guard = ctx.ckpt_lock.lock().unwrap();
    let shards = broadcast(&ctx.router, |reply| ShardMsg::Checkpoint { reply });
    if shards.len() != ctx.router.shards() {
        observe_watchdog(ctx, &merged_stats(ctx));
        return Err(ServerError::Checkpoint {
            path: store.dir().display().to_string(),
            detail: format!(
                "only {}/{} shards replied (a worker died); refusing to write a partial \
                 checkpoint",
                shards.len(),
                ctx.router.shards()
            ),
        });
    }
    save_checkpoint(ctx, store, shards)
}

/// Assembles one cut per shard into a coordinated checkpoint, writes it and
/// counts the outcome in `richnote_checkpoint_writes_total`. The caller
/// holds `ckpt_lock`.
fn save_checkpoint(
    ctx: &ConnCtx,
    store: &CheckpointStore,
    mut shards: Vec<ShardCheckpoint>,
) -> ServerResult<ServerCheckpoint> {
    shards.sort_unstable_by_key(|s| s.shard);
    let ck = ServerCheckpoint {
        format: CKPT_FORMAT,
        round: shards.iter().map(|s| s.round).max().unwrap_or(0),
        round_secs: ctx.cfg.round_secs,
        sessions: ctx.router.session_entries(),
        subscriptions: ctx.router.subscription_entries(),
        shards,
    };
    let saved = store.save(&ck);
    let outcome = if saved.is_ok() { ctx.obs.checkpoint_ok } else { ctx.obs.checkpoint_failed };
    ctx.obs.lock_registry().inc(outcome, 1);
    saved.map(|()| ck)
}

/// Writes a `checkpoint_failure` incident bundle for `e`, stamped with
/// the same virtual clock as the watchdog's.
fn checkpoint_failed(ctx: &ConnCtx, e: &ServerError) {
    let at_secs = virtual_secs(ctx, &shard_probes(ctx, &merged_stats(ctx)));
    write_incident(ctx, "checkpoint_failure", &e.to_string(), at_secs);
}

/// How many traced-but-unacked publishes one connection remembers for Ack
/// spans; beyond this, new traces simply miss their Ack span (the window
/// settles long before in practice).
const TRACED_PENDING_CAP: usize = 16_384;

/// Flushes the pending cumulative publish ack, if any, timing the flush as
/// the pipeline's `ack` stage. Traced publishes covered by the cumulative
/// ack get their Ack span emitted here — the ack frame is the moment the
/// publication becomes durable from the client's point of view. Each
/// flushed frame is one ack *batch* (`richnote_ack_batches_total`): under
/// pipelining it covers every publish since the previous flush.
fn settle_ack(
    obs: &ServerObs,
    stages: &mut ConnStages,
    codec: &mut dyn FrameCodec,
    writer: &mut dyn Write,
    pending: &mut Option<u64>,
    traced: &mut Vec<(u64, u64)>,
) -> ServerResult<()> {
    if let Some(seq) = pending.take() {
        let t0 = Instant::now();
        codec.write_response(writer, &Response::PubAck { seq })?;
        writer.flush()?;
        obs.ack_batches_count.fetch_add(1, Ordering::Relaxed);
        stages.observe_ack(t0, obs);
        traced.retain(|&(s, t)| {
            if s <= seq {
                obs.span(SpanRecord::acked(t, s));
            }
            s > seq
        });
    }
    Ok(())
}

/// Writes one response in the connection's negotiated codec and flushes.
/// Flushing an empty `BufWriter` is a no-op, so calling this per response
/// keeps request/response turnarounds prompt without costing the
/// pipelined publish path anything.
fn send_response(
    codec: &mut dyn FrameCodec,
    writer: &mut dyn Write,
    resp: &Response,
) -> ServerResult<()> {
    codec.write_response(writer, resp)?;
    writer.flush()?;
    Ok(())
}

fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

/// Runs `rounds` rounds on every shard, then the periodic checkpoint when
/// one is due and the per-tick history sample; with `collect` the reply
/// carries the delivery log.
fn tick(ctx: &ConnCtx, rounds: u32, collect: bool) -> Response {
    let replies = broadcast(&ctx.router, |reply| ShardMsg::Tick { rounds, collect, reply });
    if replies.len() != ctx.router.shards() {
        observe_watchdog(ctx, &merged_stats(ctx));
        return error(
            ErrorCode::Internal,
            format!(
                "only {}/{} shards completed the tick (a worker died)",
                replies.len(),
                ctx.router.shards()
            ),
        );
    }
    let rounds_done = replies.iter().map(|r| r.rounds).max().unwrap_or(0);
    let selected = replies.iter().map(|r| r.selected).sum();
    // Periodic coordinated checkpoint at the tick boundary, before the
    // response: once the client sees Ticked, the due checkpoint exists
    // (or the failure is logged).
    if let Some(store) = &ctx.store {
        let every = ctx.cfg.checkpoint_every_rounds;
        if every > 0 && rounds_done % every == 0 {
            if let Err(e) = collect_and_save(ctx, store) {
                checkpoint_failed(ctx, &e);
                eprintln!("richnote-server: periodic checkpoint failed: {e}");
            }
        }
    }
    record_history(ctx, rounds_done);
    if collect {
        let mut deliveries: Vec<_> = replies.into_iter().flat_map(|r| r.deliveries).collect();
        deliveries.sort_by_key(|d| (d.round, d.user.value()));
        Response::TickReport { rounds: rounds_done, deliveries }
    } else {
        Response::Ticked { rounds: rounds_done, selected }
    }
}

/// Writes a coordinated checkpoint on request.
fn checkpoint(ctx: &ConnCtx) -> Response {
    let Some(store) = &ctx.store else {
        return error(ErrorCode::CheckpointFailed, "no checkpoint directory configured");
    };
    match collect_and_save(ctx, store) {
        Ok(ck) => Response::Checkpointed { users: ck.users(), round: ck.round },
        Err(e) => {
            checkpoint_failed(ctx, &e);
            error(ErrorCode::CheckpointFailed, e.to_string())
        }
    }
}

/// Stops ingest, flushes what each shard already queued through one final
/// round and checkpoints the post-flush state. Any failure reopens ingest
/// and leaves the daemon running; only `Drained` ends it.
fn drain(ctx: &ConnCtx) -> Response {
    ctx.router.set_draining(true);
    let replies = broadcast(&ctx.router, |reply| ShardMsg::Drain { reply });
    if replies.len() != ctx.router.shards() {
        ctx.router.set_draining(false);
        observe_watchdog(ctx, &merged_stats(ctx));
        return error(
            ErrorCode::Internal,
            format!(
                "only {}/{} shards completed the drain round (a worker died)",
                replies.len(),
                ctx.router.shards()
            ),
        );
    }
    let rounds = replies.iter().map(|s| s.round).max().unwrap_or(0);
    let users: u64 = replies.iter().map(|s| s.users.len() as u64).sum();
    let Some(store) = &ctx.store else {
        return Response::Drained { rounds, users, checkpointed: false };
    };
    let saved = {
        let _guard = ctx.ckpt_lock.lock().unwrap();
        save_checkpoint(ctx, store, replies)
    };
    match saved {
        Ok(_) => Response::Drained { rounds, users, checkpointed: true },
        // A drain that cannot persist must not pretend it did: report,
        // reopen ingest, keep running.
        Err(e) => {
            checkpoint_failed(ctx, &e);
            ctx.router.set_draining(false);
            error(ErrorCode::CheckpointFailed, e.to_string())
        }
    }
}

/// Serves every request that is neither the handshake nor a publish
/// (those two live in the connection loop, with the connection's state).
fn answer(ctx: &ConnCtx, req: Request) -> Response {
    match req {
        Request::Subscribe { user, topic } => {
            ctx.router.subscribe(user, topic);
            Response::Subscribed
        }
        Request::Tick { rounds } => tick(ctx, rounds, false),
        Request::TickReport { rounds } => tick(ctx, rounds, true),
        Request::Observe(view) => Response::Observed(observe(ctx, &view)),
        Request::Checkpoint => checkpoint(ctx),
        Request::Drain => drain(ctx),
        // Crash semantics on purpose: no checkpoint, no drain — the
        // kill-and-restart tests use this as the "kill".
        Request::Shutdown => Response::ShuttingDown,
        Request::Hello { .. } | Request::Publish { .. } => {
            error(ErrorCode::Internal, "connection-scoped request outside its connection loop")
        }
    }
}

fn handle_connection(stream: TcpStream, conn: u64, ctx: &ConnCtx) -> ServerResult<()> {
    stream.set_nodelay(true)?;
    let mut faults = ctx.cfg.faults.connection_faults(conn);
    let read_half: Box<dyn Read + Send> = if ctx.cfg.faults.short_read_limit > 0 {
        Box::new(ShortReader::new(stream.try_clone()?, ctx.cfg.faults.short_read_limit))
    } else {
        Box::new(stream.try_clone()?)
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    // Every connection starts in the JSON framing — the handshake's
    // codec — and switches to whatever the Hello exchange negotiates.
    let mut codec: Box<dyn FrameCodec> = codec_for(CodecKind::Json);
    // `None` until a successful Hello; `Some(session)` afterwards.
    let mut session: Option<u64> = None;
    // Highest publish seq applied but not yet acked on this connection.
    let mut pending_ack: Option<u64> = None;
    // Traced publishes awaiting their cumulative ack, as (seq, trace).
    let mut traced_pending: Vec<(u64, u64)> = Vec::new();
    let mut stages = ConnStages::default();

    loop {
        // Cumulative ack point: the client has no more pipelined frames in
        // our buffer, so flush the ack before blocking on the socket —
        // this batches acks under pipelining without ever deadlocking a
        // client that waits for one.
        if reader.buffer().is_empty() {
            settle_ack(
                &ctx.obs,
                &mut stages,
                codec.as_mut(),
                &mut writer,
                &mut pending_ack,
                &mut traced_pending,
            )?;
        }
        let req = match codec.read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(ServerError::ProtoMismatch { ours, theirs }) => {
                // Typed rejection instead of a silent drop; the stream is
                // unsynchronized after a bad version byte, so close after.
                let _ = send_response(
                    codec.as_mut(),
                    &mut writer,
                    &error(
                        ErrorCode::ProtoMismatch,
                        format!("server speaks protocol v{ours}, frame was v{theirs}"),
                    ),
                );
                break;
            }
            Err(ServerError::Frame(detail)) => {
                let _ =
                    send_response(codec.as_mut(), &mut writer, &error(ErrorCode::BadFrame, detail));
                break;
            }
            Err(e) => return Err(e),
        };
        // Injected connection reset: drop the socket on the floor without
        // processing the frame, like a mobile link dying mid-request.
        if faults.reset_now() {
            ctx.obs.lock_registry().inc(ctx.obs.fault_conn_reset, 1);
            break;
        }
        // Wire capture: every post-handshake frame that will be processed
        // (a fault-reset frame above was dropped on the wire, so a replay
        // must not re-apply it). Hello itself is excluded — replay mints
        // its own handshakes. `offer` never blocks; overflow sheds into
        // `richnote_record_shed_total`.
        if let (Some(sink), Some(s)) = (&ctx.record, session) {
            sink.offer(s, &req);
        }
        match req {
            Request::Hello { proto, session: wanted, codec: offered } => {
                if proto != PROTO_VERSION {
                    send_response(
                        codec.as_mut(),
                        &mut writer,
                        &error(
                            ErrorCode::ProtoMismatch,
                            format!(
                                "server speaks protocol v{PROTO_VERSION}, client sent v{proto}"
                            ),
                        ),
                    )?;
                    continue;
                }
                let negotiated = negotiate(ctx.cfg.codec, offered.as_deref());
                let resume_seq = ctx.router.begin_session(wanted);
                session = Some(wanted);
                // The response goes out in the *current* codec — the
                // client cannot switch until it has read it — and every
                // frame after it speaks the negotiated one. A repeated
                // Hello renegotiates the same way.
                send_response(
                    codec.as_mut(),
                    &mut writer,
                    &Response::Hello {
                        proto: PROTO_VERSION,
                        shards: ctx.router.shards(),
                        resume_seq,
                        codec: Some(negotiated.wire_name().to_string()),
                    },
                )?;
                if negotiated != codec.kind() {
                    codec = codec_for(negotiated);
                }
            }
            _ if session.is_none() => {
                send_response(
                    codec.as_mut(),
                    &mut writer,
                    &error(ErrorCode::HandshakeRequired, "send Hello before any other request"),
                )?;
            }
            Request::Publish { seq, topic, item, trace } => {
                let t0 = Instant::now();
                // Head-sampling verdict, taken once here and again per
                // shard from the same pure function, so a trace is either
                // recorded at every stage or at none. Anomalies (Drop
                // spans below, level ≤ 1 selections in the shards) are
                // force-kept regardless.
                let sampled =
                    trace.filter(|&t| ctx.obs.ring.is_some() && ctx.cfg.trace_sample.keeps(t));
                if let Some(t) = sampled {
                    ctx.obs.span(SpanRecord::publish(t, seq, item.id.value()));
                }
                let (outcome, shed) = ctx.router.apply_publish_traced(
                    session.unwrap_or(0),
                    seq,
                    topic,
                    item,
                    t0,
                    trace,
                );
                stages.observe_match(t0, &ctx.obs);
                for t in shed {
                    // A queue-shed ingest is an anomaly: its Drop span is
                    // recorded no matter what the sampler says.
                    ctx.obs.span(SpanRecord::dropped(t, None));
                }
                match outcome {
                    PublishOutcome::Routed { matched } => {
                        if let Some(t) = sampled {
                            ctx.obs.span(SpanRecord::matched(t, seq, matched));
                            if traced_pending.len() < TRACED_PENDING_CAP {
                                traced_pending.push((seq, t));
                            }
                        }
                        pending_ack = Some(pending_ack.map_or(seq, |p| p.max(seq)));
                    }
                    PublishOutcome::Duplicate => {
                        pending_ack = Some(pending_ack.map_or(seq, |p| p.max(seq)));
                    }
                    PublishOutcome::Draining => {
                        settle_ack(
                            &ctx.obs,
                            &mut stages,
                            codec.as_mut(),
                            &mut writer,
                            &mut pending_ack,
                            &mut traced_pending,
                        )?;
                        send_response(
                            codec.as_mut(),
                            &mut writer,
                            &error(ErrorCode::Draining, "daemon is draining; publication refused"),
                        )?;
                    }
                }
            }
            // Everything else is strict request/response: acks owed for
            // earlier publishes go out first, this connection's stage
            // samples are folded in so a `Stats` answer includes them,
            // and the two replies that can be large are timed as the
            // pipeline's `serialize` stage.
            req => {
                settle_ack(
                    &ctx.obs,
                    &mut stages,
                    codec.as_mut(),
                    &mut writer,
                    &mut pending_ack,
                    &mut traced_pending,
                )?;
                stages.flush(&ctx.obs);
                let resp = answer(ctx, req);
                let t0 = Instant::now();
                let sent = send_response(codec.as_mut(), &mut writer, &resp);
                if matches!(resp, Response::Drained { .. } | Response::ShuttingDown) {
                    // Stops whether or not the reply reached a client
                    // that may already have hung up.
                    ctx.stop.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the stop flag.
                    let _ = TcpStream::connect(ctx.addr);
                    break;
                }
                sent?;
                if matches!(resp, Response::TickReport { .. } | Response::Observed(_)) {
                    stages.observe_serialize(t0, &ctx.obs);
                }
            }
        }
    }
    stages.flush(&ctx.obs);
    Ok(())
}
