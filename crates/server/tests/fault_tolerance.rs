//! Fault-tolerance integration tests: kill-and-restart determinism,
//! client retry under injected connection drops, drain semantics, and
//! loud failure on corrupt checkpoints.

use richnote_core::scheduler::{QueuedNotification, RichNoteScheduler};
use richnote_core::{ContentId, ContentItem, Policy, UserId};
use richnote_pubsub::Topic;
use richnote_server::shard::content_utility;
use richnote_server::wire::{read_frame, write_frame, ErrorCode, Request, Response};
use richnote_server::{
    read_incident_file, shard_of, CaptureReader, Client, CodecKind, FaultPlan, FaultRng,
    FlightDump, IncidentBundle, Server, ServerConfig, ServerError, ShardPanicFault, SpanStage,
    PROTO_VERSION,
};
use richnote_trace::{TraceConfig, TraceGenerator};
use serde::Deserialize;
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

const ROUNDS: usize = 12;

/// A fresh scratch directory under the system temp dir; unique per test
/// invocation so parallel test runs cannot collide.
fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "richnote-ft-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn trace_items() -> Vec<ContentItem> {
    TraceGenerator::new(TraceConfig::small(7)).generate().items
}

/// Items partitioned into per-round arrival batches of virtual time.
fn arrival_batches(items: &[ContentItem], round_secs: f64) -> Vec<Vec<ContentItem>> {
    let mut batches = vec![Vec::new(); ROUNDS];
    for item in items {
        let round = ((item.arrival / round_secs) as usize).min(ROUNDS - 1);
        batches[round].push(item.clone());
    }
    batches
}

/// One delivery as the paper's reference scheduler would log it.
type Log = Vec<(u64, UserId, ContentId, u8)>;

/// The uninterrupted single-threaded reference: one RichNoteScheduler per
/// user, driven directly through every round.
fn run_reference(cfg: &ServerConfig, batches: &[Vec<ContentItem>]) -> Log {
    let ladder =
        std::sync::Arc::new(richnote_core::AudioPresentationSpec::paper_default().ladder());
    let mut schedulers: std::collections::BTreeMap<UserId, RichNoteScheduler> = Default::default();
    let mut log = Log::new();
    for (round, batch) in batches.iter().enumerate() {
        let now = round as f64 * cfg.round_secs;
        for item in batch {
            schedulers
                .entry(item.recipient)
                .or_insert_with(|| RichNoteScheduler::builder().build())
                .enqueue(QueuedNotification {
                    item: item.clone(),
                    ladder: ladder.clone(),
                    content_utility: content_utility(item),
                    enqueued_at: now,
                });
        }
        let ctx = richnote_core::scheduler::RoundContext::builder(&cfg.cost)
            .round(round as u64)
            .now(now)
            .round_secs(cfg.round_secs)
            .link_capacity(cfg.link_capacity)
            .data_grant(cfg.data_grant)
            .energy_grant(cfg.energy_grant)
            .build();
        let mut per_round: Vec<_> = Vec::new();
        for (&user, scheduler) in &mut schedulers {
            for d in scheduler.run_round(&ctx) {
                per_round.push((round as u64, user, d.content, d.level));
            }
        }
        // Same order the daemon reports: by (round, user).
        per_round.sort_by_key(|&(r, u, ..)| (r, u.value()));
        log.extend(per_round);
    }
    log
}

/// Publishes `batch`, fences it with `sync`, then ticks one round and
/// appends the reported deliveries to `log`.
fn drive_round(client: &mut Client, batch: &[ContentItem], log: &mut Log) {
    for item in batch {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).expect("publish");
    }
    client.sync().expect("sync");
    let (_, deliveries) = client.tick_report(1).expect("tick");
    log.extend(deliveries.into_iter().map(|d| (d.round, d.user, d.content, d.level)));
}

/// The tentpole acceptance test: kill the daemon partway through the
/// trace (Shutdown = crash semantics, no final checkpoint), restart it
/// from the periodic checkpoints, finish the trace, and require the
/// combined delivery log to be byte-identical to an uninterrupted
/// single-threaded reference run.
#[test]
fn kill_and_restart_restores_byte_identical_selections() {
    const KILL_AT: usize = 5;
    let dir = scratch_dir("kill-restart");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(dir.to_str().unwrap())
        .checkpoint_every_rounds(1)
        .build()
        .expect("config");
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let reference = run_reference(&cfg, &batches);
    assert!(reference.len() > 50, "trace too small to be a meaningful determinism check");

    let mut log = Log::new();
    let users: BTreeSet<UserId> = batches.iter().flatten().map(|i| i.recipient).collect();

    // Phase 1: run the first KILL_AT rounds, then crash.
    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }
    for batch in &batches[..KILL_AT] {
        drive_round(&mut client, batch, &mut log);
    }
    client.shutdown().expect("kill");
    handle.join().expect("server thread");

    // Phase 2: restart from the checkpoint directory and finish. The
    // subscription table rides the checkpoint, so no re-subscribing.
    let server = Server::bind(cfg).expect("rebind");
    let restored = server.restored().expect("restart must restore the checkpoint");
    assert_eq!(restored.round, KILL_AT as u64, "checkpoint cut at the kill boundary");
    // Only users who have ingested something carry scheduler state.
    assert!(restored.users > 0 && restored.users as usize <= users.len());
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("reconnect");
    for batch in &batches[KILL_AT..] {
        drive_round(&mut client, batch, &mut log);
    }
    let snap = client.stats().expect("stats").snapshot;
    assert!(snap.gauge_total("richnote_restored_users") > 0.0, "shards must report restored users");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    assert_eq!(log, reference, "interrupted run diverged from the uninterrupted reference");
    let _ = std::fs::remove_dir_all(&dir);
}

/// ~5% injected connection drops across the whole publish phase must not
/// lose a single acked publication: every offered item is ingested
/// exactly once (reconnect replay is deduplicated by the session
/// watermark).
#[test]
fn zero_acked_loss_under_connection_drops() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(2).build().expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    let items = trace_items();
    let users: BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }

    let mut chaos = FaultRng::new(0xC0FFEE);
    let mut injected = 0u32;
    for item in &items {
        if chaos.next_f64() < 0.05 {
            client.inject_connection_reset();
            injected += 1;
        }
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).expect("publish");
    }
    client.sync().expect("sync");
    assert!(injected > 20, "the fault schedule must actually fire (got {injected})");
    assert!(client.reconnects() > 0, "drops must force reconnects");

    // Tick until the backlog drains, then check the books.
    for _ in 0..400 {
        client.tick(1).expect("tick");
        if client.stats().expect("stats").snapshot.gauge_total("richnote_backlog") == 0.0 {
            break;
        }
    }
    let snap = client.stats().expect("stats").snapshot;
    assert_eq!(
        snap.counter_total("richnote_pubs_total"),
        items.len() as u64,
        "acked publications lost or duplicated across {injected} injected drops"
    );
    assert_eq!(snap.counter_total("richnote_queue_dropped_total"), 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A client that dies mid-frame (length prefix promises more bytes than
/// ever arrive) must only kill its own connection; the daemon keeps
/// serving others.
#[test]
fn connection_reset_mid_frame_leaves_server_serving() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(1).build().expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");

    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        // 64-byte payload promised, 3 bytes delivered, then a hard close.
        let partial = [64u8, 0, 0, 0, PROTO_VERSION as u8, b'{', b'"', b'H'];
        raw.write_all(&partial).expect("partial frame");
        raw.flush().expect("flush");
    }

    let mut client = Client::builder(addr).connect().expect("connect after partial frame");
    let user = UserId::new(1);
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    let item = trace_items().remove(0);
    client.publish(Topic::FriendFeed(user), item).expect("publish");
    client.sync().expect("sync");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A truncated newest checkpoint must fail the restart loudly — silently
/// falling back to an older checkpoint would replay rounds the outside
/// world already observed.
#[test]
fn truncated_checkpoint_fails_loudly_on_restore() {
    let dir = scratch_dir("truncated");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(dir.to_str().unwrap())
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    let user = UserId::new(9);
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    let item = trace_items().remove(0);
    client.publish(Topic::FriendFeed(user), item).expect("publish");
    client.sync().expect("sync");
    client.tick(1).expect("tick");
    client.checkpoint().expect("checkpoint");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    let newest = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rnck"))
        .max()
        .expect("a checkpoint file");
    let bytes = std::fs::read(&newest).expect("read checkpoint");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate");

    match Server::bind(cfg) {
        Err(ServerError::Checkpoint { .. }) => {}
        Err(other) => panic!("expected a Checkpoint error, got {other}"),
        Ok(_) => panic!("bind must refuse a truncated checkpoint"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected shard-worker panic is contained: the tick that hits it
/// reports a typed Internal error instead of hanging or crashing the
/// daemon, and the connection (and broker paths that bypass the dead
/// shard) keep working.
#[test]
fn shard_panic_is_contained() {
    let faults = FaultPlan {
        shard_panic: Some(ShardPanicFault { shard: 1, round: 2 }),
        ..FaultPlan::none()
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .faults(faults)
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    client.tick(1).expect("round 0");
    client.tick(1).expect("round 1");
    match client.tick(1) {
        Err(ServerError::Rejected { code: ErrorCode::Internal, .. }) => {}
        other => panic!("expected a typed Internal rejection, got {other:?}"),
    }
    // The connection survived the dead shard; non-tick requests still work.
    let user = UserId::new(3);
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe after panic");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Every incident bundle in `dir`, verified, in file-name (sequence) order.
fn incident_bundles(dir: &std::path::Path) -> Vec<IncidentBundle> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list incident dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths.iter().map(|p| read_incident_file(p).expect("bundle must verify")).collect()
}

/// An injected shard panic leaves one post-mortem: the `tick` that finds
/// the worker dead writes the wedged-shard incident bundle before it
/// answers, and the bundle carries the dead shard's flight-recorder
/// trees, which also stay readable over the wire.
#[test]
fn shard_panic_writes_crc_valid_flight_dump() {
    let dir = scratch_dir("flight-panic");
    let faults = FaultPlan {
        shard_panic: Some(ShardPanicFault { shard: 1, round: 2 }),
        ..FaultPlan::none()
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .trace_capacity(1024)
        .incident_dir(dir.to_str().unwrap())
        .faults(faults)
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    // A user living on the doomed shard.
    let user = (0..).map(UserId::new).find(|&u| shard_of(u, 2) == 1).expect("a shard-1 user");
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    let mut item = trace_items().remove(0);
    item.recipient = user;
    const TRACE: u64 = 0xDEAD_BEEF_0BAD_F00D;
    client.publish_traced(Topic::FriendFeed(user), item, Some(TRACE)).expect("publish");
    client.sync().expect("sync");

    client.tick(1).expect("round 0 selects the traced publication");
    client.tick(1).expect("round 1");
    match client.tick(1) {
        Err(ServerError::Rejected { code: ErrorCode::Internal, .. }) => {}
        other => panic!("expected the injected panic, got {other:?}"),
    }

    // No waiting: the failed tick wrote the bundle before answering.
    let bundles = incident_bundles(&dir);
    assert_eq!(bundles.len(), 1, "one post-mortem per dead shard");
    assert_eq!(bundles[0].meta.trigger, "watchdog:shard-1:wedged");
    let flights = bundles[0].section("flights").expect("bundle carries the flight recorders");
    let dumps = Vec::<FlightDump>::from_value(flights).expect("flights section decodes");
    let dead = dumps.iter().find(|d| d.shard == 1).expect("the dead shard's recorder");
    let tree = dead.trees.iter().find(|t| t.trace == TRACE).expect("traced publication retained");
    assert!(tree.stage(SpanStage::Select).is_some(), "tree carries the selection span");

    // The dead shard's recorder stays readable over the wire too.
    let dumps = client.flight_dump().expect("flight view");
    assert_eq!(dumps.len(), 2, "one dump per shard, the dead one included");
    assert!(dumps[1].trees.iter().any(|t| t.trace == TRACE), "dead shard's tree still served");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every failed checkpoint write — explicit, drain-time and periodic —
/// leaves one verified `checkpoint_failure` incident bundle.
#[test]
fn every_failed_checkpoint_write_leaves_one_incident_bundle() {
    let ckpt = scratch_dir("ckfail-bundle-ckpt");
    let dir = scratch_dir("ckfail-bundle");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(ckpt.to_str().unwrap())
        .checkpoint_every_rounds(1)
        .incident_dir(dir.to_str().unwrap())
        .faults(FaultPlan { checkpoint_fail_every: 1, ..FaultPlan::none() })
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    assert!(client.checkpoint().is_err(), "explicit checkpoint fails");
    assert!(client.drain().is_err(), "drain-time checkpoint fails");
    client.tick(1).expect("a failed periodic checkpoint does not fail the tick");

    let stats = client.stats().expect("stats");
    let failed = stats.snapshot.value_where("richnote_checkpoint_writes_total", "result", "failed");
    assert_eq!(failed, Some(3.0), "three failed checkpoint writes");
    let bundles = incident_bundles(&dir);
    assert_eq!(bundles.len(), 3, "one bundle per failed write");
    for b in &bundles {
        assert_eq!(b.meta.trigger, "checkpoint_failure");
        assert!(b.meta.reason.contains("injected write failure"), "reason: {}", b.meta.reason);
        assert!(b.section("registry").is_some() && b.section("flights").is_some());
    }
    // Stamped in virtual time: nothing ran before the drain's one round,
    // and the tick's periodic checkpoint fell after its round.
    let at: Vec<f64> = bundles.iter().map(|b| b.meta.at_secs).collect();
    assert_eq!(at, vec![0.0, 3_600.0, 7_200.0]);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Injected checkpoint-write failures surface as typed CheckpointFailed
/// rejections, and a drain that cannot persist reopens ingest instead of
/// exiting with unpersisted state.
#[test]
fn checkpoint_write_failure_is_typed_and_drain_aborts() {
    let dir = scratch_dir("ckfail");
    let faults = FaultPlan { checkpoint_fail_every: 1, ..FaultPlan::none() };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(dir.to_str().unwrap())
        .faults(faults)
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    match client.checkpoint() {
        Err(ServerError::Rejected { code: ErrorCode::CheckpointFailed, .. }) => {}
        other => panic!("expected CheckpointFailed, got {other:?}"),
    }
    match client.drain() {
        Err(ServerError::Rejected { code: ErrorCode::CheckpointFailed, .. }) => {}
        other => panic!("drain without a checkpoint must abort, got {other:?}"),
    }
    // The failed drain reopened ingest: publications flow again.
    let user = UserId::new(4);
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    let item = trace_items().remove(0);
    client.publish(Topic::FriendFeed(user), item).expect("publish after aborted drain");
    client.sync().expect("sync");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A successful drain flushes queued work through one final round,
/// checkpoints, and exits; the checkpoint restores on the next bind.
#[test]
fn drain_checkpoints_and_restores() {
    let dir = scratch_dir("drain");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(dir.to_str().unwrap())
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    let items = trace_items();
    let users: BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }
    for item in items.iter().take(100) {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).expect("publish");
    }
    client.sync().expect("sync");

    let (rounds, drained_users, checkpointed) = client.drain().expect("drain");
    assert!(rounds >= 1, "drain must run the final flush round");
    assert!(drained_users > 0, "the flush round must have reached users with state");
    assert!(checkpointed, "drain with a checkpoint dir must persist");
    handle.join().expect("server thread");

    let server = Server::bind(cfg).expect("rebind");
    let restored = server.restored().expect("restore after drain");
    assert_eq!(restored.users, drained_users);
    assert_eq!(restored.round, rounds);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stats snapshots survive checkpoint/restore with the documented split:
/// lifetime counters (pubs, selected, rounds, bytes) are re-seeded from
/// the checkpointed shard state, while wall-clock histograms (round and
/// stage durations) and the queue-drop counter restart from zero — a
/// restarted process has fresh clocks and a fresh queue, and pretending
/// otherwise would corrupt rate math on the scraping side.
#[test]
fn stats_counters_survive_checkpoint_restore() {
    const CUT_AT: usize = 6;
    let dir = scratch_dir("stats-restore");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .checkpoint_dir(dir.to_str().unwrap())
        .build()
        .expect("config");
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let users: BTreeSet<UserId> = batches.iter().flatten().map(|i| i.recipient).collect();

    // Phase 1: drive some rounds, cut a checkpoint, then crash without a
    // final checkpoint (Shutdown = crash semantics).
    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }
    let mut log = Log::new();
    for batch in &batches[..CUT_AT] {
        drive_round(&mut client, batch, &mut log);
    }
    client.checkpoint().expect("checkpoint");
    let before = client.stats().expect("stats before crash").snapshot;
    client.shutdown().expect("kill");
    handle.join().expect("server thread");

    let pubs = before.counter_total("richnote_pubs_total");
    let selected = before.counter_total("richnote_selected_total");
    let rounds = before.counter_total("richnote_rounds_total");
    let bytes_spent = before.counter_total("richnote_bytes_spent_total");
    assert!(pubs > 0, "the driven rounds must have ingested publications");
    assert!(selected > 0 && rounds > 0 && bytes_spent > 0);
    assert!(
        before.histogram_merged("richnote_round_duration_us").count() > 0,
        "round timing must have been observed before the crash"
    );

    // Phase 2: restart from the checkpoint; counters come back, clocks
    // do not.
    let server = Server::bind(cfg).expect("rebind");
    assert!(server.restored().is_some(), "restart must restore the checkpoint");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("reconnect");
    let after = client.stats().expect("stats after restore").snapshot;

    assert_eq!(after.counter_total("richnote_pubs_total"), pubs, "pubs_total must be restored");
    assert_eq!(after.counter_total("richnote_selected_total"), selected);
    assert_eq!(after.counter_total("richnote_rounds_total"), rounds);
    assert_eq!(after.counter_total("richnote_bytes_spent_total"), bytes_spent);
    assert_eq!(
        after.counter_total("richnote_queue_dropped_total"),
        0,
        "the rebuilt queue owns the drop counter; it must restart from zero"
    );
    assert_eq!(
        after.histogram_merged("richnote_round_duration_us").count(),
        0,
        "wall-clock histograms must restart from zero in the new process"
    );
    assert_eq!(after.histogram_merged("richnote_selection_latency_us").count(), 0);

    // The restored counters keep advancing from their seeds, not from zero.
    drive_round(&mut client, &batches[CUT_AT], &mut log);
    let resumed = client.stats().expect("stats after resumed round").snapshot;
    assert!(resumed.counter_total("richnote_rounds_total") > rounds);
    assert!(resumed.counter_total("richnote_pubs_total") >= pubs);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown must not wait on clients that are merely connected: the
/// daemon closes the connections still open, so handlers blocked reading
/// from an idle peer end and `Server::run` returns.
#[test]
fn shutdown_returns_while_an_idle_client_stays_connected() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(2).build().expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut idle = Client::builder(addr).no_retry().connect().expect("idle client");
    let mut first = Client::builder(addr).connect().expect("first client");
    first.shutdown().expect("shutdown");

    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(handle.join()));
    joined
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("Server::run must return within 2 s of Shutdown")
        .expect("server thread");
    assert!(idle.tick(1).is_err(), "the idle client's connection was closed under it");
}

/// A client speaking an older protocol version gets a typed rejection at
/// the handshake, not a hang or a silent close.
#[test]
fn proto_mismatch_is_rejected_with_a_typed_error() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(1).build().expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");

    let stream = TcpStream::connect(addr).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, &Request::Hello { proto: 1, session: 0, codec: None })
        .expect("hello v1");
    match read_frame::<_, Response>(&mut reader).expect("response").expect("frame") {
        Response::Error { code: ErrorCode::ProtoMismatch, message } => {
            assert!(message.contains(&format!("v{PROTO_VERSION}")), "message names our version");
        }
        other => panic!("expected a ProtoMismatch rejection, got {other:?}"),
    }
    drop(writer);
    drop(reader);

    // A real protocol-v2, -v3 or -v4 peer also stamps its version into
    // the frame header; it is turned away on that byte, before its
    // payload is even parsed.
    for theirs in [2u8, 3, 4] {
        let mut stream = TcpStream::connect(addr).expect("raw connect");
        let hello = format!(r#"{{"Hello":{{"proto":{theirs},"session":0}}}}"#);
        stream.write_all(&(hello.len() as u32).to_le_bytes()).expect("length");
        stream.write_all(&[theirs]).expect("version byte");
        stream.write_all(hello.as_bytes()).expect("payload");
        match read_frame::<_, Response>(&mut BufReader::new(stream))
            .expect("response")
            .expect("frame")
        {
            Response::Error { code: ErrorCode::ProtoMismatch, message } => {
                assert!(
                    message.contains(&format!("v{theirs}")),
                    "message names the peer's version: {message}"
                );
            }
            other => panic!("expected a ProtoMismatch rejection, got {other:?}"),
        }
    }

    let mut client = Client::builder(addr).connect().expect("current-version client still welcome");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A client that makes no codec offer — its `Hello` carries no `codec`
/// field at all, like a five-line probe script's — must work against a
/// binary-preferring server: the handshake falls back to JSON framing and
/// the whole conversation (publish, ack, drain) stays plain JSON.
#[test]
fn client_without_a_codec_offer_negotiates_down_and_publishes() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(1).build().expect("config");
    assert_eq!(ServerConfig::default().codec, CodecKind::Binary, "server prefers binary");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");

    let stream = TcpStream::connect(addr).expect("raw connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // No codec offer.
    write_frame(&mut writer, &Request::Hello { proto: PROTO_VERSION, session: 41, codec: None })
        .expect("hello");
    match read_frame::<_, Response>(&mut reader).expect("response").expect("frame") {
        Response::Hello { proto, codec, .. } => {
            assert_eq!(proto, PROTO_VERSION);
            assert_eq!(codec.as_deref(), Some("json"), "server must fall back to JSON framing");
        }
        other => panic!("expected a Hello reply, got {other:?}"),
    }

    // Every later frame still speaks the JSON framing.
    let item = trace_items().into_iter().next().expect("an item");
    let user = item.recipient;
    write_frame(&mut writer, &Request::Subscribe { user, topic: Topic::FriendFeed(user) })
        .expect("subscribe");
    match read_frame::<_, Response>(&mut reader).expect("response").expect("frame") {
        Response::Subscribed => {}
        other => panic!("expected Subscribed, got {other:?}"),
    }
    write_frame(
        &mut writer,
        &Request::Publish { seq: 1, topic: Topic::FriendFeed(user), item, trace: None },
    )
    .expect("publish");
    match read_frame::<_, Response>(&mut reader).expect("response").expect("frame") {
        Response::PubAck { seq } => assert_eq!(seq, 1),
        other => panic!("expected PubAck, got {other:?}"),
    }
    // Drain stops the daemon after its reply, closing the connection.
    write_frame(&mut writer, &Request::Drain).expect("drain");
    match read_frame::<_, Response>(&mut reader).expect("response").expect("frame") {
        Response::Drained { users, .. } => assert!(users >= 1, "the publish reached a shard"),
        other => panic!("expected Drained, got {other:?}"),
    }
    drop(writer);
    drop(reader);
    handle.join().expect("server thread");
}

/// Every cell of the negotiation matrix meets at the floor of what the
/// two sides allow, and traffic flows under whichever codec won.
#[test]
fn codec_negotiation_matrix_always_meets_at_the_floor() {
    let cases = [
        (CodecKind::Binary, CodecKind::Binary, CodecKind::Binary),
        (CodecKind::Binary, CodecKind::Json, CodecKind::Json),
        (CodecKind::Json, CodecKind::Binary, CodecKind::Json),
        (CodecKind::Json, CodecKind::Json, CodecKind::Json),
    ];
    let item = trace_items().into_iter().next().expect("an item");
    for (server_cap, client_offer, expected) in cases {
        let cfg = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .shards(1)
            .codec(server_cap)
            .build()
            .expect("config");
        let (addr, handle) = Server::spawn(cfg).expect("spawn");
        let mut client = Client::builder(addr).codec(client_offer).connect().expect("connect");
        assert_eq!(
            client.codec(),
            Some(expected),
            "server {server_cap} x client {client_offer} must negotiate {expected}"
        );
        let user = item.recipient;
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
        client.publish(Topic::FriendFeed(user), item.clone()).expect("publish");
        let (_, users, _) = client.drain().expect("drain");
        assert!(users >= 1, "the publish reached a shard under {expected}");
        handle.join().expect("server thread");
    }
}

/// The capture path has one encode point — canonical JSON — upstream of
/// the wire codec, so recording the same workload under JSON and binary
/// connections must produce identical frame payloads. This is what lets
/// a capture recorded today replay against any future codec lineup.
#[test]
fn captures_record_identical_frames_across_wire_codecs() {
    let dir = scratch_dir("codec-capture");
    let items: Vec<ContentItem> = trace_items().into_iter().take(16).collect();

    let mut recorded: Vec<Vec<(u64, String)>> = Vec::new();
    for codec in [CodecKind::Json, CodecKind::Binary] {
        let path = dir.join(format!("capture-{codec}.rncap"));
        let cfg = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .record(path.display().to_string())
            .build()
            .expect("config");
        let (addr, handle) = Server::spawn(cfg).expect("spawn");
        let mut client = Client::builder(addr).codec(codec).session(7).connect().expect("connect");
        assert_eq!(client.codec(), Some(codec), "offer accepted");
        for item in &items {
            client.publish(Topic::FriendFeed(item.recipient), item.clone()).expect("publish");
        }
        client.drain().expect("drain");
        handle.join().expect("server thread");

        let mut reader = CaptureReader::open(&path).expect("open capture");
        let mut frames = Vec::new();
        while let Some(rec) = reader.next_record().expect("valid record") {
            frames.push((rec.session, rec.frame));
        }
        assert!(frames.len() >= items.len(), "{codec}: every publish was captured");
        recorded.push(frames);
    }

    assert_eq!(
        recorded[0], recorded[1],
        "JSON-framed and binary-framed connections must capture identical frame payloads"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
