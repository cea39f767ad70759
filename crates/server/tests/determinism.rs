//! Sharding must not change what gets selected: the per-user round loop on
//! a shard worker is the same state machine as a single-threaded
//! [`RichNoteScheduler`] per user, and shard count must be invisible in
//! the selections.

use richnote_core::scheduler::{QueuedNotification, RichNoteScheduler, RoundContext};
use richnote_core::{ContentId, ContentItem, Policy, UserId};
use richnote_pubsub::Topic;
use richnote_server::shard::content_utility;
use richnote_server::{shard_of, Client, Server, ServerConfig, ShardState};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::collections::BTreeMap;
use std::time::Instant;

const ROUNDS: u64 = 48;

/// Per-user selection log: (round, content, level).
type Selections = BTreeMap<UserId, Vec<(u64, ContentId, u8)>>;

fn trace_items() -> Vec<ContentItem> {
    TraceGenerator::new(TraceConfig::small(7)).generate().items
}

/// Items partitioned into per-round arrival batches of virtual time.
fn arrival_batches(items: &[ContentItem], round_secs: f64) -> Vec<Vec<ContentItem>> {
    let mut batches = vec![Vec::new(); ROUNDS as usize];
    for item in items {
        let round = ((item.arrival / round_secs) as usize).min(ROUNDS as usize - 1);
        batches[round].push(item.clone());
    }
    batches
}

/// Drives `shards` ShardStates exactly like the daemon would: per round,
/// ingest that round's arrivals (routed by `shard_of`), then tick every
/// shard once.
fn run_sharded(cfg: &ServerConfig, batches: &[Vec<ContentItem>], shards: usize) -> Selections {
    let mut states: Vec<ShardState> =
        (0..shards).map(|s| ShardState::new(s, cfg.clone())).collect();
    let mut selections = Selections::new();
    for (round, batch) in batches.iter().enumerate() {
        for item in batch {
            let user = item.recipient;
            states[shard_of(user, shards)].ingest(user, item.clone(), Instant::now(), None);
        }
        for state in &mut states {
            let out = state.run_round();
            for (user, content, level) in out.selected {
                selections.entry(user).or_default().push((round as u64, content, level));
            }
        }
    }
    selections
}

/// The reference: one RichNoteScheduler per user, driven directly.
fn run_reference(cfg: &ServerConfig, batches: &[Vec<ContentItem>]) -> Selections {
    let ladder =
        std::sync::Arc::new(richnote_core::AudioPresentationSpec::paper_default().ladder());
    let mut schedulers: BTreeMap<UserId, RichNoteScheduler> = BTreeMap::new();
    let mut selections = Selections::new();
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
        let ctx = RoundContext::builder(&cfg.cost)
            .round(round as u64)
            .now(now)
            .round_secs(cfg.round_secs)
            .link_capacity(cfg.link_capacity)
            .data_grant(cfg.data_grant)
            .energy_grant(cfg.energy_grant)
            .build();
        for (&user, scheduler) in &mut schedulers {
            for d in scheduler.run_round(&ctx) {
                selections.entry(user).or_default().push((round as u64, d.content, d.level));
            }
        }
    }
    selections
}

#[test]
fn sharded_selection_matches_single_threaded_reference() {
    let cfg = ServerConfig::default();
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let reference = run_reference(&cfg, &batches);
    assert!(
        reference.values().map(Vec::len).sum::<usize>() > 50,
        "trace too small to be a meaningful determinism check"
    );
    for shards in [1, 2, 4, 7] {
        let sharded = run_sharded(&cfg, &batches, shards);
        assert_eq!(sharded, reference, "selections diverged with {shards} shards");
    }
}

#[test]
fn sharded_runs_are_repeatable() {
    let cfg = ServerConfig::default();
    let batches = arrival_batches(&trace_items(), cfg.round_secs);
    let a = run_sharded(&cfg, &batches, 4);
    let b = run_sharded(&cfg, &batches, 4);
    assert_eq!(a, b);
}

#[test]
fn end_to_end_over_tcp() {
    let cfg = ServerConfig { shards: 2, ..ServerConfig::default() };
    let (addr, handle) = Server::spawn(cfg).expect("spawn server");

    let mut client = Client::builder(addr).connect().expect("connect");
    assert_eq!(client.shards(), 2);

    let items = trace_items();
    let users: std::collections::BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).unwrap();
    }
    for item in &items {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
    }
    client.sync().unwrap();

    // sync() fences the publishes (every one is acked, hence routed), but
    // shard queues may still be draining, so tick until everything
    // ingested has been considered.
    let mut selected_total = 0u64;
    for _ in 0..200 {
        let (_, selected) = client.tick(1).unwrap();
        selected_total += selected;
        let snap = client.stats().unwrap().snapshot;
        if snap.counter_total("richnote_pubs_total") == items.len() as u64
            && snap.gauge_total("richnote_backlog") == 0.0
        {
            break;
        }
    }

    let snap = client.stats().unwrap().snapshot;
    let selected = snap.counter_total("richnote_selected_total");
    assert_eq!(
        snap.counter_total("richnote_pubs_total"),
        items.len() as u64,
        "every publication must match"
    );
    assert_eq!(snap.counter_total("richnote_queue_dropped_total"), 0);
    assert_eq!(snap.gauge_total("richnote_backlog"), 0.0, "budgets should drain the small trace");
    assert_eq!(selected, selected_total);
    // Default config disables age expiry, so drained backlog means every
    // ingested item was selected.
    assert_eq!(selected, items.len() as u64);
    let lat = snap.histogram_merged("richnote_selection_latency_us");
    assert_eq!(lat.count(), selected);
    assert!(lat.quantile_us(0.99) > 0);
    // Both shards should own users from the trace.
    for shard in ["0", "1"] {
        let users = snap.value_where("richnote_users", "shard", shard);
        assert!(users > Some(0.0), "lopsided shard map: shard {shard} has {users:?} users");
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn wire_protocol_survives_a_full_conversation() {
    use richnote_server::wire::{read_frame, write_frame, ErrorCode, Request, Response, View};
    use richnote_server::PROTO_VERSION;

    let item = trace_items().remove(0);
    let reqs = vec![
        Request::Hello { proto: PROTO_VERSION, session: 77, codec: Some("binary".to_string()) },
        Request::Subscribe { user: item.recipient, topic: Topic::FriendFeed(item.recipient) },
        Request::Publish { seq: 1, topic: Topic::FriendFeed(item.recipient), item, trace: None },
        Request::Tick { rounds: 2 },
        Request::Observe(View::Stats),
        Request::Drain,
        Request::Shutdown,
    ];
    let mut buf = Vec::new();
    for r in &reqs {
        write_frame(&mut buf, r).unwrap();
    }
    let mut cursor = &buf[..];
    let mut back = Vec::new();
    while let Some(r) = read_frame::<_, Request>(&mut cursor).unwrap() {
        back.push(r);
    }
    assert_eq!(back, reqs);

    let resp = Response::Error { code: ErrorCode::Draining, message: "nope".into() };
    let mut buf = Vec::new();
    write_frame(&mut buf, &resp).unwrap();
    let mut cursor = &buf[..];
    assert_eq!(read_frame::<_, Response>(&mut cursor).unwrap().unwrap(), resp);
}
