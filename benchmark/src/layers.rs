//! The per-layer ledger: fixed-work loops over public functions of single
//! modules, inputs passed in, each reported as time per operation. Module
//! names are the layers. `--layers` runs every loop for at least half a
//! second; a traced workload run uses short loops so it stays a workload
//! run. The numbers say what a layer costs in isolation; `--explain`
//! multiplies them by how often a workload crosses each layer.

use crate::daemon::Rig;
use richnote_core::lyapunov::{LyapunovConfig, LyapunovState};
use richnote_core::mckp::{select_greedy_into, GreedyOptions, GreedyScratch, MckpItem};
use richnote_core::scheduler::{LinearCost, QueuedNotification, RoundContext, TransferCost};
use richnote_core::{
    AudioPresentationSpec, ContentId, ContentItem, NoopObserver, PolicyName, UserId,
};
use richnote_forest::{Dataset, RandomForest, RandomForestConfig};
use richnote_net::{MarkovConnectivity, NetworkState};
use richnote_obs::rsrc::alloc_counts;
use richnote_obs::{
    default_rules, encode_text, AlertEngine, MetricValue, MetricsHistory, Registry,
    RegistrySnapshot, DEFAULT_HISTORY_CAPACITY,
};
use richnote_pubsub::{Broker, DeliveryMode, Publication, Topic};
use richnote_replay::{replay_into, sanitize_config, ReplayOptions};
use richnote_server::checkpoint::{ServerCheckpoint, SubscriptionEntry, CKPT_FORMAT};
use richnote_server::router::Router;
use richnote_server::shard::ShardMsg;
use richnote_server::wire::{Delivery, Request, Response};
use richnote_server::{
    codec_for, BoundedQueue, CaptureReader, CheckpointStore, Client, CodecKind, Server,
    ServerConfig, ShardState,
};
use richnote_sim::simulator::forest_utility;
use richnote_sim::{EnergyCost, NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
use richnote_trace::{classifier_rows, TraceConfig, TraceGenerator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Layer figures by metric name, plus allocations per operation for the
/// loops that ran on one thread.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub values: BTreeMap<&'static str, f64>,
    pub allocs_per_op: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Operations per timed batch of the small loops.
const BATCH: usize = 1024;
/// Users of the shard, checkpoint and round loops (the `round_dense` size).
const USERS: u64 = 20_000;

/// What a timed stretch cost: its wall time, and the allocations the
/// calling thread made in it (0 unless allocation counting is on).
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    time: Duration,
    allocs: u64,
}

fn timed(f: impl FnOnce()) -> Cost {
    let (t0, allocs0) = (Instant::now(), alloc_counts().allocs);
    f();
    Cost { time: t0.elapsed(), allocs: alloc_counts().allocs - allocs0 }
}

struct Bench<'a> {
    min: Duration,
    ledger: &'a mut Ledger,
}

impl Bench<'_> {
    /// Repeats `batch` — which does some untimed preparation, then returns
    /// how many operations its timed part did and what that part cost —
    /// until the timed parts add up to the minimum; records `unit` time per
    /// operation under `name`.
    fn per_op(
        &mut self,
        name: &'static str,
        unit: Duration,
        mut batch: impl FnMut() -> (u64, Cost),
    ) {
        let (mut ops, mut busy, mut allocs) = (0u64, Duration::ZERO, 0u64);
        while busy < self.min || ops == 0 {
            let (n, cost) = batch();
            ops += n;
            busy += cost.time;
            allocs += cost.allocs;
        }
        self.ledger.values.insert(name, busy.as_secs_f64() / unit.as_secs_f64() / ops as f64);
        if richnote_obs::rsrc::alloc_counting_active() {
            self.ledger.allocs_per_op.insert(name, allocs as f64 / ops as f64);
        }
    }

    fn ns(&mut self, name: &'static str, batch: impl FnMut() -> (u64, Cost)) {
        self.per_op(name, Duration::from_nanos(1), batch);
    }
}

fn publish_requests(items: &[ContentItem]) -> Vec<Request> {
    items
        .iter()
        .cycle()
        .take(BATCH)
        .enumerate()
        .map(|(i, item)| Request::Publish {
            seq: i as u64 + 1,
            topic: Topic::FriendFeed(item.recipient),
            item: item.clone(),
            trace: None,
        })
        .collect()
}

fn codec_layer(b: &mut Bench, items: &[ContentItem]) {
    let requests = publish_requests(items);
    let report = Response::TickReport {
        rounds: 7,
        deliveries: (0..1_000u64)
            .map(|i| Delivery {
                round: 7,
                user: UserId::new(i),
                content: ContentId::new(1 << 40 | i),
                level: (i % 6) as u8 + 1,
            })
            .collect(),
    };
    type Names = [&'static str; 4];
    let names: [(CodecKind, Names); 2] = [
        (
            CodecKind::Binary,
            [
                "codec.binary.encode_publish_ns",
                "codec.binary.decode_publish_ns",
                "codec.binary.puback_ns",
                "codec.binary.encode_tickreport_ns",
            ],
        ),
        (
            CodecKind::Json,
            [
                "codec.json.encode_publish_ns",
                "codec.json.decode_publish_ns",
                "codec.json.puback_ns",
                "codec.json.encode_tickreport_ns",
            ],
        ),
    ];
    for (kind, [encode, decode, puback, tickreport]) in names {
        let mut codec = codec_for(kind);
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
        b.ns(encode, || {
            buf.clear();
            let d = timed(|| {
                for r in &requests {
                    codec.write_request(&mut buf, r).expect("encode publish");
                }
            });
            (BATCH as u64, d)
        });
        if kind == CodecKind::Binary {
            b.ledger
                .values
                .insert("codec.binary.publish_frame_bytes", buf.len() as f64 / BATCH as f64);
        }
        b.ns(decode, || {
            let mut r = &buf[..];
            let d = timed(|| {
                while let Some(req) = codec.read_request(&mut r).expect("decode publish") {
                    black_box(req);
                }
            });
            (BATCH as u64, d)
        });
        // One cumulative ack written by the server and read by the client.
        let mut ack_buf: Vec<u8> = Vec::with_capacity(1 << 16);
        b.ns(puback, || {
            ack_buf.clear();
            let d = timed(|| {
                for seq in 0..BATCH as u64 {
                    codec.write_response(&mut ack_buf, &Response::PubAck { seq }).expect("ack");
                }
                let mut r = &ack_buf[..];
                while let Some(resp) = codec.read_response(&mut r).expect("read ack") {
                    black_box(resp);
                }
            });
            (BATCH as u64, d)
        });
        b.ns(tickreport, || {
            buf.clear();
            let d = timed(|| codec.write_response(&mut buf, &report).expect("encode report"));
            (1, d)
        });
    }
}

fn queues(n: usize, capacity: usize) -> Vec<Arc<BoundedQueue<ShardMsg>>> {
    (0..n).map(|_| Arc::new(BoundedQueue::new(capacity, ShardMsg::droppable))).collect()
}

fn drain(router: &Router) {
    for s in 0..router.shards() {
        while !router.queue(s).is_empty() {
            router.queue(s).pop();
        }
    }
}

fn subscribed_router(users: u64, capacity: usize) -> Router {
    let router = Router::new(queues(crate::host::lanes(), capacity));
    for u in 0..users {
        router.subscribe(UserId::new(u), Topic::FriendFeed(UserId::new(u)));
    }
    router
}

fn router_layer(b: &mut Bench, items: &[ContentItem], users: u64) {
    let router = subscribed_router(users, 1 << 20);
    let mut seq = 0u64;
    b.ns("router.apply_publish_ns", || {
        let owned: Vec<ContentItem> = items.iter().cycle().take(BATCH).cloned().collect();
        let d = timed(|| {
            for item in owned {
                seq += 1;
                let topic = Topic::FriendFeed(item.recipient);
                black_box(router.apply_publish(7, seq, topic, item, Instant::now()));
            }
        });
        drain(&router);
        (BATCH as u64, d)
    });
    // At or below the session's watermark: the republished-duplicate path.
    b.ns("router.apply_publish_dup_ns", || {
        let owned: Vec<ContentItem> = items.iter().cycle().take(BATCH).cloned().collect();
        let d = timed(|| {
            for item in owned {
                let topic = Topic::FriendFeed(item.recipient);
                black_box(router.apply_publish(7, 1, topic, item, Instant::now()));
            }
        });
        (BATCH as u64, d)
    });
    // Two sessions on two threads through one router: the broker and
    // session mutexes are shared, so this includes the wait for them.
    const PER_THREAD: usize = 32 * BATCH;
    let router = Arc::new(subscribed_router(users, 1 << 20));
    let mut round = 0u64;
    b.ns("router.apply_publish_2thr_ns", || {
        round += 1;
        let go = Barrier::new(2);
        let busy: Vec<Cost> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (router, go) = (&router, &go);
                    s.spawn(move || {
                        let owned: Vec<ContentItem> = items
                            .iter()
                            .cycle()
                            .skip(t as usize)
                            .take(PER_THREAD)
                            .cloned()
                            .collect();
                        let base = round * PER_THREAD as u64;
                        go.wait();
                        timed(|| {
                            for (i, item) in owned.into_iter().enumerate() {
                                let topic = Topic::FriendFeed(item.recipient);
                                let seq = base + i as u64 + 1;
                                black_box(router.apply_publish(
                                    100 + t,
                                    seq,
                                    topic,
                                    item,
                                    Instant::now(),
                                ));
                            }
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("router thread")).collect()
        });
        drain(&router);
        // Per publish as one connection sees it: the slower thread's time.
        (PER_THREAD as u64, busy.into_iter().max_by_key(|c| c.time).expect("two threads"))
    });

    let mut broker: Broker<ContentItem> = Broker::new();
    for u in 0..users {
        broker.subscribe_with_mode(
            UserId::new(u),
            Topic::FriendFeed(UserId::new(u)),
            DeliveryMode::Realtime,
        );
    }
    b.ns("pubsub.broker_publish_ns", || {
        let owned: Vec<ContentItem> = items.iter().cycle().take(BATCH).cloned().collect();
        let d = timed(|| {
            for item in owned {
                let topic = Topic::FriendFeed(item.recipient);
                let at = item.arrival;
                black_box(broker.publish(Publication::new(topic, item, at)));
            }
        });
        (BATCH as u64, d)
    });
}

fn ingest_msgs(items: &[ContentItem], n: usize) -> Vec<ShardMsg> {
    items
        .iter()
        .cycle()
        .take(n)
        .map(|item| ShardMsg::Ingest {
            user: item.recipient,
            item: item.clone(),
            received: Instant::now(),
            trace: None,
        })
        .collect()
}

fn queue_layer(b: &mut Bench, items: &[ContentItem]) {
    let roomy = BoundedQueue::new(1 << 16, ShardMsg::droppable);
    b.ns("queue.push_pop_ns", || {
        let msgs = ingest_msgs(items, BATCH);
        let d = timed(|| {
            for m in msgs {
                roomy.push(m);
            }
            for _ in 0..BATCH {
                black_box(roomy.pop());
            }
        });
        (BATCH as u64, d)
    });
    // Full: every push sheds the oldest entry first.
    let full = BoundedQueue::new(512, ShardMsg::droppable);
    for m in ingest_msgs(items, 512) {
        full.push(m);
    }
    b.ns("queue.push_evicting_full_ns", || {
        let msgs = ingest_msgs(items, BATCH);
        let d = timed(|| {
            for m in msgs {
                black_box(full.push_evicting(m));
            }
        });
        (BATCH as u64, d)
    });
}

fn shard_config() -> ServerConfig {
    ServerConfig::builder().shards(1).data_grant(30_000).build().expect("shard config")
}

/// A shard whose `users` schedulers all hold state and an empty queue.
fn warm_shard(shard: usize, first_user: u64, users: u64, items: &[ContentItem]) -> ShardState {
    let mut state = ShardState::new(shard, shard_config());
    for (u, item) in (first_user..first_user + users).zip(items.iter().cycle()) {
        let mut item = item.clone();
        item.id = ContentId::new(1 << 41 | u);
        state.ingest(UserId::new(u), item, Instant::now(), None);
    }
    state.run_round();
    state
}

fn shard_layer(b: &mut Bench, items: &[ContentItem]) {
    let mut state = ShardState::new(0, shard_config());
    let mut next_id = 1u64 << 42;
    let mut batches = 0u64;
    b.ns("shard.ingest_ns", || {
        let owned: Vec<ContentItem> = items.iter().cycle().take(BATCH).cloned().collect();
        let d = timed(|| {
            for mut item in owned {
                next_id += 1;
                item.id = ContentId::new(next_id);
                state.ingest(item.recipient, item, Instant::now(), None);
            }
        });
        batches += 1;
        if batches & 7 == 0 {
            state.run_round(); // keep the schedulers' queues short
        }
        (BATCH as u64, d)
    });

    let mut state = warm_shard(0, 0, USERS, items);
    b.ns("shard.round_idle_ns_per_user", || (USERS, timed(|| drop(black_box(state.run_round())))));
    let idle_round_ns = b.ledger.get("shard.round_idle_ns_per_user") * USERS as f64;
    // A tenth of the users get one item each, as in a `round_dense` cycle.
    let active = USERS / 10;
    let mut first = 0u64;
    b.ns("shard.round_active_ns_per_item", || {
        for (k, item) in (0..active).zip(items.iter().cycle()) {
            next_id += 1;
            let mut item = item.clone();
            item.id = ContentId::new(next_id);
            state.ingest(UserId::new((first + k) % USERS), item, Instant::now(), None);
        }
        first += active;
        let round = timed(|| drop(black_box(state.run_round())));
        let idle = Duration::from_nanos(idle_round_ns as u64);
        (active, Cost { time: round.time.saturating_sub(idle), ..round })
    });
    b.ns("shard.checkpoint_ns_per_user", || (USERS, timed(|| drop(black_box(state.checkpoint())))));
}

fn checkpoint_layer(b: &mut Bench, items: &[ContentItem]) {
    let half = USERS / 2;
    let shards = vec![
        warm_shard(0, 0, half, items).checkpoint(),
        warm_shard(1, half, half, items).checkpoint(),
    ];
    let ck = ServerCheckpoint {
        format: CKPT_FORMAT,
        round: 1,
        round_secs: shard_config().round_secs,
        sessions: Vec::new(),
        subscriptions: (0..USERS)
            .map(|u| SubscriptionEntry {
                user: UserId::new(u),
                topic: Topic::FriendFeed(UserId::new(u)),
            })
            .collect(),
        shards,
    };
    let dir = crate::host::scratch_dir("layers-ckpt");
    let store = CheckpointStore::open(&dir, 0).expect("open checkpoint store");
    let ms = Duration::from_millis(1);
    b.per_op("checkpoint.save_ms", ms, || (1, timed(|| store.save(&ck).expect("save checkpoint"))));
    let bytes: u64 = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    b.ledger.values.insert("checkpoint.bytes", bytes as f64);
    b.per_op("checkpoint.load_ms", ms, || {
        (1, timed(|| drop(black_box(store.load_latest().expect("load checkpoint")))))
    });
    crate::host::remove_scratch(&dir);
}

fn notification(
    item: &ContentItem,
    ladder: &Arc<richnote_core::PresentationLadder>,
    uc: f64,
) -> QueuedNotification {
    QueuedNotification {
        item: item.clone(),
        ladder: Arc::clone(ladder),
        content_utility: uc,
        enqueued_at: 0.0,
    }
}

fn core_layer(b: &mut Bench, items: &[ContentItem]) {
    let ladder = Arc::new(AudioPresentationSpec::paper_default().ladder());
    let uc = |i: usize| 0.05 + 0.9 * ((i * 37) % 100) as f64 / 100.0;

    const N: usize = 1_000;
    let instance: Vec<MckpItem> =
        (0..N).map(|i| MckpItem::from_ladder(i, &ladder, uc(i))).collect();
    let budget = N as u64 * ladder.get(ladder.max_level()).size / 2;
    let mut scratch = GreedyScratch::default();
    b.ns("core.mckp_greedy_ns_per_item", || {
        let d = timed(|| {
            black_box(select_greedy_into(
                &instance,
                budget,
                GreedyOptions::default(),
                &mut scratch,
            ));
        });
        (N as u64, d)
    });

    // One user's round with eight queued notifications, per policy of the
    // registry. The grant fits all eight at the baselines' fixed level 3
    // (200 kB each), so no backlog builds up from batch to batch, and a
    // third of what all eight would take at the top level, so RichNote's
    // knapsack has a choice to make.
    const QUEUED: usize = 8;
    const ROUND_GRANT: u64 = 2_000_000;
    const POLICIES: usize = 64;
    let cost = LinearCost { fixed: 1.0, per_byte: 1e-4 };
    let names = [
        (PolicyName::RichNote, "core.select_round_ns.richnote"),
        (PolicyName::Fifo, "core.select_round_ns.fifo"),
        (PolicyName::Util, "core.select_round_ns.util"),
        (PolicyName::Adaptive, "core.select_round_ns.adaptive"),
    ];
    for (policy, name) in names {
        // Long-lived schedulers, as a shard's are: each batch queues eight
        // fresh notifications per scheduler, and the round delivers them.
        let mut policies: Vec<_> = (0..POLICIES).map(|_| policy.build()).collect();
        let mut round = 0u64;
        b.ns(name, || {
            for (p, chunk) in policies.iter_mut().zip(items.chunks(QUEUED).cycle()) {
                for (i, item) in chunk.iter().enumerate() {
                    p.enqueue(notification(item, &ladder, uc(i)));
                }
            }
            round += 1;
            let ctx = RoundContext::builder(&cost)
                .round(round)
                .round_secs(3_600.0)
                .link_capacity(10_000_000)
                .data_grant(ROUND_GRANT)
                .energy_grant(3_000.0)
                .build();
            let d = timed(|| {
                for p in &mut policies {
                    black_box(p.select_round(&ctx, &mut NoopObserver));
                }
            });
            (POLICIES as u64, d)
        });
    }

    let mut lyap = LyapunovState::new(LyapunovConfig::paper_default());
    lyap.begin_round(400_000, 3_000.0);
    lyap.on_enqueue(1_000_000);
    b.ns("core.lyapunov_adjust_ns", || {
        let d = timed(|| {
            for i in 0..BATCH as u64 {
                black_box(lyap.adjusted_utility(
                    black_box(800_000 + i),
                    black_box(12.5),
                    black_box(0.7),
                ));
            }
        });
        (BATCH as u64, d)
    });
}

/// A registry with the same families and series as `snap`.
fn registry_like(snap: &RegistrySnapshot) -> Registry {
    let mut reg = Registry::new();
    for f in &snap.families {
        for s in &f.series {
            let labels: Vec<(&str, &str)> =
                s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            match &s.value {
                MetricValue::Counter(v) => {
                    let h = reg.counter(&f.name, &f.help, &labels);
                    reg.set_counter(h, *v);
                }
                MetricValue::Gauge(v) => {
                    let h = reg.gauge(&f.name, &f.help, &labels);
                    reg.set_gauge(h, *v);
                }
                MetricValue::Histogram(v) => {
                    let h = reg.histogram(&f.name, &f.help, &labels);
                    reg.merge_histogram(h, v);
                }
            }
        }
    }
    reg
}

/// A merged `stats()` snapshot of the live daemon after it has taken some
/// publications and ticked, so the observability loops chew on the real
/// shape.
fn live_snapshot(rig: &mut Rig) -> Result<RegistrySnapshot, String> {
    let client = &mut rig.control;
    for item in rig.templates.iter().take(2_000) {
        client
            .publish(Topic::FriendFeed(item.recipient), item.clone())
            .map_err(|e| format!("publish: {e}"))?;
    }
    client.sync().map_err(|e| format!("sync: {e}"))?;
    client.tick(3).map_err(|e| format!("tick: {e}"))?;
    Ok(client.stats().map_err(|e| format!("stats: {e}"))?.snapshot)
}

fn obs_layer(b: &mut Bench, snap: &RegistrySnapshot) {
    const N: usize = 64;
    let mut history = MetricsHistory::new(DEFAULT_HISTORY_CAPACITY);
    let mut now = 0.0;
    b.ns("obs.history_record_ns", || {
        let snaps: Vec<RegistrySnapshot> = (0..N).map(|_| snap.clone()).collect();
        let d = timed(|| {
            for s in snaps {
                now += 3_600.0;
                history.record(now, s);
            }
        });
        (N as u64, d)
    });
    let mut engine = AlertEngine::new(default_rules());
    b.ns("obs.alert_eval_ns", || {
        let d = timed(|| {
            for _ in 0..N {
                now += 3_600.0;
                black_box(engine.evaluate(now, &history, None));
            }
        });
        (N as u64, d)
    });
    let reg = registry_like(snap);
    b.ns("obs.registry_snapshot_ns", || {
        let d = timed(|| {
            for _ in 0..N {
                black_box(reg.snapshot());
            }
        });
        (N as u64, d)
    });
    b.ns("obs.expo_encode_ns", || {
        let d = timed(|| {
            for _ in 0..N {
                black_box(encode_text(snap));
            }
        });
        (N as u64, d)
    });
}

fn sim_layer(b: &mut Bench, seed: u64) {
    let cfg = |seed, users| TraceConfig {
        seed,
        n_users: users,
        days: 7,
        mean_notifications_per_user_day: 40.0,
        ..TraceConfig::default()
    };
    let ms = Duration::from_millis(1);
    // 500 users x 2 days = one thousand user-days.
    b.per_op("trace.generate_ms_per_kuser_day", ms, || {
        let c = TraceConfig { seed, n_users: 500, days: 2, ..TraceConfig::default() };
        (1, timed(|| drop(black_box(TraceGenerator::new(c).generate()))))
    });

    let train = TraceGenerator::new(cfg(seed + 1, 40)).generate();
    let (rows, labels) = classifier_rows(&train.items);
    let data = Dataset::new(rows, labels).expect("training rows");
    let mut forest = None;
    b.per_op("forest.train_ms", ms, || {
        let d =
            timed(|| forest = Some(RandomForest::fit(&data, &RandomForestConfig::default(), seed)));
        (1, d)
    });
    b.ledger.notes.push(format!("forest.train_ms: {} rows, default forest", train.items.len()));
    let forest = Arc::new(forest.expect("trained at least once"));

    let trace = Arc::new(TraceGenerator::new(cfg(seed, 60)).generate());
    let features: Vec<Vec<f64>> =
        trace.items.iter().take(BATCH).map(|i| i.features.to_vec()).collect();
    b.ns("forest.predict_ns", || {
        let d = timed(|| {
            for f in &features {
                black_box(forest.content_utility(f));
            }
        });
        (features.len() as u64, d)
    });

    let users = trace.top_users(40);
    let sim_cfg = SimulationConfig {
        network: NetworkKind::Markov,
        seed,
        ..SimulationConfig::weekly(PolicyKind::richnote_default(), 20)
    };
    let sim = PopulationSim::new(trace, forest_utility(forest), sim_cfg);
    b.per_op("sim.user_week_us", Duration::from_micros(1), || {
        (users.len() as u64, timed(|| drop(black_box(sim.run(&users)))))
    });

    let cost = EnergyCost::cellular();
    b.ns("energy.cost_ns", || {
        let d = timed(|| {
            for i in 0..BATCH as u64 {
                black_box(cost.energy(black_box(200 + i * 800)));
            }
        });
        (BATCH as u64, d)
    });
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut chain = MarkovConnectivity::paper_default(NetworkState::Cell);
    b.ns("net.markov_step_ns", || {
        let d = timed(|| {
            for _ in 0..BATCH {
                black_box(chain.step(&mut rng));
            }
        });
        (BATCH as u64, d)
    });
}

/// The committed golden capture, replayed as fast as possible.
fn replay_layer(b: &mut Bench) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/goldens/golden.rncap");
    let Ok((header, records)) = CaptureReader::read_all(path) else {
        b.ledger
            .notes
            .push("replay.*: tests/goldens/golden.rncap not readable; reported as 0".into());
        b.ledger.values.insert("replay.replay_into_us_per_pub", 0.0);
        b.ledger.values.insert("replay.allocs_per_pub", 0.0);
        return;
    };
    let mut allocs_per_pub = 0.0;
    b.per_op("replay.replay_into_us_per_pub", Duration::from_micros(1), || {
        let (addr, handle) =
            Server::spawn(sanitize_config(header.config.clone())).expect("spawn for replay");
        let opts = ReplayOptions { as_fast_as_possible: true, ..ReplayOptions::default() };
        let d = timed(|| {
            drop(replay_into(addr, path, &records, opts).expect("replay the golden capture"))
        });
        let mut client = Client::builder(addr).connect().expect("connect after replay");
        let snap = client.stats().expect("stats after replay").snapshot;
        client.shutdown().expect("shutdown after replay");
        handle.join().expect("replay daemon thread");
        let pubs = snap.counter_total("richnote_pubs_total").max(1);
        allocs_per_pub = snap.counter_total("richnote_allocs_total") as f64 / pubs as f64;
        (pubs, d)
    });
    b.ledger.values.insert("replay.allocs_per_pub", allocs_per_pub);
}

/// Runs every loop for at least `min_secs` and returns the ledger.
pub fn run(min_secs: f64, seed: u64) -> Result<Ledger, String> {
    let mut ledger = Ledger::default();
    ledger.values.insert("host.calib_mops", crate::host::calibration_mops());
    let users = 1_600u64;
    let mut rig = Rig::set_up("ledger", seed, users, users, |c| c)?;
    let snap = live_snapshot(&mut rig)?;
    let items = std::mem::take(&mut rig.templates);
    rig.tear_down()?;
    let mut b = Bench { min: Duration::from_secs_f64(min_secs), ledger: &mut ledger };
    codec_layer(&mut b, &items);
    router_layer(&mut b, &items, users);
    queue_layer(&mut b, &items);
    shard_layer(&mut b, &items);
    checkpoint_layer(&mut b, &items);
    core_layer(&mut b, &items);
    obs_layer(&mut b, &snap);
    sim_layer(&mut b, seed);
    replay_layer(&mut b);
    Ok(ledger)
}
