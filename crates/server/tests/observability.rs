//! End-to-end tests for the observability surface: the wire's `Observe`
//! views and the `--metrics-addr` scrape listener, exercised against a
//! live daemon (in process, and as the `richnote-server` binary) the way
//! `curl` and a Prometheus agent would, plus a pin of every exported
//! number of a seeded run across a checkpoint restart.

use richnote_core::content::{ContentFeatures, ContentKind, Interaction, SocialTie};
use richnote_core::{AlbumId, ArtistId, ContentId, ContentItem, TrackId, UserId};
use richnote_pubsub::Topic;
use richnote_server::{
    derive_trace_id, Client, FaultPlan, HealthStatus, HistoryQuery, SampleRate, Server,
    ServerConfig, ShardPanicFault, SpanStage, SpanTree, TRACE_DUMP_EVENT_BUDGET,
};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Binds a daemon with the metrics listener and a trace ring enabled,
/// returning the two addresses and the run-thread handle.
fn spawn_observable(
    trace_capacity: usize,
) -> (std::net::SocketAddr, std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .metrics_addr("127.0.0.1:0")
        .trace_capacity(trace_capacity)
        .build()
        .expect("config");
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics_local_addr().expect("metrics listener bound");
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, metrics, handle)
}

/// Publishes a small trace and ticks a few rounds so every metric family
/// has something to say.
fn warm_up(client: &mut Client) -> u64 {
    let items = TraceGenerator::new(TraceConfig::small(11)).generate().items;
    let published = items.len() as u64;
    for item in &items {
        client.subscribe(item.recipient, Topic::FriendFeed(item.recipient)).expect("subscribe");
    }
    for item in items {
        let topic = Topic::FriendFeed(item.recipient);
        client.publish(topic, item).expect("publish");
    }
    client.sync().expect("sync");
    client.tick(3).expect("tick");
    published
}

/// One plain HTTP/1.0 GET against the scrape listener, the way `curl`
/// or a Prometheus agent would issue it.
fn scrape(metrics: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(metrics).expect("connect scrape listener");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: richnote\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn stats_request_returns_the_merged_registry() {
    let (addr, _metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    let published = warm_up(&mut client);

    let snap = client.stats().expect("stats").snapshot;
    assert_eq!(snap.counter_total("richnote_pubs_total"), published);
    assert_eq!(snap.counter_total("richnote_rounds_total"), 2 * 3, "3 ticks across 2 shards");
    assert_eq!(snap.counter_total("richnote_queue_dropped_total"), 0);
    assert!(snap.counter_total("richnote_selected_total") > 0, "rounds must have delivered");
    assert!(
        snap.histogram_merged("richnote_round_duration_us").count() >= 6,
        "every shard round must be timed"
    );
    // The merged snapshot carries both shard labels for a sharded family.
    let family = snap.family("richnote_rounds_total").expect("rounds family");
    assert_eq!(family.series.len(), 2, "one series per shard");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// One popular friend-feed notification for `user`.
fn item_for(id: u64, user: UserId) -> ContentItem {
    ContentItem {
        id: ContentId::new(id),
        recipient: user,
        sender: None,
        kind: ContentKind::FriendFeed,
        track: TrackId::new(id),
        album: AlbumId::new(1),
        artist: ArtistId::new(1),
        arrival: 0.0,
        track_secs: 180.0,
        features: ContentFeatures {
            tie: SocialTie::Mutual,
            track_popularity: 0.9,
            album_popularity: 0.5,
            artist_popularity: 0.7,
            weekend: false,
            night: false,
        },
        interaction: Interaction::NoActivity,
    }
}

/// Rounds, selections and chosen levels are `Stats` families; the trace
/// rings hold spans only, and reading them consumes them.
#[test]
fn trace_dump_drains_spans_once() {
    let (addr, _metrics, handle) = spawn_observable(4096);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    let snap = client.stats().expect("stats").snapshot;
    assert_eq!(snap.counter_total("richnote_rounds_total"), 6, "3 ticks across 2 shards");
    let selected = snap.counter_total("richnote_selected_total");
    assert!(selected > 0, "selections must be counted");
    assert_eq!(snap.counter_total("richnote_level_total"), selected, "one level per selection");
    let (untraced, dropped) = client.trace_dump().expect("trace dump");
    assert_eq!(dropped, 0, "the ring was sized for the warm-up");
    assert!(untraced.is_empty(), "untraced traffic leaves nothing in the rings");

    let user = UserId::new(900_001);
    client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    client
        .publish_traced(Topic::FriendFeed(user), item_for(900_001, user), Some(0xD0_0D))
        .expect("publish");
    client.sync().expect("sync");
    client.tick(1).expect("tick");
    let (spans, _) = client.trace_dump().expect("trace dump");
    assert!(spans.iter().any(|s| s.stage == SpanStage::Select), "the selection must be traced");
    assert!(spans.iter().all(|s| s.trace == 0xD0_0D));

    // Drain semantics: a second dump starts from empty rings.
    let (again, _) = client.trace_dump().expect("second dump");
    assert!(again.is_empty(), "drained spans must not be replayed");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The two facts the retired aggregate trace events carried that no
/// metric did — coordinated checkpoint writes by outcome, injected faults
/// by kind — are families on the server registry.
#[test]
fn checkpoint_and_fault_counts_are_registry_families() {
    let dir = std::env::temp_dir().join(format!("richnote-obs-ckpt-{}", std::process::id()));
    let faults = FaultPlan {
        checkpoint_fail_every: 2,
        conn_reset_per_frame: 0.3,
        seed: 5,
        ..FaultPlan::none()
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(1)
        .checkpoint_dir(dir.to_str().unwrap())
        .faults(faults)
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    // A reset drops the frame before it is served and the client retries,
    // so exactly three writes reach the store; every second one fails.
    let outcomes: Vec<bool> = (0..3).map(|_| client.checkpoint().is_ok()).collect();
    assert_eq!(outcomes, [true, false, true]);

    let snap = client.stats().expect("stats").snapshot;
    let writes = |result| snap.value_where("richnote_checkpoint_writes_total", "result", result);
    assert_eq!(writes("ok"), Some(2.0));
    assert_eq!(writes("failed"), Some(1.0));
    let resets = snap
        .value_where("richnote_faults_injected_total", "kind", "conn_reset")
        .expect("fault family registered");
    assert!(client.reconnects() > 0, "the fault schedule must actually fire");
    assert!(
        resets >= client.reconnects() as f64,
        "every reconnect follows a counted reset ({resets} resets, {} reconnects)",
        client.reconnects()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only spans occupy a trace ring, so a ring sized for the spans of a
/// workload holds all of them: `K / 4` traced publications leave three
/// spans each in the server ring (publish, match, ack) and three in the
/// shard ring (queue, select, serialize) — under `K` in both.
#[test]
fn ring_sized_for_the_spans_evicts_nothing() {
    const K: usize = 64;
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(1)
        .trace_capacity(K)
        .trace_sample(SampleRate::ALL)
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");

    let traced = (K / 4) as u64;
    for n in 1..=traced {
        let user = UserId::new(n);
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }
    for n in 1..=traced {
        let user = UserId::new(n);
        let trace = derive_trace_id(3, n, n);
        client
            .publish_traced(Topic::FriendFeed(user), item_for(n, user), Some(trace))
            .expect("pub");
    }
    client.sync().expect("sync");
    client.tick(1).expect("tick");
    client.sync().expect("post-tick sync");

    let (spans, dropped) = client.trace_dump().expect("trace dump");
    assert_eq!(dropped, 0, "nothing but spans may occupy the rings");
    let trees = SpanTree::assemble(&spans);
    assert_eq!(trees.len() as u64, traced);
    assert!(trees.iter().all(SpanTree::is_complete), "every publication was selected and acked");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The tentpole acceptance path: a traced publication yields a complete
/// publish→match→queue→select→serialize→ack span tree over `TraceDump`,
/// carrying the chosen level and the winning gradient, and the same
/// trees are retained by the (non-destructive) flight recorder.
#[test]
fn traced_publication_yields_a_complete_span_tree() {
    let (addr, _metrics, handle) = spawn_observable(65_536);
    let mut client = Client::builder(addr).connect().expect("connect");

    let items = TraceGenerator::new(TraceConfig::small(13)).generate().items;
    let mut minted = Vec::new();
    for item in &items {
        client.subscribe(item.recipient, Topic::FriendFeed(item.recipient)).expect("subscribe");
    }
    for (idx, item) in items.into_iter().enumerate() {
        let topic = Topic::FriendFeed(item.recipient);
        // Mint ids the way loadgen does: seed + stamp + content, sampled
        // at 1/1 so every publication is traced.
        let trace = derive_trace_id(7, idx as u64, item.id.value());
        assert!(SampleRate::ALL.keeps(trace));
        minted.push(trace);
        client.publish_traced(topic, item, Some(trace)).expect("publish");
    }
    client.sync().expect("sync");
    client.tick(6).expect("tick");
    // Acks settle on the publishing connection lazily; a sync after the
    // ticks flushes the cumulative PubAck that closes the span trees.
    client.sync().expect("post-tick sync");

    let (spans, dropped) = client.trace_dump().expect("trace dump");
    assert_eq!(dropped, 0, "the ring was sized for the workload");
    let trees = SpanTree::assemble(&spans);
    assert!(!trees.is_empty(), "traced publications must yield span trees");
    let backlog = client.stats().expect("stats").snapshot.gauge_total("richnote_backlog") as usize;
    let complete = trees.iter().filter(|t| t.is_complete()).count();
    assert!(
        complete + backlog >= minted.len(),
        "every selected traced publication must assemble completely \
         ({complete} complete of {} minted, {backlog} still queued)",
        minted.len()
    );
    for t in trees.iter().filter(|t| t.is_complete()) {
        assert!(minted.contains(&t.trace), "unknown trace id {:#x}", t.trace);
        assert!(t.stage(SpanStage::Match).is_some(), "daemon-side trees include the match span");
        let d = t
            .stage(SpanStage::Select)
            .and_then(|s| s.decision.as_ref())
            .expect("select span carries the decision");
        assert!((1..=6).contains(&d.level), "chosen level {} out of range", d.level);
        assert!(d.utility.is_finite() && d.gradient.is_finite());
        let bytes = t.stage(SpanStage::Serialize).and_then(|s| s.bytes).expect("bytes");
        assert!(bytes >= 200, "at least the metadata payload");
    }

    // The flight recorder retained trees too, and reads are repeatable.
    let flights = client.flight_dump().expect("flight dump");
    assert_eq!(flights.len(), 2, "one dump per shard");
    let total: usize = flights.iter().map(|f| f.trees.len()).sum();
    assert!(total > 0, "finished trees must reach the flight recorder");
    let again = client.flight_dump().expect("second flight dump");
    assert_eq!(
        again.iter().map(|f| f.trees.len()).sum::<usize>(),
        total,
        "flight reads are non-destructive"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A trace ring holding more events than fit in one wire frame must
/// still drain completely: the server budgets every `TraceDump` response
/// (`TRACE_DUMP_EVENT_BUDGET` events) and the client keeps requesting
/// until a batch comes back empty. Before chunking, an oversized dump
/// blew the `MAX_FRAME_BYTES` cap, killed the connection with the
/// drained events, and the client's retry found only empty rings — a
/// silent total loss at exactly the scales tracing matters most.
#[test]
fn trace_dump_chunks_rings_larger_than_one_frame() {
    let (addr, _metrics, handle) = spawn_observable(262_144);
    let mut client = Client::builder(addr).connect().expect("connect");

    let users = 500u64;
    let per_user = 16u64;
    for u in 0..users {
        let user = UserId::new(u);
        client.subscribe(user, Topic::FriendFeed(user)).expect("subscribe");
    }
    // Every publish lands three spans in the server-side ring alone
    // (publish, match, ack), so 8,000 traced publications overflow the
    // single-response budget.
    let minted = users * per_user;
    for n in 0..minted {
        let user = UserId::new(n % users);
        let item = item_for(n + 1, user);
        let trace = derive_trace_id(11, n, n + 1);
        client.publish_traced(Topic::FriendFeed(user), item, Some(trace)).expect("publish");
    }
    client.sync().expect("sync");
    client.tick(2).expect("tick");

    let (spans, dropped) = client.trace_dump().expect("trace dump");
    assert_eq!(dropped, 0, "the rings were sized for the workload");
    assert!(
        spans.len() > TRACE_DUMP_EVENT_BUDGET,
        "the workload must overflow one response ({} spans <= {TRACE_DUMP_EVENT_BUDGET})",
        spans.len()
    );
    let publishes = spans.iter().filter(|s| s.stage == SpanStage::Publish).count() as u64;
    assert_eq!(publishes, minted, "no chunk boundary may lose a publish span");
    // Chunked draining is still a drain: nothing is replayed afterwards.
    let (again, _) = client.trace_dump().expect("second dump");
    assert!(again.is_empty(), "drained chunks must not be replayed ({} spans)", again.len());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn scrape_endpoint_serves_prometheus_text() {
    let (addr, metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    let response = scrape(metrics, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "unexpected status line in {head:?}");
    assert!(head.contains("text/plain"), "exposition must be text/plain");

    for name in
        ["richnote_pubs_total", "richnote_round_duration_us", "richnote_queue_dropped_total"]
    {
        assert!(body.contains(&format!("# TYPE {name}")), "missing TYPE line for {name}");
        assert!(
            body.lines().any(|l| l.starts_with(name) && !l.starts_with('#')),
            "missing sample line for {name}"
        );
    }
    // Every sample line is `name{labels} value` with a parseable value.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let value = line.rsplit(' ').next().expect("a value field");
        assert!(value.parse::<f64>().is_ok(), "malformed sample line: {line:?}");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn stats_carries_build_identity_and_uptime() {
    let (addr, _metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    let reply = client.stats().expect("stats");
    assert_eq!(reply.build.version, env!("CARGO_PKG_VERSION"));
    assert!(!reply.build.git_sha.is_empty(), "git sha (or the `unknown` fallback) must be set");
    assert!(
        reply.build.profile == "debug" || reply.build.profile == "release",
        "unexpected profile {:?}",
        reply.build.profile
    );
    // Uptime is sampled server-side; it only needs to be sane, not exact.
    assert!(reply.uptime_secs < 3_600, "a fresh test server cannot be an hour old");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn health_reports_ok_over_the_four_stock_rules_when_nothing_is_wrong() {
    let (addr, _metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    let report = client.health().expect("health");
    assert_eq!(report.status, HealthStatus::Ok, "a tiny healthy workload is ok: {report:?}");
    assert_eq!(report.alerts_firing, 0);
    assert_eq!(report.shards_alive, 2);
    assert_eq!(report.shards_total, 2);
    let alerts = client.alerts().expect("alerts");
    let rules: Vec<&str> = alerts.alerts.iter().map(|a| a.rule.as_str()).collect();
    assert_eq!(rules, ["shed_rate", "ack_p99", "queue_contention", "round_p99"]);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The acceptance-critical path: `/healthz` answers a JSON verdict, and
/// killing a shard worker (injected fault) flips it from `ok` to
/// `degraded` with the shard-liveness counts telling the story.
#[test]
fn healthz_flips_to_degraded_when_a_shard_dies() {
    let faults = FaultPlan {
        shard_panic: Some(ShardPanicFault { shard: 1, round: 1 }),
        ..FaultPlan::none()
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .metrics_addr("127.0.0.1:0")
        .faults(faults)
        .build()
        .expect("config");
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics_local_addr().expect("metrics listener bound");
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("connect");

    // Both shards alive: the verdict is ok and the status line says 200.
    let response = scrape(metrics, "/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "unexpected status line in {head:?}");
    assert!(head.contains("application/json"), "healthz must answer JSON");
    assert!(body.contains("\"status\":\"ok\""), "healthy verdict expected in {body}");
    assert!(body.contains("\"shards_alive\":2"), "both shards alive in {body}");

    // Round 0 is fine; the worker dies entering round 1.
    client.tick(1).expect("round 0");
    let _ = client.tick(1);

    let response = scrape(metrics, "/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "degraded is still serving: {head:?}");
    assert!(body.contains("\"status\":\"degraded\""), "expected a degraded verdict in {body}");
    assert!(body.contains("\"shards_alive\":1"), "one shard left in {body}");

    // The wire-level Health request agrees with the HTTP endpoint.
    let report = client.health().expect("health");
    assert_eq!(report.status, HealthStatus::Degraded);
    assert_eq!(report.shards_alive, 1);
    assert_eq!(report.shards_total, 2);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn scrape_exports_cost_and_alert_families() {
    let (addr, metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    let response = scrape(metrics, "/metrics");
    let (_, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    for name in [
        "richnote_cpu_us_total",
        "richnote_round_cpu_us",
        "richnote_allocs_total",
        "richnote_alloc_bytes_total",
        "richnote_queue_contended_total",
        "richnote_registry_contended_total",
        "richnote_alert_state",
        "richnote_build_info",
        "richnote_uptime_secs",
    ] {
        assert!(body.contains(&format!("# TYPE {name}")), "missing TYPE line for {name}");
    }
    assert!(body.contains("richnote_alert_state{rule=\"round_p99\"}"), "round_p99 state in {body}");
    // Real rounds ran on a real clock: the shards spent measurable CPU.
    let cpu: f64 = body
        .lines()
        .filter(|l| l.starts_with("richnote_cpu_us_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    assert!(cpu > 0.0, "per-thread CPU accounting must have sampled something");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

#[test]
fn scrape_listener_survives_rude_peers() {
    let (addr, metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    // A peer that connects and hangs up without sending a request must
    // not wedge the accept loop.
    drop(TcpStream::connect(metrics).expect("silent peer"));
    let response = scrape(metrics, "/metrics");
    assert!(response.contains("richnote_pubs_total"), "listener must keep serving after a hangup");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The analytics acceptance path: a fresh consumer computes per-policy
/// utility-per-MB from one wire query (no client-side scrape diffing),
/// and `curl /query` gets the same series as JSON.
#[test]
fn query_serves_utility_per_mb_on_first_attach() {
    let (addr, metrics, handle) = spawn_observable(0);
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);

    // One Query on a fresh connection: the server-side history (seeded
    // with a t=0 baseline, sampled at every tick boundary) must already
    // hold a window with real deltas.
    let labels = vec![("policy".to_string(), "RichNote".to_string())];
    let utility = client
        .query(HistoryQuery {
            family: "richnote_utility_total".to_string(),
            labels: labels.clone(),
            window_secs: f64::MAX,
        })
        .expect("utility query");
    assert!(utility.samples >= 2, "t=0 baseline plus at least one tick sample");
    assert!(!utility.series.is_empty(), "delivered utility must produce cohort series");
    assert!(utility.total.last > 0.0, "cumulative utility must be positive");
    for s in &utility.series {
        assert!(
            s.labels.iter().any(|(k, v)| k == "policy" && v == "RichNote"),
            "label filter must hold on every series"
        );
    }

    let bytes = client
        .query(HistoryQuery {
            family: "richnote_delivered_bytes_total".to_string(),
            labels,
            window_secs: f64::MAX,
        })
        .expect("bytes query");
    assert!(bytes.total.delta > 0.0, "deliveries must have spent bytes");
    let per_mb = utility.total.delta / (bytes.total.delta / 1e6);
    assert!(per_mb.is_finite() && per_mb > 0.0, "utility-per-MB must be computable: {per_mb}");

    // The same series over HTTP, exactly as the CI smoke step curls it.
    let response =
        scrape(metrics, "/query?family=richnote_delivered_bytes_total&window=1000000000");
    let (head, body) = response.split_once("\r\n\r\n").expect("http response");
    assert!(head.contains("200 OK"), "query must succeed: {head}");
    assert!(head.contains("application/json"), "query must answer JSON");
    let parsed: richnote_server::QueryResult = serde_json::from_str(body).expect("valid JSON");
    assert_eq!(parsed.family, "richnote_delivered_bytes_total");
    assert!(!parsed.series.is_empty(), "HTTP query must see the same series");
    assert!((parsed.total.last - bytes.total.last).abs() < 1e-6, "wire and HTTP must agree");

    // Malformed requests fail loudly, not with an empty 200.
    let bad = scrape(metrics, "/query?window=60");
    assert!(bad.contains("400 Bad Request"), "missing family must be rejected: {bad}");
    let bad = scrape(metrics, "/query?family=richnote_pubs_total&windw=60");
    assert!(bad.contains("400 Bad Request"), "unknown parameters must be rejected: {bad}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The metrics listener adapts the wire's read path rather than
/// reimplementing it: with no tick in between, each HTTP path serves the
/// body a wire client gets for the same view.
#[test]
fn http_paths_serve_what_observe_answers() {
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .metrics_addr("127.0.0.1:0")
        .build()
        .expect("config");
    let server = Server::bind(cfg).expect("bind");
    let (addr, metrics) = (server.local_addr(), server.metrics_local_addr().expect("listener"));
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("connect");
    warm_up(&mut client);
    let body_of = |path: &str| {
        let response = scrape(metrics, path);
        let (head, body) = response.split_once("\r\n\r\n").expect("http response");
        assert!(head.contains("200 OK"), "{path}: {head}");
        body.to_string()
    };

    let wire = client.health().expect("health");
    let body = body_of("/healthz");
    let mut http: richnote_server::HealthReport = serde_json::from_str(&body).expect("health JSON");
    assert_eq!(body, serde_json::to_string(&http).unwrap(), "the body is the report's own JSON");
    http.uptime_secs = wire.uptime_secs; // whole seconds; may roll over between the two
    assert_eq!(http, wire);

    let wire = client.alerts().expect("alerts");
    assert_eq!(body_of("/alerts"), serde_json::to_string(&wire).unwrap());

    let wire = client
        .query(HistoryQuery {
            family: "richnote_selected_total".to_string(),
            labels: vec![("shard".to_string(), "1".to_string())],
            window_secs: 7_200.0,
        })
        .expect("query");
    assert!(!wire.series.is_empty(), "the window must hold shard 1's series");
    assert_eq!(
        body_of("/query?family=richnote_selected_total&labels=shard=1&window=7200"),
        serde_json::to_string(&wire).unwrap()
    );

    // Uptime and each shard's CPU counter are re-read at every `Stats`
    // cut: the one honest difference between two cuts.
    let wire = richnote_obs::encode_text(&client.stats().expect("stats").snapshot);
    let sans_clocks = |text: &str| {
        text.lines()
            .filter(|l| {
                !l.starts_with("richnote_uptime_secs") && !l.starts_with("richnote_cpu_us_total")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(sans_clocks(&body_of("/metrics")), sans_clocks(&wire));

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Families whose values follow the wall clock, thread timing or the
/// build rather than the publication stream, so the pin below leaves them
/// out: uptime, CPU, allocations, contention, the `_us` histograms (every
/// family whose name ends in `_us`), how many cumulative acks a pipelined
/// burst took, and the build identity (git sha and profile).
const UNPINNED: [&str; 8] = [
    "richnote_uptime_secs",
    "richnote_cpu_us_total",
    "richnote_allocs_total",
    "richnote_alloc_bytes_total",
    "richnote_queue_contended_total",
    "richnote_registry_contended_total",
    "richnote_ack_batches_total",
    "richnote_build_info",
];

/// The family an exposition line belongs to: the name a `# HELP`/`# TYPE`
/// line describes, or a sample's name with a `_us` histogram's
/// `_bucket`/`_sum`/`_count` suffix removed.
fn family_of(line: &str) -> &str {
    let name = match line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE ")) {
        Some(rest) => rest.split(' ').next().unwrap_or(rest),
        None => line.split(['{', ' ']).next().unwrap_or(line),
    };
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| name.strip_suffix(suffix))
        .filter(|family| family.ends_with("_us"))
        .unwrap_or(name)
}

fn pinned(line: &str) -> bool {
    let family = family_of(line);
    !family.ends_with("_us") && !UNPINNED.contains(&family)
}

/// Every series of `family` as `labels → value`, a gauge's value by its
/// `to_bits()`, so a comparison is bit for bit.
fn series_bits(snap: &richnote_obs::RegistrySnapshot, family: &str) -> Vec<(String, u64)> {
    let Some(fam) = snap.family(family) else { return Vec::new() };
    fam.series
        .iter()
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let value = match &s.value {
                richnote_obs::MetricValue::Counter(c) => *c,
                richnote_obs::MetricValue::Gauge(g) => g.to_bits(),
                richnote_obs::MetricValue::Histogram(h) => h.count(),
            };
            (labels.join(","), value)
        })
        .collect()
}

/// The numbers the metrics plane exports for a seeded 2-shard run that
/// crosses a checkpoint restart, pinned exactly: the lifetime counters
/// (restored from the checkpoint), the level mix and quality cohorts
/// (counted afresh by the new process), the alert state a hair-trigger
/// rule reaches, and the whole `/metrics` text bar the [`UNPINNED`]
/// families.
#[test]
fn exported_numbers_are_pinned_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("rn-obs-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let hair_trigger = richnote_server::AlertRule {
        name: "pubs_seen".to_string(),
        kind: richnote_server::AlertRuleKind::Threshold {
            family: "richnote_pubs_total".to_string(),
            labels: Vec::new(),
            quantile: None,
            window_secs: 60.0,
            above: 0.0,
        },
        for_secs: 0.0,
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .data_grant(1_000)
        .metrics_addr("127.0.0.1:0")
        .checkpoint_dir(dir.to_str().unwrap())
        .alert_rules(vec![hair_trigger])
        .build()
        .expect("config");
    let items = TraceGenerator::new(TraceConfig::small(23)).generate().items;
    let (first, second) = items.split_at(items.len() / 2);
    let publish = |client: &mut Client, batch: &[ContentItem], rounds: u32| {
        for item in batch {
            let topic = Topic::FriendFeed(item.recipient);
            client.subscribe(item.recipient, topic).expect("subscribe");
            client.publish(topic, item.clone()).expect("publish");
        }
        client.sync().expect("sync");
        client.tick(rounds).expect("tick");
    };

    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    publish(&mut client, first, 2);
    client.checkpoint().expect("checkpoint");
    client.shutdown().expect("stop");
    handle.join().expect("server thread");

    let server = Server::bind(cfg).expect("restart");
    assert!(server.restored().is_some(), "the restart restores the checkpoint");
    let (addr, metrics) = (server.local_addr(), server.metrics_local_addr().expect("listener"));
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("reconnect");
    client.tick(100).expect("idle rounds");
    publish(&mut client, second, 1);
    let snap = client.stats().expect("stats").snapshot;
    let response = scrape(metrics, "/metrics");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);

    let (_, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    let text: String = body.lines().filter(|l| pinned(l)).map(|l| format!("{l}\n")).collect();
    let per_shard = |shard0: u64, shard1: u64| {
        vec![("shard=0".to_string(), shard0), ("shard=1".to_string(), shard1)]
    };
    assert_eq!(series_bits(&snap, "richnote_pubs_total"), per_shard(353, 520));
    assert_eq!(series_bits(&snap, "richnote_selected_total"), per_shard(353, 520));
    assert_eq!(series_bits(&snap, "richnote_rounds_total"), per_shard(103, 103));
    assert_eq!(series_bits(&snap, "richnote_bytes_spent_total"), per_shard(2_370_600, 1_604_000));
    assert_eq!(
        series_bits(&snap, "richnote_bytes_budgeted_total"),
        per_shard(2_988_000, 2_783_000)
    );
    let levels: Vec<(String, u64)> = [(0, [0, 158, 23, 0, 0, 0, 0]), (1, [0, 333, 15, 0, 0, 0, 0])]
        .into_iter()
        .flat_map(|(shard, counts)| {
            counts
                .into_iter()
                .enumerate()
                .map(move |(level, n)| (format!("shard={shard},level={level}"), n))
        })
        .collect();
    assert_eq!(series_bits(&snap, "richnote_level_total"), levels);
    assert_eq!(
        series_bits(&snap, "richnote_alert_state"),
        [("rule=pubs_seen".to_string(), 2.0f64.to_bits())],
        "the hair-trigger rule is firing"
    );
    let cell = |level: u8, shard: u8, value: u64| {
        (format!("connectivity=unknown,level={level},policy=RichNote,shard={shard}"), value)
    };
    assert_eq!(
        series_bits(&snap, "richnote_utility_total"),
        [
            cell(1, 0, 4_609_794_506_583_892_301),
            cell(1, 1, 4_614_680_912_179_589_223),
            cell(2, 0, 4_617_936_264_653_946_661),
            cell(2, 1, 4_615_334_913_878_137_529),
        ]
    );
    assert_eq!(
        series_bits(&snap, "richnote_delivered_bytes_total"),
        [cell(1, 0, 31_600), cell(1, 1, 66_600), cell(2, 0, 2_304_600), cell(2, 1, 1_503_000)]
    );
    assert_eq!(
        series_bits(&snap, "richnote_suppressed_total"),
        [
            ("connectivity=unknown,policy=RichNote,shard=0".to_string(), 2),
            ("connectivity=unknown,policy=RichNote,shard=1".to_string(), 76),
        ]
    );
    assert_eq!(text, include_str!("golden/pinned_metrics.txt"));
}

/// A `richnote-server` child process, killed and reaped when dropped, so
/// a failed assertion leaves no daemon behind.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The release binary as an operator runs it, scraped before any traffic:
/// every core family (cost accounting included) is served from the start,
/// every sample line is well formed, the stock `round_p99` rule exports
/// its state, and a fresh daemon's `/healthz` is `ok`.
#[test]
fn a_fresh_daemon_binary_serves_well_formed_metrics_and_health() {
    use std::io::BufRead;
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_richnote-server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "2", "--metrics-addr", "127.0.0.1:0"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn richnote-server");
    let mut daemon = Daemon(child);
    let mut stderr = std::io::BufReader::new(daemon.0.stderr.take().expect("piped stderr"));
    let mut seen = String::new();
    let metrics: std::net::SocketAddr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("read daemon stderr");
        assert!(n > 0, "daemon exited before announcing its metrics address:\n{seen}");
        if let Some(rest) = line.trim().split("metrics exposition on http://").nth(1) {
            break rest.trim_end_matches("/metrics").parse().expect("metrics address");
        }
        seen.push_str(&line);
    };

    let response = scrape(metrics, "/metrics");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "unexpected status line in {head:?}");
    for family in [
        "richnote_round_duration_us",
        "richnote_pubs_total",
        "richnote_queue_dropped_total",
        "richnote_cpu_us_total",
        "richnote_allocs_total",
    ] {
        assert!(
            body.lines().any(|l| l.starts_with(&format!("# TYPE {family} "))),
            "missing TYPE line for {family}"
        );
        assert!(body.lines().any(|l| l.starts_with(family)), "missing sample line for {family}");
    }
    // Every non-comment line is `name{labels} value` with a finite value.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert!(
            fields.len() == 2 && fields[1].parse::<f64>().is_ok_and(f64::is_finite),
            "malformed: {line:?}"
        );
    }
    assert!(
        body.contains("richnote_alert_state{rule=\"round_p99\"}"),
        "missing richnote_alert_state for round_p99"
    );

    let response = scrape(metrics, "/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "/healthz answered {head:?}");
    assert!(body.contains("\"status\":\"ok\""), "fresh daemon not ok: {body}");
    assert!(!body.contains("\"slos\""), "/healthz still carries slos: {body}");
}
