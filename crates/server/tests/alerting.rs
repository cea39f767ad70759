//! End-to-end tests for the self-watching plane: the alert-rule engine
//! evaluated at tick boundaries, the shard stall watchdog, the `Alerts`
//! wire request with its `/alerts` HTTP twin, the `/healthz` folding of
//! both, and the `.rnincident` forensic bundles written at detection.

use richnote_obs::frame::crc32;
use richnote_server::{
    read_incident_file, AlertRule, AlertRuleKind, AlertState, Client, FaultPlan, HealthStatus,
    Server, ServerConfig, ShardPanicFault, WatchdogConfig,
};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// One plain HTTP/1.0 GET against the scrape listener.
fn scrape(metrics: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(metrics).expect("connect scrape listener");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: richnote\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// A fresh, empty scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rn-alerting-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// A rule that fires as soon as any publication lands in the window —
/// the deterministic canary the virtual-time tests key on.
fn pubs_active_rule() -> AlertRule {
    AlertRule {
        name: "pubs_active".to_string(),
        kind: AlertRuleKind::Rate {
            family: "richnote_pubs_total".to_string(),
            labels: Vec::new(),
            window_secs: 60.0,
            per: None,
            above: 0.0,
        },
        for_secs: 0.0,
    }
}

/// Two publish-then-tick batches, so the metrics history holds two
/// samples with publications moving between them (a windowed rate needs
/// a baseline to be nonzero).
fn publish_two_rounds(client: &mut Client) {
    let items = TraceGenerator::new(TraceConfig::small(11)).generate().items;
    let (first, second) = items.split_at(items.len() / 2);
    for batch in [first, second] {
        for item in batch {
            use richnote_pubsub::Topic;
            client.subscribe(item.recipient, Topic::FriendFeed(item.recipient)).expect("subscribe");
            client.publish(Topic::FriendFeed(item.recipient), item.clone()).expect("publish");
        }
        client.sync().expect("sync");
        client.tick(1).expect("tick");
    }
}

#[test]
fn alerts_request_reports_quiet_defaults_and_the_http_route_agrees() {
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .metrics_addr("127.0.0.1:0")
        .build()
        .expect("config");
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics_local_addr().expect("metrics listener");
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("connect");

    let reply = client.alerts().expect("alerts");
    let names: Vec<&str> = reply.alerts.iter().map(|a| a.rule.as_str()).collect();
    assert_eq!(names, ["shed_rate", "ack_p99", "queue_contention", "round_p99"]);
    assert_eq!(reply.firing, 0);
    assert_eq!(reply.pending, 0);
    assert!(reply.timeline.is_empty(), "no transitions on an idle daemon: {:?}", reply.timeline);
    assert!(reply.watchdog.is_empty(), "all shards healthy: {:?}", reply.watchdog);
    assert_eq!(reply.last_incident, None);
    for a in &reply.alerts {
        assert_eq!(a.state, AlertState::Inactive);
    }

    let response = scrape(metrics, "/alerts");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "unexpected status in {head:?}");
    assert!(head.contains("application/json"), "alerts must answer JSON");
    for rule in ["shed_rate", "ack_p99", "queue_contention", "round_p99"] {
        assert!(body.contains(rule), "rule {rule} missing from {body}");
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The virtual-time pin: alert transitions happen at `rounds ×
/// round_secs`, carry the windowed rate as evidence, degrade `/healthz`,
/// write a verifiable incident bundle — and two identical runs produce
/// byte-identical timelines.
#[test]
fn a_firing_alert_is_deterministic_and_writes_a_verifiable_bundle() {
    let run = |tag: &str| -> (String, PathBuf) {
        let dir = scratch_dir(tag);
        let cfg = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .shards(2)
            .metrics_addr("127.0.0.1:0")
            .alert_rules(vec![pubs_active_rule()])
            .incident_dir(dir.display().to_string())
            .build()
            .expect("config");
        let server = Server::bind(cfg).expect("bind");
        let addr = server.local_addr();
        let metrics = server.metrics_local_addr().expect("metrics listener");
        let handle = std::thread::spawn(move || {
            let _ = server.run();
        });
        let mut client = Client::builder(addr).connect().expect("connect");
        publish_two_rounds(&mut client);

        let reply = client.alerts().expect("alerts");
        assert_eq!(reply.firing, 1, "pubs_active must fire: {:?}", reply.alerts);
        let fired: Vec<_> = reply.timeline.iter().filter(|e| e.to == AlertState::Firing).collect();
        assert_eq!(fired.len(), 1, "exactly one firing transition: {:?}", reply.timeline);
        // Virtual time: the transition lands exactly on a tick boundary
        // (round 1 of 3600 s rounds — the startup baseline sample gives
        // the window its zero point), never on a wallclock instant.
        assert_eq!(fired[0].at_secs, 3_600.0, "transition off the round clock");
        assert!(fired[0].value.unwrap_or(0.0) > 0.0, "evidence value missing");

        // A firing alert degrades health without taking the daemon out
        // of rotation: /healthz stays 200.
        let report = client.health().expect("health");
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.alerts_firing, 1);
        let response = scrape(metrics, "/healthz");
        let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "degraded still serves: {head:?}");
        assert!(body.contains("\"alerts_firing\":1"), "fold missing from {body}");

        let incident = reply.last_incident.clone().expect("incident path recorded");
        assert!(incident.contains("alert-pubs_active"), "unexpected name {incident}");
        let timeline = serde_json::to_string(&reply.timeline).expect("serialize timeline");
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");
        (timeline, PathBuf::from(incident))
    };

    let (timeline_a, bundle_a) = run("det-a");
    let (timeline_b, _) = run("det-b");
    assert_eq!(timeline_a, timeline_b, "same workload, same seed, different timelines");

    // The bundle survives its writer and verifies end to end.
    let bundle = read_incident_file(&bundle_a).expect("read bundle");
    assert_eq!(bundle.meta.trigger, "alert:pubs_active");
    assert!(bundle.meta.reason.contains("pubs_active"), "reason: {}", bundle.meta.reason);
    for section in ["config", "registry", "alerts", "watchdog", "history", "flights"] {
        assert!(bundle.section(section).is_some(), "bundle missing section {section}");
    }
    assert!(bundle.section("slos").is_none(), "the retired slos section is gone");

    // The offline reader agrees: verification passes (exit 0), and a
    // tampered copy is rejected (exit 2) even with its CRC re-stamped.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_richnote-incident"))
        .args(["print", &bundle_a.display().to_string()])
        .output()
        .expect("run richnote-incident");
    assert!(out.status.success(), "print failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("alert:pubs_active"), "trigger missing from output: {text}");

    let tampered = bundle_a.with_extension("tampered.rnincident");
    let mut blob = std::fs::read(&bundle_a).expect("read bundle bytes");
    let magic = richnote_server::INCIDENT_MAGIC.len();
    let len = u32::from_le_bytes(blob[magic..magic + 4].try_into().unwrap()) as usize;
    let body = magic + 8;
    blob[body + len / 2] ^= 0x01;
    let fixed = crc32(&blob[body..body + len]);
    blob[magic + 4..magic + 8].copy_from_slice(&fixed.to_le_bytes());
    std::fs::write(&tampered, &blob).expect("write tampered copy");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_richnote-incident"))
        .args(["print", &tampered.display().to_string()])
        .output()
        .expect("run richnote-incident");
    assert_eq!(out.status.code(), Some(2), "tampered bundle must be rejected");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("chain mismatch"),
        "expected the seal to catch it: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(bundle_a.parent().unwrap());
}

/// The watchdog pin: a shard that dies mid-run reads `degraded`
/// immediately (shard liveness), then escalates to `violating` once it
/// has been wedged past the stall budget — and the trip itself writes a
/// readable forensic bundle.
#[test]
fn a_wedged_shard_escalates_healthz_to_violating_after_the_stall_budget() {
    let dir = scratch_dir("wedged");
    let faults = FaultPlan {
        shard_panic: Some(ShardPanicFault { shard: 1, round: 1 }),
        ..FaultPlan::none()
    };
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .metrics_addr("127.0.0.1:0")
        .faults(faults)
        .watchdog(WatchdogConfig { stall_secs: 0.2, ..WatchdogConfig::default() })
        .incident_dir(dir.display().to_string())
        .build()
        .expect("config");
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics_local_addr().expect("metrics listener");
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut client = Client::builder(addr).connect().expect("connect");

    let response = scrape(metrics, "/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "healthy start: {head:?}");
    assert!(body.contains("\"status\":\"ok\""), "healthy verdict expected in {body}");

    // Round 0 is fine; the worker panics entering round 1.
    client.tick(1).expect("round 0");
    let _ = client.tick(1);

    // Give the wedge time to outlive the (tiny) stall budget, then the
    // watchdog escalates: 503, violating, and a verdict naming the shard.
    std::thread::sleep(Duration::from_millis(400));
    let response = scrape(metrics, "/healthz");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body split");
    assert!(head.starts_with("HTTP/1.0 503"), "a wedged shard is a violation: {head:?}");
    assert!(body.contains("\"status\":\"violating\""), "expected violating in {body}");
    assert!(body.contains("\"wedged\""), "verdict missing from {body}");

    let reply = client.alerts().expect("alerts");
    assert_eq!(reply.watchdog.len(), 1, "one shard in trouble: {:?}", reply.watchdog);
    assert_eq!(reply.watchdog[0].shard, 1);
    assert_eq!(reply.watchdog[0].problem, "wedged");
    let incident = reply.last_incident.clone().expect("watchdog trip writes a bundle");
    let bundle = read_incident_file(PathBuf::from(&incident).as_path()).expect("read bundle");
    assert_eq!(bundle.meta.trigger, "watchdog:shard-1:wedged");
    assert!(bundle.meta.reason.contains("shard 1 wedged"), "reason: {}", bundle.meta.reason);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watchdog bundle is stamped in virtual time, like an alert bundle:
/// shard 1 dies entering its first round, while shard 0 completes it, so
/// the bundle the failed tick writes reads one default 3600 s round.
#[test]
fn a_watchdog_bundle_is_stamped_on_the_round_clock() {
    let dir = scratch_dir("wedged-clock");
    let cfg = ServerConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .faults(FaultPlan {
            shard_panic: Some(ShardPanicFault { shard: 1, round: 0 }),
            ..FaultPlan::none()
        })
        .incident_dir(dir.display().to_string())
        .build()
        .expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    assert!(client.tick(1).is_err(), "the injected panic fails the tick");

    let reply = client.alerts().expect("alerts");
    let incident = reply.last_incident.expect("the failed tick wrote a bundle");
    let bundle = read_incident_file(PathBuf::from(&incident).as_path()).expect("read bundle");
    assert_eq!(bundle.meta.trigger, "watchdog:shard-1:wedged");
    assert_eq!(bundle.meta.at_secs, 3_600.0, "virtual time, not uptime");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
