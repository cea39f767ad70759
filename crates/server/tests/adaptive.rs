//! The adaptive policy behind the daemon: shards spawned under
//! `--policy adaptive` must select, export the `richnote_adaptive_*`
//! metric families, round-trip their scheduler state (EWMA estimators
//! included) through checkpoints, and refuse to restore a checkpoint
//! written by a different policy.

use richnote_core::UserId;
use richnote_pubsub::Topic;
use richnote_server::{Client, PolicyName, Server, ServerConfig, ShardState};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::collections::BTreeSet;
use std::time::Instant;

fn adaptive_cfg() -> ServerConfig {
    ServerConfig::builder().policy(PolicyName::Adaptive).build().unwrap()
}

/// One ShardState driven directly: ingest a trace, run rounds, then
/// checkpoint and restore under the same policy. The restored shard must
/// select exactly what the original would have — which only holds if the
/// adaptive state (EWMA estimate, last observed network state) survived
/// the round-trip.
#[test]
fn adaptive_shard_checkpoint_roundtrips_estimator_state() {
    let cfg = adaptive_cfg();
    let items = TraceGenerator::new(TraceConfig::small(5)).generate().items;

    let mut state = ShardState::new(0, cfg.clone());
    for item in &items {
        state.ingest(item.recipient, item.clone(), Instant::now(), None);
    }
    for _ in 0..4 {
        state.run_round();
    }

    let ck = state.checkpoint();
    let mut restored = ShardState::restore(0, cfg, ck).unwrap();

    // Both shards now run the same future: identical selections prove the
    // full policy state (not just the queues) was checkpointed.
    for _ in 0..4 {
        let a = state.run_round();
        let b = restored.run_round();
        assert_eq!(a, b, "restored adaptive shard diverged");
    }
}

#[test]
fn adaptive_checkpoint_rejected_by_other_policies() {
    let cfg = adaptive_cfg();
    let items = TraceGenerator::new(TraceConfig::small(5)).generate().items;
    let mut state = ShardState::new(0, cfg.clone());
    for item in &items {
        state.ingest(item.recipient, item.clone(), Instant::now(), None);
    }
    state.run_round();
    let ck = state.checkpoint();

    // The checkpoint would revive as what it is, so the shard's name guard
    // must catch the mismatch with what the configuration builds.
    for other in [PolicyName::RichNote, PolicyName::Fifo, PolicyName::Util] {
        let err = ShardState::restore(0, ServerConfig { policy: other, ..cfg.clone() }, ck.clone())
            .err()
            .expect("adaptive checkpoint must not restore under another policy");
        assert!(format!("{err}").contains("policy"), "unhelpful error: {err}");
    }
}

/// A restarted daemon pointed at a checkpoint written under one policy
/// but configured for another must refuse at startup — before any shard
/// worker spawns — with an error naming the writer. A mismatch caught
/// inside a worker thread would leave a half-alive daemon instead.
#[test]
fn server_spawn_rejects_cross_policy_checkpoint_at_startup() {
    for (i, &written) in PolicyName::ALL.iter().enumerate() {
        let configured = PolicyName::ALL[(i + 1) % PolicyName::ALL.len()];
        cross_policy_restart(written, configured);
    }
}

fn cross_policy_restart(written: PolicyName, configured: PolicyName) {
    let dir = std::env::temp_dir().join(format!(
        "richnote-xpolicy-{}-{}",
        std::process::id(),
        written.as_str()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg_for = |policy| {
        ServerConfig::builder()
            .policy(policy)
            .checkpoint_dir(dir.to_str().unwrap())
            .build()
            .unwrap()
    };

    let (addr, handle) = Server::spawn(cfg_for(written)).expect("spawn server");
    let mut client = Client::builder(addr).connect().expect("connect");
    let items = TraceGenerator::new(TraceConfig::small(3)).generate().items;
    for item in &items {
        client.subscribe(item.recipient, Topic::FriendFeed(item.recipient)).unwrap();
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
    }
    client.sync().unwrap();
    client.tick(2).unwrap();
    client.checkpoint().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Same dir, wrong policy: clean typed error, no server.
    let err =
        Server::spawn(cfg_for(configured)).expect_err("cross-policy restore must fail at startup");
    let msg = format!("{err}");
    assert!(
        msg.contains(written.display_name()) && msg.contains("policy"),
        "{written} restored under {configured} must name the mismatch: {msg}"
    );

    // Same dir, right policy: restores fine.
    let (addr, handle) = Server::spawn(cfg_for(written)).expect("same-policy restore");
    let mut client = Client::builder(addr).connect().expect("reconnect");
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_daemon_selects_and_exports_adaptive_metrics() {
    let cfg = ServerConfig { shards: 2, ..adaptive_cfg() };
    let (addr, handle) = Server::spawn(cfg).expect("spawn adaptive server");
    let mut client = Client::builder(addr).connect().expect("connect");

    let items = TraceGenerator::new(TraceConfig::small(7)).generate().items;
    let users: BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).unwrap();
    }
    for item in &items {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
    }
    client.sync().unwrap();

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
    assert!(selected_total > 0, "adaptive daemon never selected");

    let stats = client.stats().unwrap();
    let adapt_rounds = stats.snapshot.counter_total("richnote_adaptive_rounds_total");
    assert!(adapt_rounds > 0, "adaptive decisions must be counted");
    assert!(
        stats.snapshot.counter_total("richnote_adaptive_grant_bytes_total") > 0,
        "shaped grants must accumulate"
    );
    // Without NetSignal observations the policy falls back to the
    // stationary distribution, which caps the ladder — every decision
    // counts as capped.
    assert_eq!(stats.snapshot.counter_total("richnote_adaptive_capped_total"), adapt_rounds);

    client.shutdown().unwrap();
    handle.join().unwrap();
}
