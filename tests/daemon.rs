//! The delivery daemon through the facade, once per policy: a
//! [`richnote::Server`] configured with each [`PolicyName`] takes
//! subscriptions and publications from a [`richnote::Client`], selects
//! under that policy, checkpoints, and comes back from the checkpoint
//! under the same policy where it left off. A hostile frame draws a typed
//! error and leaves the daemon serving.

use richnote::core::{PolicyName, UserId};
use richnote::pubsub::Topic;
use richnote::server::wire::{read_frame, Response};
use richnote::server::{ErrorCode, PROTO_VERSION};
use richnote::trace::generator::{TraceConfig, TraceGenerator};
use richnote::{Client, Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::TcpStream;

#[test]
fn every_policy_serves_checkpoints_and_restarts() {
    for policy in PolicyName::ALL {
        serve_checkpoint_restart(policy);
    }
}

fn serve_checkpoint_restart(policy: PolicyName) {
    let dir = std::env::temp_dir()
        .join(format!("richnote-facade-daemon-{}-{policy}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig::builder()
        .shards(2)
        .policy(policy)
        .checkpoint_dir(dir.to_str().unwrap())
        .build()
        .unwrap();

    let (addr, handle) = Server::spawn(cfg.clone()).expect("spawn");
    let mut client = Client::builder(addr).connect().expect("connect");
    let items = TraceGenerator::new(TraceConfig::small(11)).generate().items;
    let users: BTreeSet<UserId> = items.iter().map(|i| i.recipient).collect();
    for &user in &users {
        client.subscribe(user, Topic::FriendFeed(user)).unwrap();
    }
    for item in &items {
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
    }
    client.sync().unwrap();

    let (_, deliveries) = client.tick_report(1).unwrap();
    assert!(!deliveries.is_empty(), "{policy}: a round over a fresh backlog selects");
    assert!(deliveries.iter().all(|d| d.round == 0 && d.level >= 1 && users.contains(&d.user)));
    let stats = client.stats().unwrap().snapshot;
    assert_eq!(stats.counter_total("richnote_pubs_total"), items.len() as u64);
    assert_eq!(stats.counter_total("richnote_selected_total"), deliveries.len() as u64);
    // The quality families are labelled by the policy that selected.
    let utility = stats.family("richnote_utility_total").expect("deliveries accrue utility");
    let label = ("policy".to_string(), policy.display_name().to_string());
    assert!(utility.series.iter().all(|s| s.labels.contains(&label)), "{policy}: {utility:?}");

    let (checkpointed_users, round) = client.checkpoint().unwrap();
    assert_eq!((checkpointed_users, round), (users.len() as u64, 1));
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Same directory, same policy: the daemon resumes at round 1 with
    // every user's scheduler and the lifetime counters back.
    let (addr, handle) = Server::spawn(cfg).expect("same-policy restart");
    let mut client = Client::builder(addr).connect().expect("reconnect");
    let stats = client.stats().unwrap().snapshot;
    assert_eq!(stats.gauge_total("richnote_restored_users"), users.len() as f64);
    assert_eq!(stats.counter_total("richnote_pubs_total"), items.len() as u64);
    assert_eq!(stats.gauge_total("richnote_backlog"), (items.len() - deliveries.len()) as f64);
    let (_, more) = client.tick_report(1).unwrap();
    assert!(more.iter().all(|d| d.round == 1), "{policy}: {more:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// 100 000 nested `[` sent before `Hello` used to recurse the JSON parser
/// off the end of the connection thread's stack and abort the whole
/// daemon. It must draw `BadFrame` and leave the daemon serving.
#[test]
fn deeply_nested_frame_is_a_bad_frame_not_a_crash() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(1).build().unwrap();
    let (addr, handle) = Server::spawn(cfg).expect("spawn");

    let mut stream = TcpStream::connect(addr).expect("raw connect");
    let payload = vec![b'['; 100_000];
    stream.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    stream.write_all(&[PROTO_VERSION as u8]).unwrap();
    stream.write_all(&payload).unwrap();
    match read_frame::<_, Response>(&mut BufReader::new(stream)).expect("response") {
        Some(Response::Error { code: ErrorCode::BadFrame, .. }) => {}
        other => panic!("expected a BadFrame rejection, got {other:?}"),
    }

    let items = TraceGenerator::new(TraceConfig::small(11)).generate().items;
    let item = items[0].clone();
    let user = item.recipient;
    let mut client = Client::builder(addr).connect().expect("the daemon still serves");
    client.subscribe(user, Topic::FriendFeed(user)).unwrap();
    client.publish(Topic::FriendFeed(user), item).unwrap();
    client.sync().unwrap();
    let (_, deliveries) = client.tick_report(1).unwrap();
    assert_eq!(deliveries.len(), 1, "{deliveries:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}
