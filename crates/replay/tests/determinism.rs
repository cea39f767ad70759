//! End-to-end replay determinism: the acceptance gate for the
//! record/replay subsystem.
//!
//! * A freshly recorded seeded run, replayed twice into two fresh
//!   daemons, yields byte-identical canonical snapshots.
//! * The committed golden capture replays to exactly the committed
//!   golden snapshot (the CI regression gate, run in-process).
//! * A perturbed policy parameter makes the differ report divergence,
//!   naming the diverging span trees.

use richnote_pubsub::Topic;
use richnote_replay::canon::CanonicalSnapshot;
use richnote_replay::{diff::diff, replay_spawned, ReplayOptions};
use richnote_server::{golden_config, record_golden, Client, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_path(tag: &str) -> String {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("richnote-determinism-{}-{seq}-{tag}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn fast() -> ReplayOptions {
    ReplayOptions { as_fast_as_possible: true, ..ReplayOptions::default() }
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

#[test]
fn recorded_run_replays_identically_twice() {
    let capture = temp_path("fresh.rncap");
    let summary = record_golden(&capture, 11, 16, 1).expect("recording the seeded run");
    assert!(summary.pubs > 0, "the workload must publish something");

    let first = replay_spawned(&capture, fast(), |_| {}).expect("first replay");
    let second = replay_spawned(&capture, fast(), |_| {}).expect("second replay");
    assert_eq!(first.fed, second.fed);
    assert_eq!(
        first.snapshot.to_json(),
        second.snapshot.to_json(),
        "two replays of one capture must canonicalize byte-identically"
    );
    assert!(!first.snapshot.trees.is_empty(), "a traced golden run must produce span trees");
    let _ = std::fs::remove_file(&capture);
}

/// Publishes are pipelined (acked cumulatively), so during recording a
/// frame from one connection can still be in flight when another
/// connection's frame is processed — the capture's global order is the
/// server-side interleaving that actually happened. The replayer must
/// reproduce that order exactly even though it feeds several
/// connections, which it does by draining a session before switching
/// away from it. This test interleaves three pipelined publisher
/// sessions with a separate ticker session and requires two replays to
/// agree byte for byte.
#[test]
fn interleaved_multi_session_capture_replays_identically() {
    let capture = temp_path("multi.rncap");
    let cfg = {
        let mut c = golden_config();
        c.record = Some(capture.clone());
        c
    };
    let (addr, handle) = Server::spawn(cfg).expect("spawning the recording daemon");

    let trace = richnote_trace::TraceGenerator::new(richnote_trace::TraceConfig {
        seed: 23,
        n_users: 12,
        days: 1,
        ..richnote_trace::TraceConfig::default()
    })
    .generate();
    let mut publishers: Vec<Client> = (0..3)
        .map(|i| {
            Client::builder(addr).no_retry().session(300 + i).connect().expect("publisher connect")
        })
        .collect();
    let mut ticker =
        Client::builder(addr).no_retry().session(400).connect().expect("ticker connect");
    for item in &trace.items {
        publishers[0].subscribe(item.recipient, Topic::FriendFeed(item.recipient)).unwrap();
    }
    // Round-robin publishes with no sync between sessions: maximally
    // racy on the wire, with ticks cutting across the stripes.
    for (i, item) in trace.items.iter().enumerate() {
        let client = &mut publishers[i % 3];
        client.publish(Topic::FriendFeed(item.recipient), item.clone()).unwrap();
        if i % 40 == 39 {
            ticker.tick(1).unwrap();
        }
    }
    for p in &mut publishers {
        p.sync().unwrap();
    }
    ticker.tick(4).unwrap();
    ticker.shutdown().unwrap();
    handle.join().expect("server thread");

    let first = replay_spawned(&capture, fast(), |_| {}).expect("first replay");
    let second = replay_spawned(&capture, fast(), |_| {}).expect("second replay");
    assert!(first.sessions >= 4, "all recorded sessions replayed, got {}", first.sessions);
    assert_eq!(
        first.snapshot.to_json(),
        second.snapshot.to_json(),
        "a multi-session capture must replay byte-identically"
    );
    let _ = std::fs::remove_file(&capture);
}

/// A capture outlives the protocol version that wrote it. Protocol v2
/// had a request per read-only view, and `loadgen` ended every recorded
/// run with a few of them; such a capture must still replay, its
/// observer frames skipped and counted as they always were, while a
/// state-bearing frame that does not parse stays a hard error.
#[test]
fn observer_frames_of_a_protocol_v2_capture_are_skipped() {
    use richnote_server::wire::Request;
    use richnote_server::{CaptureWriter, ServerError};

    let user = richnote_core::UserId::new(5);
    let subscribe =
        serde_json::to_string(&Request::Subscribe { user, topic: Topic::FriendFeed(user) })
            .unwrap();
    let tick = serde_json::to_string(&Request::Tick { rounds: 1 }).unwrap();
    let v2_observers = [
        r#""Metrics""#,
        r#""Stats""#,
        r#""TraceDump""#,
        r#"{"Query":{"family":"richnote_pubs_total","labels":[],"window_secs":60}}"#,
    ];
    let write = |tag: &str, frames: &[&str]| {
        let path = temp_path(tag);
        let mut writer = CaptureWriter::create(&path, &golden_config()).expect("capture");
        for (i, frame) in frames.iter().enumerate() {
            writer.append(i as u64, 77, frame).expect("append");
        }
        writer.flush().expect("flush");
        path
    };

    let mut frames = vec![subscribe.as_str()];
    frames.extend(v2_observers);
    frames.push(tick.as_str());
    let capture = write("v2.rncap", &frames);
    let outcome = replay_spawned(&capture, fast(), |_| {}).expect("a v2 capture replays");
    assert_eq!((outcome.fed, outcome.skipped), (2, v2_observers.len() as u64));
    let _ = std::fs::remove_file(&capture);

    let capture = write("bad.rncap", &[subscribe.as_str(), r#"{"Tick":{"rounds":"many"}}"#]);
    match replay_spawned(&capture, fast(), |_| {}) {
        Err(ServerError::Capture(e)) => assert!(e.to_string().contains("not a request"), "{e}"),
        other => panic!("a malformed Tick must fail the replay, got {other:?}"),
    }
    let _ = std::fs::remove_file(&capture);
}

#[test]
fn committed_capture_replays_to_the_committed_snapshot() {
    let capture = goldens_dir().join("golden.rncap");
    let golden = goldens_dir().join("golden-snapshot.json");
    let capture = capture.to_string_lossy().into_owned();

    // The committed capture's config header predates two retired
    // `ServerConfig` fields (the metrics switch and the flight recorder's
    // size), so loading it also pins that unknown fields are ignored.
    let outcome = replay_spawned(&capture, fast(), |_| {}).expect("replaying the committed golden");
    let committed = CanonicalSnapshot::from_json(
        &std::fs::read_to_string(&golden).expect("reading the committed snapshot"),
    )
    .expect("parsing the committed snapshot");

    let report = diff(&committed, &outcome.snapshot);
    assert!(
        report.is_match(),
        "replay of the committed capture diverged from the committed golden \
         (regenerate with `loadgen --record-golden` if the change is intentional):\n{}",
        report.render()
    );
    assert_eq!(outcome.snapshot.to_json(), committed.to_json(), "byte-identical round trip");
}

#[test]
fn perturbed_policy_parameter_fails_the_diff_with_named_spans() {
    let capture = goldens_dir().join("golden.rncap").to_string_lossy().into_owned();
    let golden = goldens_dir().join("golden-snapshot.json");
    let committed = CanonicalSnapshot::from_json(
        &std::fs::read_to_string(&golden).expect("reading the committed snapshot"),
    )
    .expect("parsing the committed snapshot");

    // Quarter the per-round data budget: selections must change (fewer
    // or lower-level deliveries), and the differ must say which ones.
    let outcome = replay_spawned(&capture, fast(), |cfg| cfg.data_grant /= 4)
        .expect("replaying under the perturbed config");

    let report = diff(&committed, &outcome.snapshot);
    assert!(!report.is_match(), "a quartered data grant must change selection outcomes");
    let text = report.render();
    assert!(text.contains("trace 0x"), "the report names diverging traces: {text}");
    assert!(
        text.contains("spans diverge") || text.contains("only in"),
        "the report explains each divergence: {text}"
    );
}
