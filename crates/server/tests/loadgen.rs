//! The `loadgen` binary against a daemon that has already served traffic.
//!
//! The daemon's counters are lifetime totals. loadgen's zero-acked-loss
//! check must account for its own run only, so a second run against the
//! same daemon passes too. Its `--shutdown` must still stop the daemon.

use richnote_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

fn loadgen(addr: SocketAddr, extra: &[&str]) {
    let addr = addr.to_string();
    let mut args = vec!["--addr", &addr, "--users", "50", "--days", "1", "--connections", "1"];
    args.extend_from_slice(extra);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(&args)
        .output()
        .expect("run loadgen");
    assert!(
        out.status.success(),
        "loadgen {extra:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero loss"));
}

#[test]
fn a_second_loadgen_run_against_one_daemon_accounts_only_its_own_publications() {
    let cfg = ServerConfig::builder().addr("127.0.0.1:0").shards(2).build().expect("config");
    let (addr, handle) = Server::spawn(cfg).expect("spawn");

    loadgen(addr, &[]);
    loadgen(addr, &["--shutdown"]);

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join().expect("server thread");
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10)).expect("server stops after --shutdown");
}
