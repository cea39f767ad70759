//! The daemon under test, in-process on host loopback, and what the
//! benchmark reads back from its `stats()` families.

use richnote_core::{ContentId, ContentItem, UserId};
use richnote_obs::MetricValue;
use richnote_pubsub::Topic;
use richnote_server::{
    Client, CodecKind, RegistrySnapshot, Server, ServerConfig, ServerConfigBuilder, ServerResult,
};
use richnote_trace::{TraceConfig, TraceGenerator};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

/// A running daemon, where its checkpoints go, and how it was configured.
pub struct Daemon {
    pub addr: SocketAddr,
    pub dir: PathBuf,
    pub cfg: ServerConfig,
    handle: JoinHandle<()>,
}

impl Daemon {
    /// Wraps a daemon the caller bound itself (the restore path).
    pub fn run(server: Server, dir: PathBuf, cfg: ServerConfig) -> Daemon {
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || {
            let _ = server.run();
        });
        Daemon { addr, dir, cfg, handle }
    }

    pub fn client(&self, codec: CodecKind) -> ServerResult<Client> {
        Client::builder(self.addr).codec(codec).connect()
    }

    /// Shuts the daemon down through `client`, joins its threads and
    /// returns the scratch directory for reuse or removal. Every other
    /// client must be closed by now: the daemon waits for its connections.
    pub fn stop(self, client: &mut Client) -> Result<PathBuf, String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join().map_err(|_| "daemon thread panicked".to_string())?;
        Ok(self.dir)
    }
}

/// What every daemon workload sets up: a one-day trace to take publications
/// from, the daemon, a control connection, and each user subscribed to its
/// own friend feed (one `subscribe` per user), so that a publication on
/// `FriendFeed(u)` matches exactly user `u`.
pub struct Rig {
    pub daemon: Daemon,
    pub control: Client,
    pub templates: Vec<ContentItem>,
    pub users: u64,
}

impl Rig {
    /// `configure` adds the workload's own `queue_capacity`, `codec` and
    /// grant to the shipped-default config, which otherwise gets only an
    /// ephemeral loopback port, `shards = min(nproc, 2)` and a checkpoint
    /// directory inside the checkout.
    pub fn set_up(
        tag: &str,
        seed: u64,
        trace_users: u64,
        users: u64,
        configure: impl FnOnce(ServerConfigBuilder) -> ServerConfigBuilder,
    ) -> Result<Rig, String> {
        let trace = TraceGenerator::new(TraceConfig {
            seed,
            n_users: trace_users as usize,
            days: 1,
            ..TraceConfig::default()
        })
        .generate();
        let dir = crate::host::scratch_dir(tag);
        let base = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .shards(crate::host::lanes())
            .checkpoint_dir(dir.display().to_string());
        let cfg = configure(base).build().map_err(|e| format!("config: {e}"))?;
        let (addr, handle) = Server::spawn(cfg.clone()).map_err(|e| format!("spawn: {e}"))?;
        let daemon = Daemon { addr, dir, cfg, handle };
        let mut control = daemon.client(CodecKind::Binary).map_err(|e| format!("connect: {e}"))?;
        for u in 0..users {
            let user = UserId::new(u);
            control
                .subscribe(user, Topic::FriendFeed(user))
                .map_err(|e| format!("subscribe: {e}"))?;
        }
        Ok(Rig { daemon, control, templates: trace.items, users })
    }

    /// Stops the daemon and removes its scratch directory.
    pub fn tear_down(mut self) -> Result<(), String> {
        let dir = self.daemon.stop(&mut self.control)?;
        crate::host::remove_scratch(&dir);
        Ok(())
    }
}

/// Hands out publications: trace items reused as templates, each stamped
/// with a content id no other publication of the run carries.
pub struct ItemSource<'a> {
    templates: &'a [ContentItem],
    cursor: usize,
    stride: usize,
    next_id: u64,
}

impl<'a> ItemSource<'a> {
    /// Walks `templates[first], templates[first + stride], …` cyclically;
    /// ids count up from `id_base`.
    pub fn new(templates: &'a [ContentItem], first: usize, stride: usize, id_base: u64) -> Self {
        assert!(!templates.is_empty() && stride > 0);
        ItemSource { templates, cursor: first % templates.len(), stride, next_id: id_base }
    }

    /// The next publication, addressed to the template's own recipient.
    pub fn next_item(&mut self) -> ContentItem {
        let mut item = self.templates[self.cursor].clone();
        self.cursor = (self.cursor + self.stride) % self.templates.len();
        item.id = ContentId::new(self.next_id);
        self.next_id += 1;
        item
    }

    /// The next publication, re-addressed to `user`.
    pub fn next_for(&mut self, user: UserId) -> ContentItem {
        let mut item = self.next_item();
        item.recipient = user;
        item
    }
}

fn gauge_total(snap: &RegistrySnapshot, family: &str) -> f64 {
    snap.family(family).map_or(0.0, |f| {
        f.series
            .iter()
            .map(|s| match s.value {
                MetricValue::Gauge(v) => v,
                _ => 0.0,
            })
            .sum()
    })
}

/// Delivered utility and bytes so far, from the quality cohort families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub utility: f64,
    pub bytes: u64,
}

impl Quality {
    pub fn of(snap: &RegistrySnapshot) -> Quality {
        Quality {
            utility: gauge_total(snap, "richnote_utility_total"),
            bytes: snap.counter_total("richnote_delivered_bytes_total"),
        }
    }

    /// Delivered utility per delivered megabyte; 0 before any delivery.
    pub fn utility_per_mb(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.utility / (self.bytes as f64 / 1e6)
        }
    }
}

/// Delivered bytes per presentation level, from the `level` label of
/// `richnote_delivered_bytes_total`.
pub fn bytes_by_level(snap: &RegistrySnapshot) -> std::collections::BTreeMap<String, u64> {
    let mut by_level = std::collections::BTreeMap::<String, u64>::new();
    if let Some(f) = snap.family("richnote_delivered_bytes_total") {
        for s in &f.series {
            let level = s.labels.iter().find(|(k, _)| k == "level").map(|(_, v)| v);
            if let (Some(level), MetricValue::Counter(v)) = (level, &s.value) {
                *by_level.entry(format!("bytes_at_{level}")).or_default() += v;
            }
        }
    }
    by_level
}

/// The zero-acked-loss check: every acked publication matched one
/// subscriber, so after a tick has flushed the shard queues it is either
/// ingested (`richnote_pubs_total`) or shed by the bounded queue
/// (`richnote_queue_dropped_total`). Returns how many are neither.
pub fn unaccounted(snap: &RegistrySnapshot, acked: u64) -> u64 {
    let ingested = snap.counter_total("richnote_pubs_total");
    let shed = snap.counter_total("richnote_queue_dropped_total");
    acked.abs_diff(ingested + shed)
}

pub fn backlog(snap: &RegistrySnapshot) -> f64 {
    gauge_total(snap, "richnote_backlog")
}

/// Thread CPU spent inside shard rounds so far, µs (the sum of the
/// `richnote_round_cpu_us` histogram over the shards).
pub fn round_cpu_us(snap: &RegistrySnapshot) -> u64 {
    snap.histogram_merged("richnote_round_cpu_us").sum_us()
}
