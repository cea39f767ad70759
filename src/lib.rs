//! # richnote
//!
//! Facade crate for the RichNote reproduction (ICDCS 2016): *adaptive
//! selection and delivery of rich media notifications to mobile users*.
//!
//! This crate re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! * [`core`] — utility models, presentation ladders, MCKP selection and the
//!   Lyapunov scheduler, plus the FIFO/UTIL baselines, all unified under
//!   the [`Policy`] trait.
//! * [`obs`] — the observability layer: metrics registry, log2 histograms,
//!   Prometheus-style text exposition, and structured trace events.
//! * [`forest`] — the Random Forest classifier used for content utility.
//! * [`energy`] — the mobile download energy model and battery simulation.
//! * [`net`] — the Markov WiFi/Cell/Off connectivity model.
//! * [`trace`] — the synthetic Spotify-like trace generator.
//! * [`pubsub`] — the topic-based pub/sub substrate.
//! * [`sim`] — the discrete-event simulator and experiment harness.
//! * [`server`] — the sharded TCP delivery daemon, its fault-tolerant
//!   [`Client`], checkpoint/restore, and the fault-injection harness.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `repro` binary of `crates/sim` for the harness that regenerates every
//! figure and table of the paper.
//!
//! # Example
//!
//! Run one RichNote round over three notifications:
//!
//! ```
//! use richnote::core::mckp::{select_greedy, MckpItem};
//! use richnote::core::presentation::AudioPresentationSpec;
//!
//! let ladder = AudioPresentationSpec::paper_default().ladder();
//! let items: Vec<MckpItem> = [0.9, 0.5, 0.2]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &uc)| MckpItem::from_ladder(i, &ladder, uc))
//!     .collect();
//! let selection = select_greedy(&items, 300_000);
//! assert!(selection.total_size <= 300_000);
//! // Every item is at least notified; the budget decides preview depth.
//! assert!(selection.levels.iter().all(|&l| l >= 1));
//! ```

pub use richnote_core as core;
pub use richnote_energy as energy;
pub use richnote_forest as forest;
pub use richnote_net as net;
pub use richnote_obs as obs;
pub use richnote_pubsub as pubsub;
pub use richnote_server as server;
pub use richnote_sim as sim;
pub use richnote_trace as trace;

// The daemon-facing types most downstream users touch, lifted to the root
// so `richnote::Client` works without spelling out the module path.
pub use richnote_core::{Policy, PolicyCheckpoint, SelectionObserver};
pub use richnote_obs::{Log2Histogram, Registry, RegistrySnapshot, SpanRecord};
pub use richnote_server::{
    Client, RetryPolicy, Server, ServerConfig, ServerConfigBuilder, ServerError, ServerResult,
};
