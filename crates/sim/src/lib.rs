//! # richnote-sim
//!
//! Discrete-event simulator and experiment harness reproducing the
//! RichNote evaluation (Sec. V).
//!
//! The simulator replays a (synthetic) Spotify-like notification trace
//! through per-user brokers running one of the three scheduling policies —
//! RichNote, FIFO, UTIL — under data budgets, battery-driven energy grants
//! and Markov/cellular connectivity, and measures exactly the paper's
//! metrics: delivery ratio, precision/recall, utility, download energy and
//! queuing delay.
//!
//! Layout:
//!
//! * [`cost`] — adapts the `richnote-energy` models to the scheduler's
//!   [`richnote_core::scheduler::TransferCost`] trait;
//! * [`events`] — a generic time-ordered event queue (the simulation core);
//! * [`feed`] — the Sec. II generation path: activity routed through the
//!   pub/sub broker into notification candidates;
//! * [`metrics`] — per-user and aggregate metric accumulators;
//! * [`obs`] — export into the shared `richnote-obs` metric vocabulary
//!   (the same families the daemon serves on `--metrics-addr`);
//! * [`spans`] — deterministic per-publication span traces (ids derived
//!   from seed + virtual time, head-sampled with anomaly bypass);
//! * [`user`] — the single-user round loop (Algorithm 2 driven end-to-end);
//! * [`simulator`] — population-level orchestration with thread-parallel
//!   user simulation;
//! * [`report`] — text tables, CSV and JSON export;
//! * [`survey`] — the synthetic presentation-utility surveys and the
//!   regression that re-fits Eq. 8/9 from them (Fig. 2);
//! * [`scenarios`] — the deterministic scenario pack (commute flaky-cell,
//!   evening-WiFi surge, mass-event congestion, battery-critical cohort)
//!   with utility-per-MB / shed-rate reports;
//! * [`experiments`] — one module per figure/table of the paper, plus
//!   ablations and network/model-value studies.

pub mod alerts;
pub mod cost;
pub mod events;
pub mod experiments;
pub mod feed;
pub mod metrics;
pub mod obs;
pub mod report;
pub mod scenarios;
pub mod simulator;
pub mod spans;
pub mod survey;
pub mod user;

pub use alerts::{alert_timeline, timeline_json};
pub use cost::EnergyCost;
pub use metrics::{AggregateMetrics, UserMetrics};
pub use obs::{export_registry, exposition};
pub use scenarios::{run_all, run_scenario, ScenarioReport, ScenarioSpec, SCENARIO_NAMES};
pub use simulator::{NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
pub use spans::{dump_json_lines, simulate_user_spans, SpanHarness};
