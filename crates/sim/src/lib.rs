//! # richnote-sim
//!
//! Round-loop simulator and experiment harness reproducing the RichNote
//! evaluation (Sec. V).
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
//! * [`feed`] — the Sec. II generation path: activity routed through the
//!   pub/sub broker into notification candidates;
//! * [`metrics`] — per-user and aggregate metric accumulators;
//! * [`obs`] — export into the shared `richnote-obs` metric vocabulary
//!   (the same families the daemon serves on `--metrics-addr`);
//! * `user` — the single-user round loop: Algorithm 2 driven end-to-end
//!   as a merge walk of the user's arrival-sorted items with the round
//!   ticks;
//! * [`simulator`] — population-level orchestration with thread-parallel
//!   user simulation;
//! * [`report`] — text tables and JSON export;
//! * [`survey`] — the synthetic presentation-utility surveys and the
//!   regression that re-fits Eq. 8/9 from them (Fig. 2);
//! * [`scenarios`] — the deterministic scenario pack (commute flaky-cell,
//!   evening-WiFi surge, mass-event congestion, battery-critical cohort)
//!   with utility-per-MB / shed-rate reports;
//! * [`experiments`] — one module per figure/table of the paper, plus
//!   ablations and network/model-value studies.

pub mod cost;
pub mod experiments;
pub mod feed;
pub mod metrics;
pub mod obs;
pub mod report;
pub mod scenarios;
pub mod simulator;
pub mod survey;
mod user;

pub use cost::EnergyCost;
pub use metrics::{AggregateMetrics, UserMetrics};
pub use obs::{export_registry, exposition};
pub use scenarios::{run_all, run_scenario, ScenarioReport, ScenarioSpec, SCENARIO_NAMES};
pub use simulator::{NetworkKind, PolicyKind, PopulationSim, SimulationConfig};
